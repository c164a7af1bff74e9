"""Write the 11 reference cells and print each one's sha256.

Usage, from the root of a checkout:

    python3 tools/reference_cells.py [OUT_DIR]

Runs each cell with the tuned epsilon schedule and writes its run CSV and
manifest into ``OUT_DIR`` (default ``runs/reference``), then prints one
line per cell: its label, the CSV's sha256 and the manifest's sha256. A
change that must keep the run outputs compares these lines with those of
its parent. OpenBLAS, OpenMP and MKL are pinned to one thread before
numpy loads, so the bytes do not depend on the host's core count.

- ``grasp-s{0,1}-{cyl25,cube30,asym}``: the noisy dual-jaw point-contact
  grasp of ``onrobot`` at the middle position, 4 mm/s to 5 N, 2 s hold.
- ``static-{upper-d15,middle-d25,lower-d35}``: noisy single-jaw cells at
  seed 0, one cycle of the quick plateaus, distributed contact with
  viscous relaxation.
- ``drift-cyl25``: the cyl25 grasp at seed 5 with drift occlusion, and
  ``drift-cyl25-side`` the same seen from the side, where one jaw hides
  the other's keypoints.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from finray.fixtures import ShapeSpec
from finray.harness_cli import (
    GRASP_OBJECTS,
    _grasp_cell,
    default_noisy_scenario,
    load_epsilon_schedule,
    static_schedule,
)
from finray.pipeline import EstimatorSettings, run_estimation
from finray.sensing_sim import ContactModelConfig


def reference_cells() -> dict:
    """The 11 reference scenarios by label."""
    cells = {f"grasp-s{seed}-{name}": _grasp_cell(GRASP_OBJECTS[name], "middle", seed,
                                                  4.0, 5.0, 2.0)
             for seed in (0, 1) for name in ("cyl25", "cube30", "asym")}
    for pos, d in (("upper", 15), ("middle", 25), ("lower", 35)):
        cells[f"static-{pos}-d{d}"] = default_noisy_scenario(
            shape=ShapeSpec.cylinder(d * 1e-3), contact_position=pos, seed=0,
            schedule=static_schedule(1, quick=True),
            contact=ContactModelConfig(model="distributed", viscous_gamma=0.25,
                                       viscous_tau=8.0))
    drift = replace(_grasp_cell(GRASP_OBJECTS["cyl25"], "middle", 5, 4.0, 5.0, 2.0),
                    occlusion_mode="drift")
    cells["drift-cyl25"] = drift
    cells["drift-cyl25-side"] = replace(drift, camera_eye=(-0.15, 0.02, 0.12))
    return cells


def main(argv: list[str]) -> int:
    out_dir = Path(argv[0] if argv else "runs/reference")
    out_dir.mkdir(parents=True, exist_ok=True)
    settings = EstimatorSettings(epsilons=load_epsilon_schedule())
    for label, scenario in reference_cells().items():
        res = run_estimation(scenario, settings)
        csv, manifest = out_dir / f"{label}.csv", out_dir / f"{label}.manifest.json"
        res.to_csv(csv)
        res.write_manifest(manifest)
        print(label, *(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv, manifest)),
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
