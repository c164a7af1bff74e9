"""Write the 11 reference cells and print each one's sha256.

Usage, from the root of a checkout:

    python3 tools/reference_cells.py [OUT_DIR] [--expect FILE]

Runs each cell with the tuned epsilon schedule and writes its run CSV and
manifest into ``OUT_DIR`` (default ``runs/reference``), then prints one
line per cell: its label, the CSV's sha256 and the manifest's sha256. A
change that must keep the run outputs compares these lines with those of
its parent. OpenBLAS, OpenMP and MKL are pinned to one thread before
numpy loads, so the bytes do not depend on the host's core count.

With ``--expect FILE`` the printed lines are also checked against FILE,
which holds lines of the same form (``#`` starts a comment): the command
exits 1 and names every label whose CSV or manifest sha256 differs, or
that FILE lacks. ``tools/reference_cells.sha256`` holds the values, with
the Python, numpy and scipy versions that gave them; other versions may
round differently.

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

import argparse
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


def read_expected(path: Path) -> dict:
    """(CSV sha256, manifest sha256) by label, from lines of the printed form."""
    expected = {}
    for line in path.read_text().splitlines():
        fields = line.split("#", 1)[0].split()
        if fields:
            label, csv, manifest = fields
            expected[label] = (csv, manifest)
    return expected


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", default="runs/reference", type=Path)
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="exit 1 naming every label whose sha256 differs from FILE's")
    args = parser.parse_args(argv)
    expected = read_expected(args.expect) if args.expect else None
    args.out_dir.mkdir(parents=True, exist_ok=True)
    settings = EstimatorSettings(epsilons=load_epsilon_schedule())
    differ = []
    for label, scenario in reference_cells().items():
        res = run_estimation(scenario, settings)
        csv, manifest = args.out_dir / f"{label}.csv", args.out_dir / f"{label}.manifest.json"
        res.to_csv(csv)
        res.write_manifest(manifest)
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv, manifest))
        print(label, *digests, flush=True)
        if expected is not None and expected.get(label) != digests:
            differ.append(label)
    if differ:
        print(f"differs from {args.expect}: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
