"""Fast self-test of the benchmark. From the repository root:

    python3 perfbench/selftest.py

Runs every workload at its small size, untraced and traced, and requires
the printed metric names and units to match ``BENCHMARK.json``. Then it
feeds every correctness check a deliberately corrupted value, by editing a
copy of the small run's evidence, and requires the check to count a failed
operation. Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

import run as bench

HERE = Path(__file__).resolve().parent


def _args(workload: str, trace: int):
    return argparse.Namespace(workload=workload, seed=0, seconds=0.0, trace=trace,
                              setup_probe=False, small=True)


def _expect(cond: bool, what: str) -> None:
    if not cond:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def check_names(result: dict, spec_metrics: list, what: str) -> None:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in spec_metrics}
    _expect(got == want, f"{what}: metric names and units match BENCHMARK.json")
    _expect(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
            f"{what}: correct, attempted {result['attempted']}, failed {result['failed']}")


def _row_pairs(res, frame: int):
    return [row for row in res.frames if row["frame"] == frame]


def _perturb_force(caps: list, k: int) -> list:
    est, eff, cand, lam = caps[k]
    caps = list(caps)
    caps[k] = (est, eff, cand, lam * (1.0 + 1e-4) + 1e-6)
    return caps


def grasp_corruptions(evidence):
    """(name, corrupted evidence) pairs for grasp_sim's checks."""
    label, res, caps = evidence[0]
    stages = list(res.column("stage"))
    first_hold = stages.index("hold")
    last_hold = len(stages) - 1 - stages[::-1].index("hold")

    def edit(fn):
        r = copy.deepcopy(res)
        fn(r)
        return [(label, r, caps)]

    def set_rows(frames, key, value):
        def fn(r):
            for k in frames:
                for row in _row_pairs(r, k):
                    row[key] = value(row[key]) if callable(value) else value
        return fn

    def unbalance(r):
        _row_pairs(r, mid_hold)[1]["f_gt_n"] += 1e-5

    mid_hold = (first_hold + last_hold) // 2
    yield "jaw forces balance", edit(unbalance)
    yield "stage sequence", edit(set_rows([mid_hold], "stage", "load"))
    yield "hold length", edit(set_rows([last_hold - 1, last_hold], "stage", "unload"))
    yield "target reached at the switch", edit(set_rows([first_hold], "grasp_gt", lambda v: 0.5 * v))
    yield "wedge remounts", edit(set_rows(range(len(stages)), "mounted", 7))
    yield "force matches reference solve", [(label, res, _perturb_force(caps, 2 * mid_hold + 1))]


def static_corruptions(evidence):
    (label, res, caps), rerun, (name, first, again) = evidence

    def edit(fn):
        r = copy.deepcopy(res)
        fn(r)
        return [(label, r, caps), rerun, (name, first, again)]

    def scale_truth(frames, factor):
        def fn(r):
            for k in frames:
                r.frames[k]["f_gt_n"] *= factor
        return fn

    yield "frame count", edit(lambda r: r.frames.pop())
    yield "zero truth on the 0 mm plateau", edit(lambda r: r.frames[3].update(f_gt_n=0.1))
    yield "truth rises from 4 to 10 mm", edit(scale_truth(range(42, 63), 0.1))
    yield "rerun writes identical bytes", [(label, res, caps), rerun,
                                           (name, first, again[:-1] + b"x")]
    yield "force matches reference solve", [(label, res, _perturb_force(caps, 50)), rerun,
                                            (name, first, again)]


def twin_corruptions(w, evidence):
    """Corruptions of twin_replay's checks; each edits the workload's
    state, yields, and restores it."""
    from finray import mesh_model
    from finray.mesh_model import SurfaceMesh

    cal, twin = w.calibrations[0], w.twin_meshes[0]
    w.calibrations[0] = replace(cal, total_scale=cal.total_scale * 1.02)
    yield "calibrated scale", evidence
    w.calibrations[0] = cal
    w.twin_meshes[0] = SurfaceMesh(twin.vertices, twin.triangles[:-1])
    yield "twin watertight", evidence
    w.twin_meshes[0] = twin

    point_inside = mesh_model.point_inside

    def flipped(mesh, points, **kw):
        inside = point_inside(mesh, points, **kw)
        inside[0] = not inside[0]
        return inside

    mesh_model.point_inside = flipped
    try:
        yield "containment agrees with half-spaces", evidence
    finally:
        mesh_model.point_inside = point_inside
    k, caps = evidence[0]
    yield "force matches reference solve", [(k, _perturb_force(caps, 40))]


def main() -> int:
    bench._import_program()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    evidence_of = {}
    for workload in ("grasp_sim", "static_distributed", "twin_replay"):
        for trace in (1, 0):
            result, w, evidence = bench.execute(_args(workload, trace))
            key = "per_layer" if trace else "end_to_end"
            check_names(result, spec[key], f"{workload} trace={trace}")
        evidence_of[workload] = (w, evidence[0])

    (w_g, ev_g), (w_s, ev_s), (w_t, ev_t) = (
        evidence_of[n] for n in ("grasp_sim", "static_distributed", "twin_replay"))
    for wl, corruptions in ((w_g, grasp_corruptions(ev_g)), (w_s, static_corruptions(ev_s)),
                            (w_t, twin_corruptions(w_t, ev_t))):
        for what, corrupted in corruptions:
            _expect(wl.evaluate(corrupted).failed >= 1, f"{wl.name}: corrupted {what} fails")
    for name, (wl, ev) in evidence_of.items():
        _expect(wl.evaluate(ev).failed == 0, f"{name}: uncorrupted evidence passes")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
