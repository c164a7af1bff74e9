"""Span recording around the benchmark's calls into finray, and the
per-layer metrics computed from the spans.

Each wrapped call records one span: name, start, end, parent span and the
phase of the benchmark it ran in (``setup``, ``inputs``, ``loop`` or
``check``), plus an optional work count taken from its arguments or
result. Spans stay in memory and are written out when the run ends.

Functions are wrapped in the namespace they are looked up from: the
pipeline imports ``intersect_approx``, ``select_candidate``, ``solve`` and
``remount`` by name, so those are replaced in ``finray.pipeline``.
Methods are replaced on their class.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from finray import fem_core, mesh_calibration, mesh_model, pipeline, sensing_sim


def _n_items(args, kwargs, result):
    """Length of the array argument: points of ``point_inside(mesh,
    points)``, rays of ``TriangleBVH.first_hit_fraction(self, origins, ...)``."""
    return len(args[1])


def _hit(args, kwargs, result):
    return 0 if result.is_empty else 1


def _n_active(args, kwargs, result):
    return int(args[1].n_active)


def _icp_iterations(args, kwargs, result):
    return int(result.n_iterations)


# (owner, attribute, span name, work count)
TARGETS = [
    (sensing_sim, "canonical_jaw", "fixtures.canonical_jaw", None),
    (sensing_sim, "assemble", "fem_core.assemble", None),
    (fem_core.StiffnessSystem, "point_load_field", "fem_core.point_load_field", None),
    (pipeline, "precompute_compliance", "fem_core.precompute_compliance", None),
    (sensing_sim.ForwardContactModel, "solve", "sensing_sim.contact_solve", None),
    (sensing_sim.SimEngine, "step_truth", "sensing_sim.step_truth", None),
    (sensing_sim.SimEngine, "render_observation", "sensing_sim.render_observation", None),
    (mesh_model.TriangleBVH, "__init__", "mesh_model.bvh_build", None),
    (mesh_model.TriangleBVH, "refit", "mesh_model.bvh_refit", None),
    (mesh_model.TriangleBVH, "first_hit_fraction", "mesh_model.first_hit_fraction", _n_items),
    (mesh_model, "point_inside", "mesh_model.point_inside", _n_items),
    (pipeline, "intersect_approx", "mesh_model.intersect_approx", _hit),
    (pipeline, "select_candidate", "contact_localizer.select_candidate", None),
    (pipeline, "remount", "inverse_solver.remount", None),
    (pipeline, "solve", "inverse_solver.solve", _n_active),
    (pipeline.JawEstimator, "step", "pipeline.step", None),
    (pipeline.RunResult, "to_csv", "pipeline.io", None),
    (pipeline.RunResult, "write_manifest", "pipeline.io", None),
    (mesh_calibration, "calibrate", "mesh_calibration.calibrate", None),
    (mesh_calibration, "icp_align", "mesh_calibration.icp_align", _icp_iterations),
    (mesh_calibration, "partial_view", "mesh_calibration.partial_view", None),
    (mesh_calibration, "ensure_watertight", "mesh_calibration.ensure_watertight", None),
]


class Tracer:
    """In-memory span recorder. ``phase`` tags every span opened while it
    is set; ``installed()`` wraps the targets and restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase, count]
        self.phase = "setup"
        self._stack: list[int] = []

    def _wrap(self, func, name, count):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1,
                          self.phase, 1 if count is None else 0])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                spans[idx][5] = count(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, name, count in TARGETS:
                func = owner.__dict__[attr]
                saved.append((owner, attr, func))
                setattr(owner, attr, self._wrap(func, name, count))
            yield self
        finally:
            for owner, attr, func in reversed(saved):
                setattr(owner, attr, func)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "phase", "count"],
             "spans": self.spans}) + "\n")


def layer_metrics(spans: list[list], rounds: int, frames_per_round: int) -> dict:
    """Per-layer figures. Set-up layers are totals over the set-up phase;
    loop layers are per round (one pass over the workload's inputs), so
    they do not depend on how many rounds fit in the run."""
    calls: dict = {}
    total: dict = {}
    work: dict = {}
    child_time = [0.0] * len(spans)
    for name, start, end, parent, phase, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    step_self = 0.0
    refit_outside_build = 0.0
    for i, (name, start, end, parent, phase, count) in enumerate(spans):
        key = (phase, name)
        calls[key] = calls.get(key, 0) + 1
        total[key] = total.get(key, 0.0) + (end - start)
        work[key] = work.get(key, 0) + count
        if phase != "loop":
            continue
        if name == "pipeline.step":
            step_self += (end - start) - child_time[i]
        elif name == "mesh_model.bvh_refit" and (
                parent < 0 or spans[parent][0] != "mesh_model.bvh_build"):
            refit_outside_build += end - start

    def setup_s(name):
        return total.get(("setup", name), 0.0)

    def loop_s(name):
        return total.get(("loop", name), 0.0) / rounds

    def loop_calls(name):
        return calls.get(("loop", name), 0) // rounds

    def loop_work(name):
        return work.get(("loop", name), 0) // rounds

    n_solves = loop_calls("inverse_solver.solve")
    n_intersect = loop_calls("mesh_model.intersect_approx")
    return {
        "fixtures.jaw_s": setup_s("fixtures.canonical_jaw"),
        "fem_core.assemble_s": setup_s("fem_core.assemble"),
        "fem_core.unit_fields": calls.get(("setup", "fem_core.point_load_field"), 0),
        "fem_core.unit_fields_s": setup_s("fem_core.point_load_field"),
        "fem_core.compliance_s": setup_s("fem_core.precompute_compliance"),
        "sensing_sim.contact_solves": loop_calls("sensing_sim.contact_solve"),
        "sensing_sim.contact_solves_per_frame":
            loop_calls("sensing_sim.contact_solve") / frames_per_round,
        "sensing_sim.contact_solve_s": loop_s("sensing_sim.contact_solve"),
        "sensing_sim.truth_s": loop_s("sensing_sim.step_truth"),
        "sensing_sim.render_s": loop_s("sensing_sim.render_observation"),
        "mesh_model.bvh_builds": loop_calls("mesh_model.bvh_build"),
        "mesh_model.bvh_build_s": loop_s("mesh_model.bvh_build"),
        "mesh_model.bvh_refit_s": refit_outside_build / rounds,
        "mesh_model.occlusion_rays": loop_work("mesh_model.first_hit_fraction"),
        "mesh_model.occlusion_s": loop_s("mesh_model.first_hit_fraction"),
        "mesh_model.containment_points": loop_work("mesh_model.point_inside"),
        "mesh_model.containment_s": loop_s("mesh_model.point_inside"),
        "mesh_model.intersect_calls": n_intersect,
        "mesh_model.intersect_s": loop_s("mesh_model.intersect_approx"),
        "mesh_model.intersect_hit_ratio":
            loop_work("mesh_model.intersect_approx") / n_intersect if n_intersect else 0.0,
        "contact_localizer.select_s": loop_s("contact_localizer.select_candidate"),
        "contact_localizer.remounts": loop_calls("inverse_solver.remount"),
        "inverse_solver.solves": n_solves,
        "inverse_solver.solve_s": loop_s("inverse_solver.solve"),
        "inverse_solver.active_effectors":
            loop_work("inverse_solver.solve") / n_solves if n_solves else 0.0,
        "pipeline.steps": loop_calls("pipeline.step"),
        "pipeline.step_self_s": step_self / rounds,
        "pipeline.io_s": loop_s("pipeline.io"),
        "mesh_calibration.calibrate_s": setup_s("mesh_calibration.calibrate"),
        "mesh_calibration.icp_iterations": work.get(("setup", "mesh_calibration.icp_align"), 0),
        "mesh_calibration.partial_view_s": setup_s("mesh_calibration.partial_view"),
        "mesh_calibration.wrap_s": setup_s("mesh_calibration.ensure_watertight"),
    }
