"""Grasp-force pipeline benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grasp_sim --seed 0 --seconds 10 --trace 0

Runs one workload in this process: set-up, then whole rounds of the timed
loop until ``--seconds`` have passed, then the correctness checks. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` the calls into each finray layer are
recorded as spans and the object carries the per-layer metrics instead.
Set-up time is the median over this process and two more fresh processes
started only to set up (``--setup-probe``). Timings are scaled to the
reference speed of ``reference.py``. Results and span files go to
``perfbench/out/``.

OpenBLAS, OpenMP and MKL are pinned to one thread before numpy loads, and
``FINRAY_THREADS`` is removed, so ``run_grid`` runs its cells one after
another.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FINRAY_THREADS", None)

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path
from time import perf_counter

import numpy as np

from reference import NOMINAL_S, SpeedGauge

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
SETUP_PROBES = 2
SETUP_SLICES = 40


def _import_program():
    """Put the checkout's ``src`` first on the path and import finray from
    it; refuse to run against any other copy."""
    if not (SRC / "finray" / "__init__.py").is_file():
        sys.exit(f"perfbench: no finray sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import finray
    if Path(finray.__file__).resolve().parent != (SRC / "finray").resolve():
        sys.exit(f"perfbench: finray imported from {finray.__file__}, not from {SRC}")


def _timed_setup(w) -> tuple[float, float]:
    """(raw, scaled) set-up time; reference slices run before and after."""
    gauge = SpeedGauge()
    gauge.sample(SETUP_SLICES)
    t0 = perf_counter()
    w.setup()
    raw = perf_counter() - t0
    gauge.sample(SETUP_SLICES)
    return raw, raw * gauge.scale()


def _setup_probe(workload_cls, args) -> dict:
    w = workload_cls(args.seed, args.small, HERE / "out")
    w.prepare()
    raw, scaled = _timed_setup(w)
    return {"setup_s": scaled, "raw_setup_s": raw}


def _run_probes(args) -> list[dict]:
    """Set up in ``SETUP_PROBES`` fresh processes, side by side (one per
    core on the 2-core reference host); each scales its own time with the
    reference slices it runs around its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    procs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for _ in range(SETUP_PROBES)]
    samples = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=170)
            if proc.returncode != 0:
                sys.stderr.write(err)
                sys.exit(f"perfbench: set-up probe exited with {proc.returncode}")
            samples.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return samples


def execute(args):
    """Run one workload. Returns (result object, workload, evidence of every
    round)."""
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, Instruments

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    w = WORKLOADS[args.workload](args.seed, args.small, out_dir)
    setup_samples = []
    if not args.trace and not args.small:
        setup_samples = _run_probes(args)

    w.prepare()
    inst = Instruments()
    tracer = Tracer() if args.trace else None
    with ExitStack() as stack:
        stack.enter_context(inst.installed())
        if tracer is not None:
            stack.enter_context(tracer.installed())

        def phase(name):
            if tracer is not None:
                tracer.phase = name

        phase("setup")
        raw, scaled = _timed_setup(w)
        setup_samples.append({"setup_s": scaled, "raw_setup_s": raw})
        phase("inputs")
        w.prepare_loop()
        phase("loop")
        evidence, rounds, frames = [], 0, 0
        t0 = perf_counter()
        while True:
            ev, n = w.run_round(inst)
            evidence.append(ev)
            frames += n
            rounds += 1
            loop_s = perf_counter() - t0
            if loop_s >= args.seconds:
                break
        phase("check")
        outcomes = [w.evaluate(ev) for ev in evidence]

    first = outcomes[0]
    force_rmse = math.sqrt(float(np.mean(np.concatenate(first.sq_err))))
    load_rmse = math.sqrt(float(np.mean(np.concatenate(first.load_sq_err))))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for what in first.failures[:20]:
        print(f"perfbench: check failed: {what}", file=sys.stderr)
    # each frame is brought to the reference speed by the slice that ran
    # right after it; the rest of the loop (engine and estimator
    # construction, file writes) by the median slice
    frame_s = np.array(inst.frame_times)
    slice_s = np.array(inst.gauge.samples)
    scaled_frame_s = frame_s * (NOMINAL_S / slice_s)
    work_s = loop_s - inst.slice_s
    scaled_work_s = scaled_frame_s.sum() + (work_s - frame_s.sum()) * inst.gauge.scale()
    print(f"perfbench: {args.workload} seed {args.seed} trace={int(bool(args.trace))}: "
          f"{rounds} round(s), {frames} frames in {work_s:.2f} s; wall clock: "
          f"{frames / work_s:.2f} frames/s, p50 {1e3 * np.percentile(frame_s, 50):.2f} ms, "
          f"p90 {1e3 * np.percentile(frame_s, 90):.2f} ms; median speed scale "
          f"{inst.gauge.scale():.3f}; scaled {frames / scaled_work_s:.2f} frames/s",
          file=sys.stderr)

    if tracer is None:
        print("perfbench: set-up raw/scaled s: " + ", ".join(
            f"{p['raw_setup_s']:.3f}/{p['setup_s']:.3f}" for p in setup_samples), file=sys.stderr)
        metrics = {
            "setup_s": (statistics.median(p["setup_s"] for p in setup_samples), "s"),
            "frames_per_s": (frames / scaled_work_s, "1/s"),
            "frame_ms_p50": (1e3 * float(np.percentile(scaled_frame_s, 50)), "ms"),
            "frame_ms_p90": (1e3 * float(np.percentile(scaled_frame_s, 90)), "ms"),
            "force_rmse_n": (force_rmse, "N"),
            "load_rmse_n": (load_rmse, "N"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer.write(out_dir / f"trace-{args.workload}-s{args.seed}.json")
        layers = layer_metrics(tracer.spans, rounds, frames // rounds)
        layers["contact_localizer.mount_error"] = float(np.mean(first.mount_err)) \
            if first.mount_err else 0.0
        layers.update(w.extra_layer_metrics())
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {name: (layers[name], units[name]) for name in units}
    correct = attempted >= 1 and all(math.isfinite(v) for v, _ in metrics.values())
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, w, evidence


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once in this fresh process and print the time")
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs and no set-up probes (self-test)")
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_probe:
        print(json.dumps(_setup_probe(WORKLOADS[args.workload], args)))
        return 0
    result, _, _ = execute(args)
    (HERE / "out" / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
