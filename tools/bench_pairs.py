"""Run the benchmark in pairs on a parent and a change checkout and write
the paired summary as JSON.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload W \
        --seeds 3101-3110 --out BENCH_N.json [--claim METRIC] [--note TEXT]

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, one process at a time, with T the
``run_seconds`` of ``BENCHMARK.json``; the parent runs first in even pairs
(counted from 0) and the change first in odd ones. ``--seeds`` takes
numbers and ranges such as ``3101-3105,3110``, one pair per seed.

For every end-to-end metric of ``BENCHMARK.json`` the summary gives each
side's median and quartiles (``statistics.quantiles(n=4,
method='inclusive')``), the pairs the change wins and the ties, the
ratio of the change's median to the parent's, the parent's quartile
distance and every run; with each run's ``[failed, attempted]``. Units,
directions and bounds come from the change checkout's ``BENCHMARK.json``.
An existing ``--out`` file keeps its other workloads, so each workload
can be run on its own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

METHOD = ("python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0, "
          "one process at a time; parent and change each from its own checkout; the side "
          "that runs first alternates from pair to pair (parent first in even pairs); "
          "quartiles by statistics.quantiles(values, n=4, method='inclusive'); wins count "
          "pairs where the change is better, ties count for neither")


def parse_seeds(text: str) -> list[int]:
    """``"3101-3103,3110"`` -> [3101, 3102, 3103, 3110]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Paired summary of one metric: ``parent[i]`` and ``change[i]`` are
    pair i's runs, and ``better`` is ``"higher"`` or ``"lower"``."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of runs")
    sign = {"higher": 1.0, "lower": -1.0}[better]
    p, c = quartiles(parent), quartiles(change)
    return {
        "parent": p,
        "change": c,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "ties": sum(a == b for a, b in zip(parent, change)),
        "median_ratio": c["median"] / p["median"] if p["median"] else None,
        "parent_iqr": p["q3"] - p["q1"],
        "parent_runs": list(parent),
        "change_runs": list(change),
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in ``checkout``: its result object."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    return json.loads(lines[-1])


def machine() -> dict:
    import numpy
    import scipy
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas_threads": 1,
            "arch": platform.machine()}


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
              benchmark: dict) -> dict:
    """The workload's entry of the summary, from one pair of runs per seed."""
    runs = {"parent": [], "change": []}
    first = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            result = run_once(parent if side == "parent" else change, workload, seed,
                              benchmark["run_seconds"])
            runs[side].append(result)
            print(f"{workload} seed {seed} {side}: {result['failed']}/{result['attempted']} "
                  f"failed, " + ", ".join(f"{k} {v['value']:.4g}"
                                          for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    metrics = {}
    for spec in benchmark["end_to_end"]:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        metrics[name] = {"unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                         **summarize(values["parent"], values["change"], spec["better"])}
    return {
        "seeds": seeds,
        "pairs": len(seeds),
        "first_in_pair": first,
        "failed_attempted": {side: [[r["failed"], r["attempted"]] for r in runs[side]]
                             for side in runs},
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="the end-to-end metric the change claims a gain on")
    parser.add_argument("--note", help="what the change does, for the summary's 'change'")
    args = parser.parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    entry = run_pairs(args.parent.resolve(), args.change.resolve(), args.workload, args.seeds,
                      benchmark)
    summary = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.note:
        summary["change"] = args.note
    summary["method"] = METHOD.format(seconds=benchmark["run_seconds"])
    if args.claim:
        summary["claimed"] = {"workload": args.workload, "metric": args.claim}
    summary["machine"] = machine()
    summary.setdefault("workloads", {})[args.workload] = entry
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
