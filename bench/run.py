#!/usr/bin/env python3
"""Benchmark of the symmetroids pipeline, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The library is imported from the checkout's src/ directory.  Before
each pass, set-up (a fresh import, manifest load, input generation and
one warm-up instance) runs SETUP_PER_PASS times; setup_s is the median
of all of them, taken at several points of the run.  Passes over the
workload's instance list run until the next pass would overrun
--seconds, and at least two run, so that wall_s is a median and every
instance is sampled more than once.  instance_p50_s and
instance_tail_s are taken over every timed run of an instance.  Every
instance is checked against values that hold for any generic seed, and
after the passes the scenarios report cache must still be empty.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 it has the per-layer metrics,
taken from traced passes that alternate with untraced ones, so that the
tracing overhead is the difference of the two in the same process.  A
full record of the run (machine, instances and their sizes, samples,
spans) is written under bench/out/; failed_frac is reported there and
in the summary line rather than as a metric, since it is 0 when all is
well.  The exit code is 1 when a check fails and 2 when the library
cannot be found.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from spans import Tracer
from workloads import BUILDERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PER_PASS = 3
MIN_PASSES = 2
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
MAX_FAILURES_SHOWN = 10


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_1min_start": os.getloadavg()[0],
        "seed": seed,
        "workers": 1,
    }


def fresh_import():
    """Import the library from scratch, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "symmetroids" or m.startswith("symmetroids.")]:
        del sys.modules[name]
    package = importlib.import_module("symmetroids")
    if Path(package.__file__).resolve().parent != SRC / "symmetroids":
        raise ImportError(f"symmetroids imported from {package.__file__}, not from {SRC}")
    return package


def setup(workload: str, seed: int):
    """One set-up: import, manifest, inputs and a warm-up instance."""
    start = time.perf_counter()
    fresh_import()
    from symmetroids import fields, scenarios

    manifest = scenarios.load_manifest()
    field = fields.field_from_json(manifest["field"])
    instances = BUILDERS[workload](manifest, field, seed)
    warmup = run_instance(instances[0])
    return time.perf_counter() - start, instances, warmup


def run_instance(instance) -> dict:
    start = time.perf_counter()
    try:
        failures = instance.run()
    except Exception:  # a raising instance is a failed instance, not a crash
        failures = [traceback.format_exc(limit=3)]
    return {"id": instance.id, "s": time.perf_counter() - start, "failures": failures}


def run_pass(instances, tracer: "Tracer | None") -> "tuple[float, list[dict]]":
    results = []
    start = time.perf_counter()
    for instance in instances:
        if tracer is not None:
            tracer.instance = instance.id
        results.append(run_instance(instance))
    return time.perf_counter() - start, results


def memoization_used() -> bool:
    """True when something reached the scenarios report cache."""
    from symmetroids import scenarios

    return bool(scenarios._REPORT_CACHE)


def tail(samples: "list[float]") -> "tuple[float, float, int]":
    """(value, percentile, n): the highest percentile with TAIL_BEYOND samples beyond it.

    When there are too few samples for that percentile to lie above the
    median, the tail is the largest sample (percentile 100).
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symmetroids" / "__init__.py").is_file():
        print(f"error: library source not found at {SRC / 'symmetroids'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record(args.seed)}

    tracer = Tracer() if args.trace else None
    setup_times, warmups, traced_walls, untraced_walls, timed = [], [], [], [], []
    memoized = False
    started = time.perf_counter()
    longest = 0.0
    while True:
        iteration_start = time.perf_counter()
        for _ in range(SETUP_PER_PASS):
            elapsed, instances, warmup = setup(args.workload, args.seed)
            setup_times.append(elapsed)
            warmups.append(warmup)
        traced = tracer is not None and len(traced_walls) <= len(untraced_walls)
        if traced:
            tracer.install()
        try:
            wall, pass_results = run_pass(instances, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        (traced_walls if traced else untraced_walls).append(wall)
        timed.extend(pass_results)
        memoized = memoized or memoization_used()
        passes = len(traced_walls) + len(untraced_walls)
        now = time.perf_counter()
        longest = max(longest, now - iteration_start)
        if passes >= MIN_PASSES and now - started + longest > args.seconds:
            break
    record["machine"]["loadavg_1min_end"] = os.getloadavg()[0]
    record["instances"] = [{"id": i.id, **i.sizes} for i in instances]

    failed = [r for r in timed if r["failures"]]
    problems = [r for r in warmups + timed if r["failures"]]
    if memoized:
        problems.append({"id": "memoization guard",
                         "failures": ["scenarios._REPORT_CACHE is not empty after the passes"]})
    attempted = len(timed)
    samples = [r["s"] for r in timed]
    tail_value, tail_pct, n = tail(samples)
    record.update({
        "setup_s_samples": setup_times,
        "pass_wall_s": {"untraced": untraced_walls, "traced": traced_walls},
        "instance_samples": [{"id": r["id"], "s": r["s"]} for r in timed],
        "instance_p50": {"n": n, "passes": passes},
        "instance_tail": {"percentile": tail_pct, "n": n},
        "failed_frac": len(failed) / attempted,
        "failures": [{"id": r["id"], "failures": r["failures"]} for r in problems],
    })

    if tracer is None:
        metrics = {
            "wall_s": (statistics.median(untraced_walls), "s"),
            "instance_p50_s": (statistics.median(samples), "s"),
            "instance_tail_s": (tail_value, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = tracer.layer_metrics(len(traced_walls))
        traced_wall = statistics.median(traced_walls)
        untraced_wall = statistics.median(untraced_walls)
        metrics.update({
            "trace.wall_s": (traced_wall, "s"),
            "trace.untraced_wall_s": (untraced_wall, "s"),
            "trace.overhead_s": (traced_wall - untraced_wall, "s"),
            "trace.top_level_share": (tracer.top_level_time() / sum(traced_walls), "ratio"),
        })
        record["largest_matrix_per_instance"] = tracer.largest_matrices()
        record["trace_spans"] = tracer.to_json()

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    for failure in record["failures"][:MAX_FAILURES_SHOWN]:
        print(f"FAILED {failure['id']}: {'; '.join(failure['failures'])}", file=sys.stderr)
    if len(problems) > MAX_FAILURES_SHOWN:
        print(f"... {len(problems) - MAX_FAILURES_SHOWN} more failures in {out_file}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} instances, {len(failed)} failed "
          f"(failed_frac {record['failed_frac']:g}); instance_tail_s is p{tail_pct:.0f} of "
          f"n={n} ({passes} passes); record in {out_file.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
