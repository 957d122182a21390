#!/usr/bin/env python3
"""Closed-loop benchmark of sparse-duals: one client, one job at a time.

    python3 perfbench/run.py --workload q2-sweep --seed 1 --seconds 25 --trace 0

Imports the package from src/ of the checkout this file sits in, sets it
up several times, runs one warm-up job, then runs seeded jobs back to back
for --seconds, checking every output. Prints each metric by name with its
unit, then, as the last line, one JSON object. --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs every job untraced
and traced, reports the per-layer metrics and writes the spans to
perfbench/out/. Exit 2, with no result, when the package is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import Tracer, layer_metrics
from workloads import ROOT, WORKLOADS

OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
# Times are scaled to the machine speed at which calibration_s() reads
# CALIBRATION_S: the host's speed swings by a third within seconds.
CALIBRATION_S = 0.00025
_TABLE = [[(a * b) % 251 % 64 for b in range(64)] for a in range(64)]
MODULES = ("gf", "hermitian", "puncturing", "semigroup", "sparse_ideals", "cli")


def import_program() -> SimpleNamespace:
    """Import sparse_duals afresh from src/, dropping any cached modules."""
    package = ROOT / "src" / "sparse_duals"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no sparse_duals package under {package.parent}")
    if str(package.parent) not in sys.path:
        sys.path.insert(0, str(package.parent))
    for name in [n for n in sys.modules if n == "sparse_duals" or n.startswith("sparse_duals.")]:
        del sys.modules[name]
    prog = SimpleNamespace(package=importlib.import_module("sparse_duals"))
    for name in MODULES:
        setattr(prog, name, importlib.import_module(f"sparse_duals.{name}"))
    if Path(prog.package.__file__).resolve().parent != package.resolve():
        raise ImportError(f"sparse_duals was imported from {prog.package.__file__}")
    return prog


def calibration_s() -> float:
    """Best of three runs of a fixed loop of table lookups and list
    building, the kind of work the program's hot loops do."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        row = list(range(64))
        for f in range(1, 65):
            table_f = _TABLE[f % 64]
            row = [_TABLE[v][table_f[w]] for v, w in zip(row, table_f)]
        best = min(best, perf_counter() - start)
    return best


def scaled(seconds: float, before: float) -> float:
    """Wall time scaled by the calibration readings around it."""
    return seconds * CALIBRATION_S / ((before + calibration_s()) / 2)


def set_up(workload):
    """Import the package and build the field and points of each curve."""
    before = calibration_s()
    start = perf_counter()
    prog = import_program()
    points = {q: prog.hermitian.hermitian_points(q) for q in workload.qs}
    return scaled(perf_counter() - start, before), prog, points


def text_bytes(value) -> int:
    """UTF-8 size of every string in a job result (its printed output)."""
    if isinstance(value, str):
        return len(value.encode())
    if isinstance(value, tuple):
        return sum(text_bytes(v) for v in value)
    return 0


def execute(job, prog, tmp: Path, tracer=None, job_id=None):
    """Run one job: (scaled seconds, (result, files) or None, error or None)."""
    for name in job.files:
        (tmp / name).unlink(missing_ok=True)
    before = calibration_s()
    with tracer.installed(job_id) if tracer else nullcontext():
        start = perf_counter()
        try:
            result = job.run(prog, tmp)
        except Exception as exc:  # a job that raises is counted as failed
            elapsed = scaled(perf_counter() - start, before)
            return elapsed, None, f"raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
    elapsed = scaled(elapsed, before)
    try:
        files = {name: (tmp / name).read_bytes() for name in job.files if (tmp / name).exists()}
        job.check(result, files)
    except Exception as exc:  # CheckFailed, or output missing or malformed
        return elapsed, None, f"{type(exc).__name__}: {exc}"
    return elapsed, (result, files), None


def execute_both(job, prog, tmp: Path, tracer, job_id: int):
    """Run a job untraced and traced, alternating which goes first;
    a difference in outputs or files is a failure."""
    order = (None, tracer) if job_id % 2 == 0 else (tracer, None)
    runs = {tr is not None: execute(job, prog, tmp, tr, job_id) for tr in order}
    (plain, out, error), (traced, out_traced, error_traced) = runs[False], runs[True]
    error = error or error_traced
    if error is None and out != out_traced:
        error = "outputs differ with tracing on and off"
    return plain, traced, out, error


def percentile(values, pct: float) -> float:
    """Linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run(workload, seed: int, seconds: float, trace: bool):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        elapsed, prog, points = set_up(workload)
        setup_times.append(elapsed)
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=OUT))
    tracer = Tracer(prog) if trace else None
    cycle = len(workload.cycle)
    times, traced_times, failures = [], [], []
    output_bytes = 0
    try:
        _, _, warm_error = execute(workload.job(seed, -1, points), prog, tmp)
        if warm_error:
            failures.append(("warm-up", warm_error))
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline or (trace and i < cycle):
            job = workload.job(seed, i, points)
            if trace:
                elapsed, traced, out, error = execute_both(job, prog, tmp, tracer, i)
                traced_times.append(traced)
                if out and i < cycle:
                    output_bytes += text_bytes(out[0]) + sum(map(len, out[1].values()))
            else:
                elapsed, _, error = execute(job, prog, tmp)
            times.append(elapsed)
            if error:
                failures.append((f"job {i} ({job.kind})", error))
            i += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    summary = {
        "jobs": len(times),
        "failed": len([f for f in failures if f[0] != "warm-up"]),
        "failures": failures,
    }
    if not trace:
        failed_frac = summary["failed"] / len(times)
        summary["metrics"] = {
            "setup_s": statistics.median(setup_times),
            "job_ms_p50": 1000 * statistics.median(times),
            "job_ms_tail": 1000 * percentile(times, workload.tail_pct),
            "jobs_per_s": len(times) / sum(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - failed_frac,
        }
        summary["failed_frac"] = failed_frac
        return summary
    cycles = len(times) // cycle
    counts = sum((tracer.counts[j] for j in range(cycle)), Counter())
    self_s = tracer.self_times(set(range(cycles * cycle)))
    metrics = layer_metrics(counts, self_s, cycles, output_bytes)
    metrics["trace.overhead_frac"] = statistics.median(traced_times) / statistics.median(times) - 1
    summary["metrics"] = metrics
    summary["cycles"] = cycles
    summary["spans"] = OUT / f"spans-{workload.name}.jsonl"
    tracer.write(summary["spans"])
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        workload = WORKLOADS[args.workload]
        os.environ.pop("SPARSE_DUALS_THREADS", None)  # one thread: the closed loop has one client
        summary = run(workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": summary["metrics"][m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s closed loop,"
          f" one client: {summary['jobs']} jobs, {summary['failed']} failed"
          + (f", {summary['cycles']} complete cycles" if args.trace else ""))
    for name, metric in metrics.items():
        print(f"  {name:32} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"  spans written to {summary['spans']}")
    else:
        tail = workload.tail_pct
        print(f"  job_ms_tail is p{tail:g} over {summary['jobs']} jobs,"
              f" {summary['jobs'] * (100 - tail) / 100:.1f} beyond it")
        print(f"  {'failed_frac':32} {summary['failed_frac']:.6g} ratio")
    for where, error in summary["failures"][:20]:
        print(f"FAILED {where}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not summary["failures"],
        "attempted": summary["jobs"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
