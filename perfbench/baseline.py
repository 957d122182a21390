#!/usr/bin/env python3
"""Record the baseline: two sets of ten seeded runs of every workload.

    python3 perfbench/baseline.py --out perfbench/baseline.json

Runs run.py one process at a time, for BENCHMARK.json's run_seconds. One
set runs every workload untraced on seeds 1-10; the second set repeats the
first once it is done. For each end-to-end metric and set it records the
values, their median and quartiles, and the spread (Q3 - Q1) as a share of
the median; and the gap between the two medians as a share of the first.
The two sets agree when every spread but that of setup_s, and every gap,
is within the metric's bound. One traced run per workload (seed 1) gives
the per-layer figures. The tier-1 tests are run and their summary kept.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2
EXCLUDED = [
    "verify --q 3: runs out of memory before any guard runs",
    "single point sets at q >= 9 (6-9 s each) and the full 512-point q = 8 set (about 4.7 s)",
]


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def tier1_summary() -> str:
    """The last line of the tier-1 test run, without its duration."""
    env = {**os.environ, "PYTHONPATH": "src"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1].strip("= ")
    return last.split(" in ")[0] + " (PYTHONPATH=src python -m pytest -q)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]

    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "tier1_tests": tier1_summary(),
        "excluded": EXCLUDED,
        "workloads": {w: {"jobs": [], "end_to_end_runs": []} for w in workloads},
    }
    for n in range(SETS):
        for workload in workloads:
            runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
            entry = report["workloads"][workload]
            entry["jobs"].append([r["attempted"] for r in runs])
            entry["end_to_end_runs"].append({
                name: summarise([r["metrics"][name]["value"] for r in runs]) for name in bounds
            })
            for name, s in entry["end_to_end_runs"][-1].items():
                print(f"set {n + 1} {workload:18} {name:12} median {s['median']:<10.5g}"
                      f" spread {s['spread']:.4f}", flush=True)
    for workload in workloads:
        entry = report["workloads"][workload]
        first, second = entry["end_to_end_runs"]
        entry["median_gap"] = {
            name: second[name]["median"] / first[name]["median"] - 1 for name in bounds
        }
        entry["agree"] = all(
            abs(entry["median_gap"][name]) <= bound
            and (name == "setup_s" or max(first[name]["spread"], second[name]["spread"]) <= bound)
            for name, bound in bounds.items()
        )
        traced = bench(workload, SEEDS[0], seconds, 1)
        entry["per_layer_seed_1"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"{workload:18} gaps "
              + " ".join(f"{k} {v:+.4f}" for k, v in entry["median_gap"].items())
              + f"; agree {entry['agree']}", flush=True)
    text = json.dumps(report, indent=1) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0 if all(entry["agree"] for entry in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
