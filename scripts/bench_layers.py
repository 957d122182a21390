#!/usr/bin/env python3
"""Time the Hermitian layers and the CLI commands of the checkout this
file sits in and record them in a BENCH JSON file.

    python3 scripts/bench_layers.py --out BENCH_hermitian.json

Measures best-of-k wall times of `hermitian_points` for every q up to 16,
`compute_wstar` times and `tracemalloc` peaks on the full point sets for
q = 5, 7, 8, 9, 11, 13 and on three seeded large subsets, and best-of-k
times of in-process `cli.main` calls, stdout captured, for five commands.
The run is stored under its commit (`git describe --always --dirty`) next
to the runs already in the file, so running it on two checkouts with the
same --out keeps both for comparison.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sparse_duals import cli, compute_wstar, hermitian_points  # noqa: E402

POINTS_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
FULL_SET_Q = (5, 7, 8, 9, 11, 13)
CLI_COMMANDS = (
    "isometry --q 3 --points 1,5,9,13,17,21",
    "isometry --q 4 --points 7,15,41,42,52",
    "semigroup --generators 7,16",
    "sparse-ideals --generators 7,16,20 --leader 92 --compare 61",
    "verify --q 2 --skip-oracle",
)


def best_ms(fn, k: int) -> float:
    best = float("inf")
    for _ in range(k):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return round(best * 1e3, 3)


def wstar_entry(points, q: int, k: int) -> dict:
    tracemalloc.start()
    try:
        compute_wstar(points, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {
        "q": q,
        "n": len(points),
        "best_ms": best_ms(lambda: compute_wstar(points, q), k),
        "k": k,
        "tracemalloc_peak_mb": round(peak / 1e6, 3),
    }


def cli_entry(command: str, k: int) -> dict:
    def call():
        with redirect_stdout(io.StringIO()):
            code = cli.main(command.split())
        if code != 0:
            raise RuntimeError(f"sparse-duals {command}: exit {code}")

    return {"best_ms": best_ms(call, k), "k": k}


def subsets() -> dict:
    """The seeded large subsets, by name."""
    out = {}
    for q, n in ((7, 150), (8, 232)):
        out[f"random_q{q}_n{n}"] = (q, random.Random(q).sample(hermitian_points(q), n))
    pts = hermitian_points(16)
    xs = random.Random(16).sample(sorted({p.x.value for p in pts}), 4)
    out["fibres_q16_n64"] = (16, [p for p in pts if p.x.value in xs])
    return out


def measure() -> dict:
    describe = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True, check=False,
    )
    wstar = {f"full_q{q}": wstar_entry(hermitian_points(q), q, 3) for q in FULL_SET_Q}
    wstar.update({name: wstar_entry(pts, q, 30) for name, (q, pts) in subsets().items()})
    return {
        "commit": describe.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hermitian_points_best_ms": {
            str(q): best_ms(lambda: hermitian_points(q), 10) for q in POINTS_Q
        },
        "compute_wstar": wstar,
        "cli": {command: cli_entry(command, 30) for command in CLI_COMMANDS},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH JSON file to create or update")
    out = Path(parser.parse_args().out)
    run = measure()
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs = [r for r in runs if r["commit"] != run["commit"]] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(run, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
