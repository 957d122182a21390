#!/usr/bin/env python3
"""Time the Hermitian layers and the CLI commands of the checkout this
file sits in and record them in a BENCH JSON file.

    python3 scripts/bench_layers.py --out BENCH_hermitian.json

Measures wall times of a `Field(p, m)` build for every GF(q^2) with q up
to 16 and of `hermitian_points` for the same q (with GF(q^2) held, so no
field is built in the call), `compute_wstar` times and
`tracemalloc` peaks on the full point sets for q = 5, 7, 8, 9, 11, 13, on
three seeded large subsets and on seeded subsets of the sizes `verify` and
`isometry` pass (q = 2 with n = 5 and 8, q = 3 with n = 6 and 7),
`isometry_sequence` (W* and the isometry vector from one column walk,
the points checked) on those four subsets, on a seeded qualifying q = 3
set and on a union of 25 x-fibres at q = 8 (200 points; the last two have
a vector, so the bilinear conditions are all checked),
`compute_wstar_family` times and `tracemalloc` peaks on the 93 subsets
`verify --q 2` checks and on the 31 687 qualifying q = 3 sets above the
boundary, `find_isometry_vectors` on the 93 subsets, `qualifying_subsets`
at q = 2 and 3, `sample_qualifying_subsets(3, 9, 30, 2)` (the draws of
`hierarchy --q 3 --sample 30 --seed 2 --min-size 9`) with its
`tracemalloc` peak, `build_hierarchy` and `verify_inheritance` on the q = 2
hierarchy, and in-process `cli.main`
calls, stdout captured, for nine commands (the `semigroup --json`
reports, genus 42 and 90, go to a temporary file).
Every entry is timed best-of-k in each of ROUNDS rounds, and each round
times all entries in turn, so a slow spell of the host reaches every
entry instead of the few timed during it; an entry records the best of
each round (`round_best_ms`) and the best of all (`best_ms`). An entry
whose call raises a package error records the error instead of times.
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
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from sparse_duals import (  # noqa: E402
    Field,
    SparseDualsError,
    build_hierarchy,
    cli,
    compute_wstar,
    compute_wstar_family,
    curve_genus,
    find_isometry_vectors,
    hermitian_field,
    hermitian_points,
    isometry_sequence,
    qualifying_subsets,
    sample_qualifying_subsets,
    verify_inheritance,
    weierstrass_semigroup,
)

POINTS_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
FULL_SET_Q = (5, 7, 8, 9, 11, 13)
CLI_COMMANDS = (
    "isometry --q 3 --points 1,5,9,13,17,21",
    "isometry --q 4 --points 7,15,41,42,52",
    "semigroup --generators 7,16",
    "sparse-ideals --generators 7,16,20 --leader 92 --compare 61",
    "verify --q 2",
    "hierarchy --q 2",
    "semigroup --generators 5,22 --json",
    "semigroup --generators 7,31 --json",
)
ROUNDS = 3
# The draws of `hierarchy --q 3 --sample 30 --seed 2 --min-size 9`.
SAMPLE_ARGS = (3, 9, 30, 2)
SAMPLE = f"sample_qualifying_subsets{SAMPLE_ARGS}"


def best_ms(fn, k: int) -> float:
    best = float("inf")
    for _ in range(k):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return round(best * 1e3, 3)


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1e6, 3)
    finally:
        tracemalloc.stop()


def cli_call(command: str, tmp: Path):
    """A command ending in --json writes its report to a file in `tmp`."""
    argv = command.split()
    if argv[-1] == "--json":
        argv.append(str(tmp / "report.json"))

    def call():
        with redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sparse-duals {command}: exit {code}")

    return call


def subsets() -> dict:
    """The seeded subsets, by name."""
    out = {}
    for q, n in ((2, 5), (2, 8), (3, 6), (3, 7), (7, 150), (8, 232)):
        out[f"random_q{q}_n{n}"] = (q, random.Random(q).sample(hermitian_points(q), n))
    pts = hermitian_points(16)
    xs = random.Random(16).sample(sorted({p.x.value for p in pts}), 4)
    out["fibres_q16_n64"] = (16, [p for p in pts if p.x.value in xs])
    return out


def oracle_subsets() -> dict:
    """The seeded sets that have an isometry vector, by name: a
    qualifying q = 3 set above the boundary and 25 x-fibres at q = 8."""
    pts3 = hermitian_points(3)
    above = [s for s in qualifying_subsets(3) if len(s) > 2 * curve_genus(3) + 2]
    chosen = random.Random(3).choice(above)
    pts8 = hermitian_points(8)
    xs = random.Random(8).sample(sorted({p.x.value for p in pts8}), 25)
    return {
        f"qualifying_q3_n{len(chosen)}": (3, [pts3[i - 1] for i in chosen]),
        "fibres_q8_n200": (8, [p for p in pts8 if p.x.value in xs]),
    }


def families() -> dict:
    """The subset families, by name: the subsets `verify --q 2` checks
    and the qualifying q = 3 sets, each above the boundary 2g + 2."""
    q3_above = [s for s in qualifying_subsets(3) if len(s) > 2 * curve_genus(3) + 2]
    return {
        "verify_q2_n_gt_4": (2, [c for k in range(8, 4, -1) for c in combinations(range(1, 9), k)]),
        "qualifying_q3_n_gt_8": (3, q3_above),
    }


def timed(entries: dict) -> dict:
    """Time every (section, name) -> (fn, k) entry best-of-k in each of
    ROUNDS rounds, all entries in turn within a round."""
    results = {}
    for key, (fn, k) in entries.items():
        try:
            fn()  # warm-up, and the error of an entry that cannot run
        except SparseDualsError as exc:
            results[key] = {"error": f"{type(exc).__name__}: {exc}"}
        else:
            results[key] = {"k": k, "round_best_ms": []}
    for _ in range(ROUNDS):
        for key, (fn, k) in entries.items():
            if "k" in results[key]:
                results[key]["round_best_ms"].append(best_ms(fn, k))
    for entry in results.values():
        if "k" in entry:
            entry["best_ms"] = min(entry["round_best_ms"])
    return results


def measure(tmp: Path) -> dict:
    describe = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT,
        capture_output=True, text=True, check=False,
    )
    entries = {}
    for f in map(hermitian_field, POINTS_Q):
        entries["field_build", str(f.q)] = ((lambda f=f: Field(f.p, f.m)), 10)
    for q in POINTS_Q:
        entries["hermitian_points", str(q)] = ((lambda q=q: hermitian_points(q)), 10)
    wstar_sets = {f"full_q{q}": (q, hermitian_points(q), 3) for q in FULL_SET_Q}
    wstar_sets.update(
        {name: (q, pts, 30 if len(pts) > 8 else 300) for name, (q, pts) in subsets().items()}
    )
    for name, (q, pts, k) in wstar_sets.items():
        entries["compute_wstar", name] = ((lambda q=q, pts=pts: compute_wstar(pts, q)), k)
    oracle_sets = {name: compute_wstar(pts, q) for name, (q, pts, _) in wstar_sets.items() if q <= 3}
    oracle_sets.update({name: compute_wstar(pts, q) for name, (q, pts) in oracle_subsets().items()})
    for name, cs in oracle_sets.items():
        entries["isometry_sequence", name] = (
            (lambda cs=cs: isometry_sequence(cs.points, cs.q)), 300 if cs.n <= 27 else 3)
    wstar_families = {
        name: (q, hermitian_points(q), family, 30 if len(family) < 1000 else 1)
        for name, (q, family) in families().items()
    }
    _, q2_points, verify_family, _ = wstar_families["verify_q2_n_gt_4"]
    for name, (q, pts, family, k) in wstar_families.items():
        entries["compute_wstar_family", name] = (
            (lambda q=q, pts=pts, family=family: compute_wstar_family(pts, q, family)), k)
    entries["find_isometry_vectors", "verify_q2_n_gt_4"] = (
        lambda: find_isometry_vectors(q2_points, 2, verify_family), 30)
    q2_subsets = qualifying_subsets(2)
    q2_graph = build_hierarchy(q2_subsets, boundary=4)
    W2 = weierstrass_semigroup(2)
    entries["puncturing", "qualifying_subsets(2)"] = (lambda: qualifying_subsets(2), 30)
    entries["puncturing", "qualifying_subsets(3)"] = (lambda: qualifying_subsets(3), 3)
    entries["puncturing", SAMPLE] = (lambda: sample_qualifying_subsets(*SAMPLE_ARGS), 3)
    entries["puncturing", "build_hierarchy(q=2)"] = (
        lambda: build_hierarchy(q2_subsets, boundary=4), 30)
    entries["puncturing", "verify_inheritance(q=2)"] = (
        lambda: verify_inheritance(q2_graph, W2), 30)
    for command in CLI_COMMANDS:
        entries["cli", command] = (cli_call(command, tmp), 30)

    run = {
        "commit": describe.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "rounds": ROUNDS,
    }
    for (section, name), entry in timed(entries).items():
        run.setdefault(section, {})[name] = entry
    for name, (q, pts, _) in wstar_sets.items():
        run["compute_wstar"][name].update(
            q=q, n=len(pts), tracemalloc_peak_mb=peak_mb(lambda: compute_wstar(pts, q)))
    for name, cs in oracle_sets.items():
        run["isometry_sequence"][name].update(
            q=cs.q, n=cs.n, found=isometry_sequence(cs.points, cs.q)[1] is not None)
    run["find_isometry_vectors"]["verify_q2_n_gt_4"].update(
        q=2, subsets=len(verify_family),
        found=sum(v is not None for v in find_isometry_vectors(q2_points, 2, verify_family)))
    for name, (q, pts, family, _) in wstar_families.items():
        # The walk makes one point step per distinct tail of a subset.
        steps = len({s[i:] for s in family for i in range(len(s))})
        run["compute_wstar_family"][name].update(
            q=q, subsets=len(family), point_steps=steps,
            tracemalloc_peak_mb=peak_mb(lambda: compute_wstar_family(pts, q, family)))
    run["puncturing"][SAMPLE].update(
        tracemalloc_peak_mb=peak_mb(lambda: sample_qualifying_subsets(*SAMPLE_ARGS)))
    return run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="BENCH JSON file to create or update")
    out = Path(parser.parse_args().out)
    with tempfile.TemporaryDirectory() as tmp:
        run = measure(Path(tmp))
    runs = json.loads(out.read_text())["runs"] if out.exists() else []
    runs = [r for r in runs if r["commit"] != run["commit"]] + [run]
    out.write_text(json.dumps({"runs": runs}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(run, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
