#!/usr/bin/env python3
"""Run the named mutants: small wrong edits of the package that the tests
must catch.

    python3 scripts/mutants.py

Each entry of MUTANTS is (name, file, old text, new text, test files),
paths relative to the repository root. For each one the script copies the
repository to a temporary directory, replaces the old text, which must
occur in the file exactly once, and runs `pytest -x` on the named test
files there with `PYTHONPATH=src`. The mutant is killed when pytest fails
and survives when it passes. A mutant whose old text occurs no time or
more than once is stale, an error, and is not run. The script prints one
line per mutant and exits 1 if any mutant survived or was stale.

A fix that the tests should guard adds its mutant here, and the old text
of each entry is kept in step with the code it names.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    (
        "two-group eliminate multiplier e/g for -e/g",
        "src/sparse_duals/gf.py",
        "v, scale = gs[:j], mul[inv[neg[gs[j]]]]",
        "v, scale = gs[:j], mul[inv[gs[j]]]",
        ["tests/test_gf.py"],
    ),
    (
        "carry skipped in a one-group field",
        "src/sparse_duals/gf.py",
        "op, carry = add, reduce.translate(lanes)",
        "op, carry = add, None",
        ["tests/test_gf.py"],
    ),
    (
        "column walk reads the pivot entries without unlanes",
        "src/sparse_duals/hermitian.py",
        "mul[neg[unlanes[c[piv]]]][inv[unlanes[s[piv]]]]",
        "mul[neg[c[piv]]][inv[s[piv]]]",
        ["tests/test_hermitian.py"],
    ),
    (
        "q - 1 points taken as a whole x-fibre",
        "src/sparse_duals/hermitian.py",
        "for x, c in Counter(xk).items() if c == q]",
        "for x, c in Counter(xk).items() if c >= q - 1]",
        ["tests/test_hermitian.py"],
    ),
    (
        "W* pivot of the largest rho",
        "src/sparse_duals/hermitian.py",
        "if gb[j] and (s < 0 or rho[b] < rho[s]):",
        "if gb[j] and (s < 0 or rho[b] > rho[s]):",
        ["tests/test_hermitian.py"],
    ),
    (
        "divisor_classes stops one column short",
        "src/sparse_duals/puncturing.py",
        "                if len(echelon) == rank:\n"
        "                    break\n"
        "        if len(echelon) < rank:\n"
        "            raise AssertionError(f\"M has rank {len(echelon)} < 2g = {rank} mod {p}\")\n"
        "        orders += [pk] * rank\n",
        "                if len(echelon) == rank - 1:\n"
        "                    break\n"
        "        orders += [pk] * len(echelon)\n",
        ["tests/test_puncturing.py"],
    ),
    (
        "sweep shifts the mirror one byte too far",
        "src/sparse_duals/sparse_ideals.py",
        "low & (high >> 8 * (bound - lam))",
        "low & (high >> 8 * (bound - lam + 1))",
        ["tests/test_sparse_ideals.py"],
    ),
    (
        "leader_set shifts the gap mask by lam bytes, not lam + 1",
        "src/sparse_duals/sparse_ideals.py",
        "lam > 0 and not (shifted >> 8 * (lam + 1)) & mirrored",
        "lam > 0 and not (shifted >> 8 * lam) & mirrored",
        ["tests/test_sparse_ideals.py"],
    ),
    (
        "_divisor_mask without its mirror",
        "src/sparse_duals/sparse_ideals.py",
        'return int.from_bytes(member, "little") & int.from_bytes(member, "big")',
        'return int.from_bytes(member, "little") & int.from_bytes(member, "little")',
        ["tests/test_sparse_ideals.py"],
    ),
    (
        "enumeration stops at the conductor",
        "src/sparse_duals/sparse_ideals.py",
        "stop = S.conductor + S.element(max(max_complement_size, 0))",
        "stop = S.conductor",
        ["tests/test_sparse_ideals.py"],
    ),
    (
        "ideal checks of the sweep read the mirrored membership mask",
        "src/sparse_duals/sparse_ideals.py",
        "low & (high >> 8 * (bound - lam)), lam, low)",
        "low & (high >> 8 * (bound - lam)), lam, high)",
        ["tests/test_sparse_ideals.py"],
    ),
    (
        "joined JSON list laid out at its parent's indent",
        "src/sparse_duals/cli.py",
        'value.replace(", ", "," + inner)',
        'value.replace(", ", ",\\n" + indent)',
        ["tests/test_cli.py"],
    ),
    (
        "carry table off by one: reduce[t] from t + 1",
        "src/sparse_duals/gf.py",
        "[t % p * u for t in range(1 << width)]",
        "[t % p * u for t in range(1, (1 << width) + 1)]",
        ["tests/test_gf.py"],
    ),
    (
        "rho moved by 2q at the last point of a walk",
        "src/sparse_duals/hermitian.py",
        "            rho[s] += q\n        return gens, rho\n",
        "            rho[s] += q\n        rho[s] += q\n        return gens, rho\n",
        ["tests/test_hermitian.py"],
    ),
]

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis")


def run_mutant(root: Path, mutant) -> str:
    """'killed', 'survived' or 'stale: ...' for one mutant of the
    repository at `root`, which is left as it is."""
    name, file, old, new, tests = mutant
    text = (root / file).read_text(encoding="utf-8")
    found = text.count(old)
    if found != 1:
        return f"stale: the old text occurs {found} times in {file}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=_IGNORED)
        (copy / file).write_text(text.replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    if done.returncode == 0:
        return "survived"
    if done.returncode in (1, 2):  # tests failed, or collection was interrupted
        return "killed"
    return f"stale: pytest exited {done.returncode} on {' '.join(tests)}"


def main(root: Path = ROOT, mutants=MUTANTS) -> int:
    """Run every mutant, print one line each and return the exit code."""
    failed = 0
    start = time.perf_counter()
    for mutant in mutants:
        began = time.perf_counter()
        result = run_mutant(root, mutant)
        failed += result != "killed"
        print(f"{result:<9} {time.perf_counter() - began:5.1f} s  {mutant[0]}", flush=True)
    print(f"{len(mutants) - failed} of {len(mutants)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
