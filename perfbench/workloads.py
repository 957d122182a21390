"""Seeded workloads of the sparse-duals benchmark and the checks on their outputs.

A workload is an endless, deterministic stream of jobs: job i is a pure
function of (workload, seed, i). Jobs follow a fixed cycle of job kinds,
and each cost class appears twice per cycle, so that the median and the
tail percentile land inside one class whatever the seed picks. The seed
varies only the inputs inside a class: which points, which fibres, which
semigroup of the target genus, which --min-size.

Checks recompute what they can without the program: semigroup membership
by brute force, GF(q^2) arithmetic on polynomial coefficients, the closed
form of W* on x-fibre unions. A failed check raises CheckFailed.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
Q2_HIERARCHY = ROOT / "tests" / "data" / "hermitian_q2_hierarchy.json"

ENUMERATE_MAX_COMPLEMENT = 3


class CheckFailed(Exception):
    """A job's output disagrees with the independently recomputed answer."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    """One closed-loop request.

    `inputs` records the seeded choices the program receives. `run(prog,
    tmp)` calls into the program and returns plain, comparable data; only
    it is timed. `files` are the names it writes under `tmp`.
    `check(result, files)` receives that data and the bytes of each file.
    """

    kind: str
    inputs: tuple
    run: Callable
    check: Callable
    files: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    qs: tuple[int, ...]  # Hermitian curves whose field and points set-up builds
    cycle: tuple[Callable, ...]  # job makers: (rng, points) -> Job
    tail_pct: float  # highest percentile with >= 10 jobs beyond it at the baseline

    def job(self, seed: int, index: int, points: dict) -> Job:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.cycle[index % len(self.cycle)](rng, points)


def run_cli(prog, argv: list[str]) -> tuple[int, str, str]:
    """In-process `sparse-duals ARGV`: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = prog.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input this way
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def expect_exit_0(res: tuple[int, str, str], what: str) -> None:
    rc, _, err = res
    expect(rc == 0, f"{what}: exit {rc}: {err.strip()[-200:]}")


# -- numerical semigroups, by brute force --------------------------------


class NaiveSemigroup:
    """Membership of <gens> by dynamic programming up to min * max, which
    exceeds the Frobenius number; everything above is a member."""

    def __init__(self, gens):
        self.gens = tuple(gens)
        self.limit = min(gens) * max(gens)
        member = [False] * (self.limit + 1)
        member[0] = True
        for n in range(1, self.limit + 1):
            member[n] = any(n >= a and member[n - a] for a in self.gens)
        self.member = member
        self.gaps = [n for n in range(self.limit) if not member[n]]
        self.gap_set = set(self.gaps)
        self.genus = len(self.gaps)
        self.conductor = self.gaps[-1] + 1 if self.gaps else 0

    def __contains__(self, n: int) -> bool:
        return n >= 0 and (n > self.limit or self.member[n])

    def gap_pairs(self, value: int) -> int:
        return sum(1 for a in self.gaps if 2 * a <= value and value - a in self.gap_set)

    def leaders(self, bound: int) -> list[int]:
        return [v for v in range(1, bound + 1) if v in self and self.gap_pairs(v) == 0]

    def divisors(self, value: int) -> list[int]:
        return [y for y in range(value + 1) if y in self and value - y in self]


def three_generators_of_genus(rng, lo: int, hi: int, max_conductor: int):
    """Seeded draw of three generators with lo <= genus <= hi and a bounded
    conductor."""
    while True:
        a = rng.randint(3, 16)
        gens = sorted({a, rng.randint(a + 1, 3 * a), rng.randint(a + 1, 3 * a)})
        if len(gens) != 3 or gcd(*gens) != 1:
            continue
        S = NaiveSemigroup(gens)
        if lo <= S.genus <= hi and S.conductor <= max_conductor:
            return gens, S


def two_generators_of_genus(rng, genus: int):
    """<a, b> has genus (a-1)(b-1)/2; multiplicity 2 is skipped as an outlier."""
    pairs = [
        (a, 2 * genus // (a - 1) + 1)
        for a in range(3, genus)
        if 2 * genus % (a - 1) == 0
        and 2 * genus // (a - 1) + 1 > a
        and gcd(a, 2 * genus // (a - 1) + 1) == 1
    ]
    gens = rng.choice(pairs)
    return list(gens), NaiveSemigroup(gens)


def check_ideal(doc: dict, S: NaiveSemigroup, leader: int, what: str) -> None:
    comp = doc["complement"]
    expect(doc["leader"] == leader == doc["frobenius"], f"{what}: leader/frobenius {doc}")
    expect(comp == S.divisors(leader), f"{what}: complement is not D({leader})")
    expect(leader == 2 * S.genus - 1 + len(comp), f"{what}: frobenius != 2g-1+#complement")
    expect(S.gap_pairs(leader) == 0, f"{what}: G({leader}) != 0")


def semigroup_job(gens, S: NaiveSemigroup, rng) -> Job:
    csv = ",".join(map(str, gens))
    bound = 2 * max(S.conductor, min(gens))
    leaders = S.leaders(bound)
    first, second = rng.sample(leaders, 2)

    def run(prog, tmp):
        shown = run_cli(prog, ["semigroup", "--generators", csv, "--json", str(tmp / "semigroup.json")])
        compared = run_cli(prog, [
            "sparse-ideals", "--generators", csv, "--leader", str(first),
            "--compare", str(second), "--json", str(tmp / "compare.json"),
        ])
        parent = prog.semigroup.NumericalSemigroup(gens)
        ideals = prog.sparse_ideals.enumerate_proper_ideals(parent, ENUMERATE_MAX_COMPLEMENT)
        return shown, compared, tuple((i.complement, i.leader) for i in ideals)

    def check(result, files):
        shown, compared, enumerated = result
        expect_exit_0(shown, "semigroup")
        expect_exit_0(compared, "sparse-ideals")
        doc = json.loads(files["semigroup.json"])
        expect(doc["semigroup"]["gaps"] == S.gaps, "gaps differ from brute force")
        expect(doc["semigroup"]["genus"] == S.genus, "genus differs")
        expect(doc["semigroup"]["conductor"] == S.conductor, "conductor differs")
        expect(doc["bound"] == bound and doc["leaders"] == leaders, "leader set differs")
        ideals = doc["maximum_sparse_ideals"]
        expect(len(ideals) == len(leaders), "one ideal per leader expected")
        for lam, ideal in zip(leaders, ideals):
            check_ideal(ideal, S, lam, f"semigroup ideal {lam}")
        doc = json.loads(files["compare.json"])
        check_ideal(doc["ideal"], S, first, "sparse-ideals --leader")
        check_ideal(doc["compare"], S, second, "sparse-ideals --compare")
        t1, t2 = set(doc["ideal"]["complement"]), set(doc["compare"]["complement"])
        flags = {
            "superset": t2 <= t1,
            "leader_difference": first - second in S,
            "complement_nested": t2 <= t1,
            "size_difference": len(t1) - len(t2) in S,
        }
        flags["agree"] = len(set(flags.values())) == 1
        expect(doc["inclusion"] == flags, f"inclusion report {doc['inclusion']} != {flags}")
        expect(len({c for c, _ in enumerated}) == len(enumerated), "duplicate ideals")
        frobenius = S.conductor - 1
        for comp, lead in enumerated:
            expect(0 < len(comp) <= ENUMERATE_MAX_COMPLEMENT, f"complement size {comp}")
            expect(all(t - s in comp for t in comp for s in range(1, t + 1)
                       if s in S and t - s in S), f"{comp} is not division-closed")
            top = max(frobenius, comp[-1])
            want = top if top == 2 * S.genus - 1 + len(comp) else None
            expect(lead == want, f"leader of {comp}: {lead} != {want}")

    return Job("semigroup", (csv, first, second), run, check, ("semigroup.json", "compare.json"))


def two_gen(genus: int):
    return lambda rng, points: semigroup_job(*two_generators_of_genus(rng, genus), rng)


def three_gen(lo: int, hi: int, max_conductor: int):
    return lambda rng, points: semigroup_job(
        *three_generators_of_genus(rng, lo, hi, max_conductor), rng
    )


# -- Hermitian curves -----------------------------------------------------


def check_wstar(q: int, n: int, wstar, fibre_union: bool, what: str) -> None:
    """|W*| = n, W* in H = <q, q+1> and increasing, max W* <= n + 2g - 1,
    and every pole order below n is in W* (no function with fewer than n
    poles vanishes on n points); for an x-fibre union, W* is the first n
    elements of H \\ (n + H)."""
    g = q * (q - 1) // 2
    H = NaiveSemigroup((q, q + 1))
    wstar = list(wstar)
    expect(len(wstar) == n, f"{what}: |W*| = {len(wstar)} != n = {n}")
    expect(wstar == sorted(set(wstar)), f"{what}: W* not strictly increasing")
    expect(all(w in H for w in wstar), f"{what}: W* leaves <{q}, {q + 1}>")
    expect(wstar[-1] <= n + 2 * g - 1, f"{what}: max W* > n + 2g - 1")
    expect(all(h in wstar for h in range(n) if h in H), f"{what}: a pole order < n is missing")
    if fibre_union:
        closed = [h for h in range(n + 2 * g) if h in H and h - n not in H][:n]
        expect(wstar == closed, f"{what}: fibre union W* is not H \\ (n + H)")
        expect(n + 2 * g - 1 in wstar, f"{what}: fibre union fails the criterion")


def fibres(points) -> list[list[int]]:
    """0-based point indices grouped by x coordinate."""
    by_x: dict[int, list[int]] = {}
    for i, pt in enumerate(points):
        by_x.setdefault(pt.coords()[0], []).append(i)
    return [by_x[x] for x in sorted(by_x)]


def draw(rng, points, n: int, fibre_union: bool) -> list[int]:
    """n random point indices, or the points of n // q random x-fibres."""
    if fibre_union:
        groups = fibres(points)
        return sorted(i for fib in rng.sample(groups, n // len(groups[0])) for i in fib)
    return sorted(rng.sample(range(len(points)), n))


def wstar_job(q: int, n: int, fibre_union: bool):
    def make(rng, points):
        indices = draw(rng, points[q], n, fibre_union)
        chosen = [points[q][i] for i in indices]

        def run(prog, tmp):
            cs = prog.hermitian.compute_wstar(chosen, q)
            return cs.n, cs.wstar

        def check(result, files):
            size, wstar = result
            expect(size == len(chosen), "CodeSequence.n differs from the input size")
            check_wstar(q, len(chosen), wstar, fibre_union, f"q={q} n={len(chosen)}")

        kind = f"wstar-q{q}-{'fibres' if fibre_union else 'random'}"
        return Job(kind, (q, tuple(indices)), run, check)

    return make


class PolyField:
    """GF(p^m) on the program's integer encodings (base-p digits of the
    residue polynomial, constant term first), multiplied by long division
    instead of the program's tables."""

    def __init__(self, p: int, modulus):
        self.p, self.modulus, self.m = p, tuple(modulus), len(modulus) - 1

    def digits(self, a: int) -> list[int]:
        return [(a // self.p**k) % self.p for k in range(self.m)]

    def encode(self, digits) -> int:
        return sum(d * self.p**k for k, d in enumerate(digits))

    def add(self, a: int, b: int) -> int:
        return self.encode((x + y) % self.p for x, y in zip(self.digits(a), self.digits(b)))

    def mul(self, a: int, b: int) -> int:
        prod = [0] * (2 * self.m - 1)
        for i, x in enumerate(self.digits(a)):
            for j, y in enumerate(self.digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        for top in range(len(prod) - 1, self.m - 1, -1):
            c = prod[top]
            for k, coeff in enumerate(self.modulus):
                prod[top - self.m + k] = (prod[top - self.m + k] - c * coeff) % self.p
        return self.encode(prod[: self.m])

    def pow(self, a: int, k: int) -> int:
        out = 1
        for _ in range(k):
            out = self.mul(out, a)
        return out


def check_isometry_vector(q: int, field: PolyField, coords, wstar, vector) -> None:
    """x * C^i = dual(C^(n-i)) for all i, as the bilinear conditions
    sum_k x_k r_a[k] r_b[k] = 0 for a + b <= n, with r_a the monomial of
    pole order W*[a] evaluated at the points."""
    n = len(coords)
    expect(len(vector) == n and all(0 < v < q * q for v in vector), "vector entries")
    for x, y in coords:
        expect(field.pow(x, q + 1) == field.add(field.pow(y, q), y), "point off the curve")
    rows = []
    for w in wstar:
        b = w % q
        a = (w - b * (q + 1)) // q
        rows.append([field.mul(field.pow(x, a), field.pow(y, b)) for x, y in coords])
    for i in range(n):
        for j in range(n - 1 - i):
            acc = 0
            for k in range(n):
                acc = field.add(acc, field.mul(vector[k], field.mul(rows[i][k], rows[j][k])))
            expect(acc == 0, f"bilinear condition ({i + 1}, {j + 1}) fails")


def isometry_job(q: int, n: int, fibre_union: bool):
    def make(rng, points):
        indices = [i + 1 for i in draw(rng, points[q], n, fibre_union)]
        field = points[q][0].x.field
        poly_field = PolyField(field.p, field.modulus)
        coords = [points[q][i - 1].coords() for i in indices]
        argv = ["isometry", "--q", str(q), "--points", ",".join(map(str, indices))]

        def run(prog, tmp):
            return run_cli(prog, argv)

        def check(result, files):
            expect_exit_0(result, "isometry")
            lines = result[1].splitlines()
            expect(len(lines) == 4, f"isometry printed {len(lines)} lines")
            g = q * (q - 1) // 2
            expect(lines[0].endswith(f": n={n}, genus={g}"), f"header {lines[0]!r}")
            wstar = [int(w) for w in lines[1].removeprefix("W*: ").split()]
            check_wstar(q, n, wstar, fibre_union, f"isometry q={q} n={n}")
            criterion = n + 2 * g - 1 in wstar
            expect(lines[2].endswith(str(criterion).lower()), f"criterion line {lines[2]!r}")
            if lines[3] == "isometry vector: none":
                expect(not criterion, "criterion holds but no isometry vector was found")
            else:
                vector = [int(v) for v in lines[3].split(": ")[1].split(",")]
                check_isometry_vector(q, poly_field, coords, wstar, vector)

        kind = f"isometry-q{q}-n{n}{'-fibres' if fibre_union else ''}"
        return Job(kind, tuple(argv), run, check)

    return make


def q2_verify(rng, points) -> Job:
    def check(result, files):
        expect_exit_0(result, "verify")
        lines = result[1].splitlines()
        for name in ("dual-complement-ideal", "inheritance", "criterion-oracle"):
            expect(any(line.startswith(f"PASS {name}:") for line in lines), f"no PASS {name}")
        expect(lines[-1] == "result: PASS (3 passed, 0 failed, 0 skipped)", lines[-1])

    argv = ["verify", "--q", "2"]
    return Job("verify-q2", tuple(argv), lambda prog, tmp: run_cli(prog, argv), check)


def expected_q2_hierarchy(min_size: int) -> tuple[list[str], set[tuple[str, str]]]:
    frozen = json.loads(Q2_HIERARCHY.read_text(encoding="utf-8"))
    nodes = [s for s in frozen["nodes"] if len(s) >= min_size]
    edges = {(c, p) for c, p in frozen["edges"] if len(c) >= min_size}
    return nodes, edges


def q2_hierarchy(rng, points) -> Job:
    min_size = rng.randint(2, 5)

    def run(prog, tmp):
        return run_cli(prog, [
            "hierarchy", "--q", "2", "--min-size", str(min_size),
            "--dot", str(tmp / "hierarchy.dot"), "--json", str(tmp / "hierarchy.json"),
        ])

    def check(result, files):
        expect_exit_0(result, "hierarchy")
        nodes, edges = expected_q2_hierarchy(min_size)
        expect(f"qualifying subsets (size >= {min_size}): {len(nodes)}" in result[1],
               "node count line")
        graph = json.loads(files["hierarchy.json"])
        labels = ["".join(map(str, node["set"])) for node in graph["nodes"]]
        expect(sorted(labels) == sorted(nodes), "hierarchy nodes differ from the frozen q=2 graph")
        expect(all(node["left_of_line"] == (len(node["set"]) > 4) for node in graph["nodes"]),
               "left_of_line flags")
        got = {(labels[c], labels[p]) for c, p in graph["edges"]}
        expect(got == edges and len(graph["edges"]) == len(edges), "hierarchy edges differ")
        dot_edges = {
            tuple(part.strip(' ";') for part in line.split("->"))
            for line in files["hierarchy.dot"].decode().splitlines() if "->" in line
        }
        expect(dot_edges == edges, "DOT edges differ")

    files = ("hierarchy.dot", "hierarchy.json")
    return Job(f"hierarchy-q2-m{min_size}", (min_size,), run, check, files)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "q2-sweep",
            (2,),
            # Two verify jobs per hierarchy job keep the median inside the verify class.
            (q2_verify, q2_hierarchy, q2_verify),
            95.0,
        ),
        Workload(
            "wstar-large",
            (5, 7, 8, 16),
            # Four cheap jobs, four around the median, three in the tail.
            (
                wstar_job(7, 150, False), wstar_job(5, 100, False), wstar_job(8, 200, False),
                wstar_job(7, 150, False), wstar_job(16, 64, True), wstar_job(8, 232, True),
                wstar_job(7, 150, False), wstar_job(5, 100, True), wstar_job(7, 200, False),
                wstar_job(7, 150, False), wstar_job(7, 105, True),
            ),
            90.0,
        ),
        Workload(
            "oracle-q3",
            (3, 4),
            # Four cheap jobs, four around the median, three in the tail.
            (
                isometry_job(3, 7, False), isometry_job(3, 6, False), isometry_job(3, 5, False),
                isometry_job(3, 6, False), isometry_job(3, 7, False), isometry_job(4, 4, False),
                isometry_job(3, 6, False), isometry_job(3, 6, True), isometry_job(3, 7, False),
                isometry_job(3, 6, False), isometry_job(4, 4, True),
            ),
            95.0,
        ),
        Workload(
            "semigroup-leaders",
            (),
            # Four cheap jobs, four around the median, four in the tail.
            (
                two_gen(42), three_gen(20, 30, 60), two_gen(90), two_gen(42),
                two_gen(30), three_gen(55, 70, 130), two_gen(42), three_gen(20, 30, 60),
                two_gen(90), two_gen(42), two_gen(30), two_gen(90),
            ),
            90.0,
        ),
    )
}
