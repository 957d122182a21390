"""Command-line front end: reproducible semigroup and hierarchy reports.

Exit codes: 0 success, 1 verification failure, 2 usage error (including
an output file that cannot be written). Identical invocations produce
byte-identical output files.

`main(argv)` may be called any number of times in one process. The
argparse parser is built on the first call and reused by every later one;
each call parses into a fresh namespace, so no option carries over.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import combinations
from pathlib import Path

from .errors import PreconditionViolated, SparseDualsError, TooManySubsets
from .hermitian import (
    compute_wstar,
    curve_genus,
    find_isometry_vector,
    hermitian_points,
    ideal_complement_check,
    isometry_dual_criterion,
    weierstrass_semigroup,
)
from .puncturing import (
    build_hierarchy,
    export_dot,
    graph_to_json,
    qualifying_subsets,
    sample_qualifying_subsets,
    verify_inheritance,
)
from .semigroup import NumericalSemigroup, semigroup_conductor
from .sparse_ideals import inclusion_report, leader_set, maximum_sparse_from_leader


# Largest number of complement elements a semigroup report may hold. A
# maximum sparse ideal with leader lam has at most lam + 1 of them, so the
# leaders up to a bound hold at most bound * (bound + 1) / 2 in total.
MAX_REPORT_ELEMENTS = 10**7


def _check_report_size(elements: int, what: str) -> None:
    if elements > MAX_REPORT_ELEMENTS:
        raise PreconditionViolated(
            f"{what} would hold up to {elements} complement elements"
            f" (limit {MAX_REPORT_ELEMENTS}); refusing"
        )


def _int_csv(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text}") from exc


def _write(path: str, content: str) -> None:
    Path(path).write_text(content, encoding="utf-8")


def _format_set(values) -> str:
    return "{" + ", ".join(str(v) for v in values) + "}"


def cmd_semigroup(args: argparse.Namespace) -> int:
    bound = args.bound
    if bound is None:
        conductor = semigroup_conductor(args.generators)
        bound = 2 * max(conductor, min(args.generators))
    _check_report_size(bound * (bound + 1) // 2, f"--bound {bound}")  # before the build
    S = NumericalSemigroup(args.generators)
    if bound < S.conductor:
        raise ValueError(f"--bound must be at least the conductor {S.conductor}")
    leaders = leader_set(S, bound)
    ideals = [maximum_sparse_from_leader(S, S.index_of(lam)) for lam in leaders]

    out = [
        f"semigroup generated by {', '.join(map(str, S.generators))}",
        f"gaps: {_format_set(S.gaps) if S.gaps else '{}'}",
        f"genus: {S.genus}",
        f"conductor: {S.conductor}",
        f"leader set (0 < element <= {bound}): "
        + (" ".join(map(str, leaders)) if leaders else "(empty)"),
        f"maximum sparse ideals with leader <= {bound}:",
    ]
    for ideal in ideals:
        out.append(
            f"  leader {ideal.leader}: complement {_format_set(ideal.complement)},"
            f" frobenius {ideal.frobenius}"
        )
    print("\n".join(out))
    if args.json:
        payload = {
            "semigroup": S.to_json(),
            "bound": bound,
            "leaders": list(leaders),
            "maximum_sparse_ideals": [ideal.to_json() for ideal in ideals],
        }
        _write(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_sparse_ideals(args: argparse.Namespace) -> int:
    for flag, value in (("--leader", args.leader), ("--compare", args.compare)):
        if value is not None:
            _check_report_size(value + 1, f"{flag} {value}")
    S = NumericalSemigroup(args.generators)
    ideal = maximum_sparse_from_leader(S, S.index_of(args.leader))
    out = [
        f"semigroup generated by {', '.join(map(str, S.generators))}",
        f"maximum sparse ideal with leader {ideal.leader}:",
        f"  complement: {_format_set(ideal.complement)}",
        f"  frobenius: {ideal.frobenius}",
        f"  sparsity bound 2g-1+#complement: "
        f"{2 * S.genus - 1 + len(ideal.complement)}",
    ]
    payload = {"ideal": ideal.to_json()}
    if args.compare is not None:
        other = maximum_sparse_from_leader(S, S.index_of(args.compare))
        report = inclusion_report(ideal, other)
        out += [
            f"comparison against leader {other.leader}"
            f" (complement {_format_set(other.complement)}):",
            f"  second contains first:       {str(report.superset).lower()}",
            f"  leader difference in S:      {str(report.leader_difference).lower()}",
            f"  complements nested:          {str(report.complement_nested).lower()}",
            f"  complement-size diff in S:   {str(report.size_difference).lower()}",
            f"  all four agree:              {str(report.agree).lower()}",
        ]
        payload["compare"] = other.to_json()
        payload["inclusion"] = report.to_json()
    print("\n".join(out))
    if args.json:
        _write(args.json, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    q = args.q
    g = curve_genus(q)
    W = weierstrass_semigroup(q)
    boundary = 2 * g + 2
    if args.sample is not None:
        if args.sample < 1:
            raise ValueError(f"--sample must be at least 1, got {args.sample}")
        subsets = sample_qualifying_subsets(q, args.min_size, args.sample, args.seed)
        mode = f"sampled ({args.sample} per size, seed {args.seed})"
    else:
        try:
            subsets = qualifying_subsets(q, args.min_size)
        except TooManySubsets as exc:
            raise TooManySubsets(f"{exc}; use --sample N (and --seed) instead") from exc
        mode = "exhaustive"
    graph = build_hierarchy(subsets, boundary=boundary)
    report = verify_inheritance(graph, W, g)

    sizes: dict[int, int] = {}
    for node in graph.nodes:
        sizes[node.size] = sizes.get(node.size, 0) + 1
    out = [
        f"q={q}: {q ** 3} points, genus {g}, boundary {boundary}, {mode}",
        f"qualifying subsets (size >= {args.min_size}): {len(graph.nodes)}",
    ]
    for size in sorted(sizes, reverse=True):
        out.append(f"  size {size}: {sizes[size]}")
    gap = f", smallest cardinality gap {report.min_edge_gap}" if graph.edges else ""
    out.append(f"covering edges: {len(graph.edges)}{gap}")
    out.append(
        f"inheritance pairs with smaller side > {boundary}: {len(report.checked)},"
        f" violations: {len(report.violations)}"
    )
    if report.boundary_pairs:
        out.append(f"pairs at the boundary (not asserted): {len(report.boundary_pairs)}")
    for child, parent in report.violations:
        out.append(f"  VIOLATION: {child} < {parent}")
    print("\n".join(out))
    if args.dot:
        _write(args.dot, export_dot(graph))
        print(f"wrote DOT to {args.dot}")
    if args.json:
        _write(args.json, json.dumps(graph_to_json(graph), indent=2, sort_keys=True) + "\n")
        print(f"wrote JSON to {args.json}")
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    q = args.q
    points = hermitian_points(q)
    n = len(points)
    g = curve_genus(q)
    W = weierstrass_semigroup(q)
    boundary = 2 * g + 2
    results: list[tuple[str, str, str]] = []

    subsets = qualifying_subsets(q, min_size=2)
    big_subsets = [
        combo
        for size in range(n, boundary, -1)
        for combo in combinations(range(1, n + 1), size)
    ]
    sequences = {
        combo: compute_wstar([points[i - 1] for i in combo], q) for combo in big_subsets
    }

    bad = [c for c, cs in sequences.items() if not ideal_complement_check(cs, W)]
    results.append(
        (
            "dual-complement-ideal",
            "PASS" if not bad else "FAIL",
            f"W \\ W* is an ideal of W for {len(big_subsets) - len(bad)}"
            f"/{len(big_subsets)} subsets with n > {boundary}",
        )
    )

    graph = build_hierarchy(subsets, boundary=boundary)
    report = verify_inheritance(graph, W, g)
    results.append(
        (
            "inheritance",
            "PASS" if report.ok else "FAIL",
            f"{len(report.checked)} inclusion pairs above the boundary,"
            f" {len(report.violations)} violations",
        )
    )

    if args.skip_oracle:
        results.append(("criterion-oracle", "SKIP", "disabled by --skip-oracle"))
    else:
        mismatches = []
        for combo, cs in sequences.items():
            criterion = isometry_dual_criterion(cs)
            vector = find_isometry_vector(cs)
            if criterion != (vector is not None):
                mismatches.append(combo)
        results.append(
            (
                "criterion-oracle",
                "PASS" if not mismatches else "FAIL",
                f"criterion matches isometry-vector solve on"
                f" {len(big_subsets) - len(mismatches)}/{len(big_subsets)} subsets",
            )
        )

    print(f"verify q={q}: n={n}, genus={g}, boundary={boundary}")
    for name, status, detail in results:
        print(f"{status} {name}: {detail}")
    failed = [r for r in results if r[1] == "FAIL"]
    passed = [r for r in results if r[1] == "PASS"]
    print(f"result: {'FAIL' if failed else 'PASS'} ({len(passed)} passed,"
          f" {len(failed)} failed, {len(results) - len(passed) - len(failed)} skipped)")
    return 1 if failed else 0


def cmd_isometry(args: argparse.Namespace) -> int:
    q = args.q
    points = hermitian_points(q)
    indices = args.points if args.points is not None else list(range(1, len(points) + 1))
    for i in indices:
        if not 1 <= i <= len(points):
            raise ValueError(f"point index {i} outside 1..{len(points)}")
    cs = compute_wstar([points[i - 1] for i in indices], q)
    vector = find_isometry_vector(cs)
    print(f"q={q} subset {','.join(map(str, indices))}: n={cs.n}, genus={cs.genus}")
    print(f"W*: {' '.join(map(str, cs.wstar))}")
    print(f"criterion (n+2g-1 = {cs.n + 2 * cs.genus - 1} in W*): "
          f"{str(isometry_dual_criterion(cs)).lower()}")
    if vector is None:
        print("isometry vector: none")
    else:
        print(f"isometry vector (encodings): {','.join(str(e.value) for e in vector)}")
    return 0


@functools.cache  # built on the first main call, not at import
def build_parser() -> argparse.ArgumentParser:
    """The `sparse-duals` parser. Every call returns the same instance,
    shared by all `main` calls, so callers must not modify it."""
    parser = argparse.ArgumentParser(
        prog="sparse-duals",
        description="Maximum sparse ideals and isometry-dual puncturing of "
        "Hermitian one-point AG codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="gaps, leaders and maximum sparse ideals")
    p.add_argument("--generators", type=_int_csv, required=True,
                   help="comma-separated positive generators, gcd 1")
    p.add_argument("--bound", type=int, default=None,
                   help="report leaders up to this value (default: 2*conductor)")
    p.add_argument("--json", default=None, help="write a JSON report to this path")
    p.set_defaults(func=cmd_semigroup)

    p = sub.add_parser("sparse-ideals", help="inspect and compare maximum sparse ideals")
    p.add_argument("--generators", type=_int_csv, required=True)
    p.add_argument("--leader", type=int, required=True,
                   help="semigroup element leading the ideal (a value, not an index)")
    p.add_argument("--compare", type=int, default=None,
                   help="second leader; prints the four-way inclusion report")
    p.add_argument("--json", default=None)
    p.set_defaults(func=cmd_sparse_ideals)

    p = sub.add_parser("hierarchy", help="qualifying subsets and the covering graph")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--min-size", type=int, default=2)
    p.add_argument("--dot", default=None, help="write DOT to this path")
    p.add_argument("--json", default=None, help="write the graph JSON to this path")
    p.add_argument("--sample", type=int, default=None,
                   help="random subsets per size instead of exhaustive enumeration")
    p.add_argument("--seed", type=int, default=0, help="seed for --sample")
    p.set_defaults(func=cmd_hierarchy)

    p = sub.add_parser("verify", help="run the property suite; exit 0 iff all pass")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--skip-oracle", action="store_true",
                   help="skip the isometry-vector cross-check")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("isometry", help="solve for an isometry vector of a point subset")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--points", type=_int_csv, default=None,
                   help="1-based point indices (default: all points)")
    p.set_defaults(func=cmd_isometry)
    return parser


def main(argv=None) -> int:
    """Run one `sparse-duals` command and return its exit code.

    May be called repeatedly in one process; later calls reuse the parser
    built by the first. argparse errors raise `SystemExit(2)` after
    printing the usage to stderr.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SparseDualsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
