"""Command-line front end: reproducible semigroup and hierarchy reports.

Exit codes: 0 success; 1 verification failure, and nothing else; 2 usage
error, including an output file that cannot be written, a refused
request and `error: out of memory`; 3 any other exception, an internal
error, after its traceback; 141 (128 + SIGPIPE), with nothing on stderr,
when the reader of stdout closes it early. Identical invocations produce
byte-identical output files.

`main(argv)` may be called any number of times in one process. The
argparse parser is built on the first call and reused by every later one;
each call parses into a fresh namespace, so no option carries over.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys
from itertools import combinations
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Optional

from .errors import PreconditionViolated, SparseDualsError, TooManySubsets
from .gf import FieldElement
from .hermitian import (
    CurvePoint,
    curve_genus,
    hermitian_coords,
    hermitian_field,
    hermitian_points,
    isometry_dual_criterion,
    isometry_sequence,
    weierstrass_semigroup,
    wstar_and_vectors,
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
from .sparse_ideals import (
    division_escape,
    inclusion_report,
    maximum_sparse_from_leader,
    maximum_sparse_ideals,
)


# Largest number of complement elements a semigroup report may hold. A
# maximum sparse ideal with leader lam has at most lam + 1 of them, so the
# leaders up to a bound hold at most bound * (bound + 1) / 2 in total.
MAX_REPORT_ELEMENTS = 10**7

# Largest point set `isometry` hands to its one column walk: the full
# q = 8 set, about 1 s (0.85-1.0 s in-process on a 2-vCPU x86-64 host
# under CPython 3.11). `hierarchy --sample N` sums the divisor classes of
# N draws of up to q^3 points at each of q^3 sizes; N q^6 may not exceed
# its square, the work of `--q 8 --sample 1` (0.22 s as a process there).
MAX_ORACLE_POINTS = 512

# Largest curve `hierarchy` and `verify` run on without --sample: q = 2.
# At q = 3 `verify` would compute W* for each of the 2^27 subsets above
# the boundary, and `build_hierarchy` compares its 32 767 nodes pairwise.
MAX_EXHAUSTIVE_POINTS = 8


def _refuse_exhaustive(q: int, hint: str = "") -> None:
    if q**3 > MAX_EXHAUSTIVE_POINTS:
        hermitian_field(q)  # an unsupported q is reported as such first
        raise TooManySubsets(f"refusing to enumerate 2^{q**3} subsets for q={q}{hint}")


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


def _csv(indices) -> str:
    """Point indices as `--points` takes them."""
    return ",".join(map(str, indices))


def _descriptor(path: str) -> Optional[int]:
    """N when `path` is, or links to, /dev/fd/N or /proc/self/fd/N: a
    descriptor this process has open, as /dev/stdout and /dev/stderr link
    to 1 and 2. None for any other path."""
    for _ in range(40):  # at most as many links as the kernel follows
        head, name = os.path.split(path)
        if name.isdigit() and os.path.realpath(head) in (
            "/dev/fd", os.path.realpath("/proc/self/fd")
        ):
            return int(name)
        if not os.path.islink(path):
            return None
        path = os.path.join(head, os.readlink(path))
    return None


def _write(path: str, emit: Callable[[Callable[[str], object]], object]) -> None:
    """Write to `path` the text that `emit(write)` passes to `write`, in
    the pieces it passes, so a long output is never held whole.

    The pieces go to a sibling `.part` file that replaces the target once
    it is whole, so a run that fails part-way leaves the target as it was.
    A symbolic link is followed, and a target that is not a regular file
    (a pipe or a device) is written in place. A path that reaches a
    descriptor already open in this process (`/dev/stdout`, `/dev/stderr`,
    `/dev/fd/N`) is written through that descriptor, after whatever was
    printed before it, whether it is a pipe, a terminal or a file the
    shell opened.
    """
    fd = _descriptor(path)
    if fd is not None:
        sys.stdout.flush()
        sys.stderr.flush()
        with open(os.dup(fd), "w", encoding="utf-8") as out:
            emit(out.write)
        return
    if os.path.islink(path):
        path = os.path.realpath(path)
    try:
        mode: Optional[int] = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    in_place = mode is not None and not stat.S_ISREG(mode)
    part = path if in_place else path + ".part"
    try:
        with open(part, "w", encoding="utf-8") as out:
            emit(out.write)
        if not in_place:
            if mode is not None:  # keep the target's permission bits
                os.chmod(part, stat.S_IMODE(mode))
            os.replace(part, path)
    except BaseException:
        if not in_place:
            Path(part).unlink(missing_ok=True)
        raise


# Ints per written piece of a long set or JSON list: no piece, and no list
# of str objects, grows with the set.
_SLICE = 1 << 12


@functools.cache  # built on first use, not at import
def _decimals() -> dict[int, str]:
    """`str(n)` for 0 <= n <= b, where b is the largest bound `semigroup`
    accepts, b(b + 1)/2 <= MAX_REPORT_ELEMENTS (b = 4471): every gap,
    leader and complement element of a report it lets through."""
    top = (math.isqrt(8 * MAX_REPORT_ELEMENTS + 1) - 1) // 2
    return {n: str(n) for n in range(top + 1)}


def _join(sep: str, values) -> str:
    """`sep.join(map(str, values))` for plain ints, with each text read
    from `_decimals`; a slice holding any int outside it, negative or too
    large, falls back to `str` as a whole."""
    try:
        return sep.join(map(_decimals().__getitem__, values))
    except KeyError:
        return sep.join(map(str, values))


def _print_set(prefix: str, values, suffix: str = "") -> None:
    """`print(prefix + "{" + ", ".join(map(str, values)) + "}" + suffix)`
    for a sequence of plain ints, written to stdout a slice of the set at a
    time, so a long line is never held whole. Each slice is joined by
    `_join`, from the decimal table."""
    write = sys.stdout.write
    write(prefix + "{")
    for k in range(0, len(values), _SLICE):
        write((", " if k else "") + _join(", ", values[k:k + _SLICE]))
    write("}" + suffix + "\n")


class _Joined(str):
    """A list of plain ints as its `_join(", ", ...)` text: `semigroup` joins
    each complement once, for its line and its JSON list."""


def _piece(value, indent: str) -> Optional[str]:
    """The JSON text of a plain int or a `_Joined` list at `indent`, else None."""
    if type(value) is int:
        return str(value)
    if type(value) is not _Joined:
        return None
    inner = "\n" + indent + "  "
    return "[" + inner + value.replace(", ", "," + inner) + "\n" + indent + "]" if value else "[]"


def _report_json(value, write: Callable[[str], object], indent: str = "") -> None:
    """Pass the text of `json.dumps(value, indent=2, sort_keys=True)`, byte
    for byte, to `write` in pieces, a `_Joined` string as the int list it
    stands for. A list of plain ints is joined by `_join` (`str.join` over
    the decimal table) instead of encoded item by item, a slice at a time,
    so no piece and no list of str objects grows with it. A plain int or a
    `_Joined` list, laid out by one `str.replace`, is one piece (`_piece`),
    in a dict together with its key.

    Plain ints, `_Joined` lists, non-empty lists and tuples, and non-empty
    dicts with str keys are laid out here; a key is quoted as `json.dumps`
    quotes it, and any other value, bools and other int subclasses
    included, goes to `json.dumps`.
    """
    text = _piece(value, indent)
    if text is not None:
        write(text)
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)) and value:
        write("[\n" + inner)
        if set(map(type, value)) == {int}:
            for k in range(0, len(value), _SLICE):
                write((sep if k else "") + _join(sep, value[k:k + _SLICE]))
        else:
            for k, item in enumerate(value):
                if k:
                    write(sep)
                _report_json(item, write, inner)
        write(f"\n{indent}]")
    elif isinstance(value, dict) and value and set(map(type, value)) == {str}:
        write("{\n" + inner)
        for k, key in enumerate(sorted(value)):
            text = _piece(value[key], inner)
            write(f"{sep if k else ''}{encode_basestring_ascii(key)}: " + (text or ""))
            if text is None:
                _report_json(value[key], write, inner)
        write(f"\n{indent}}}")
    elif isinstance(value, (list, tuple, dict)):  # empty, or keys that are not all str
        write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent))
    else:
        write(json.dumps(value))  # a scalar: the same text with or without indent


def _json_file(value) -> Callable[[Callable[[str], object]], None]:
    """The `emit` of `_write` for a JSON report file: the pieces of
    `json.dumps(value, indent=2, sort_keys=True)` from `_report_json`, and
    a newline."""
    def emit(write: Callable[[str], object]) -> None:
        _report_json(value, write)
        write("\n")
    return emit


def cmd_semigroup(args: argparse.Namespace) -> int:
    """Print S's gaps, leaders and maximum sparse ideals up to the bound;
    each complement is joined once, for its line and its --json list."""
    bound = args.bound
    if bound is None:
        conductor = semigroup_conductor(args.generators)
        bound = 2 * max(conductor, min(args.generators))
    _check_report_size(bound * (bound + 1) // 2, f"--bound {bound}")  # before the build
    S = NumericalSemigroup(args.generators)
    if bound < S.conductor:
        raise ValueError(f"--bound must be at least the conductor {S.conductor}")
    ideals = maximum_sparse_ideals(S, bound)
    leaders = [ideal.complement[-1] for ideal in ideals]  # lam is the top of D(lam)

    print(f"semigroup generated by {', '.join(map(str, S.generators))}")
    _print_set("gaps: ", S.gaps)
    print(f"genus: {S.genus}")
    print(f"conductor: {S.conductor}")
    print(f"leader set (0 < element <= {bound}): "
          + (" ".join(map(str, leaders)) if leaders else "(empty)"))
    print(f"maximum sparse ideals with leader <= {bound}:")
    write, complements = sys.stdout.write, []
    for lam, ideal in zip(leaders, ideals):  # lam is both leader and frobenius
        text = _join(", ", ideal.complement)
        write(f"  leader {lam}: complement {{{text}}}, frobenius {lam}\n")
        if args.json:
            complements.append(_Joined(text))
    if args.json:
        gens = _Joined(_join(", ", S.generators))
        payload = {
            "semigroup": S.to_json(),
            "bound": bound,
            "leaders": leaders,
            "maximum_sparse_ideals": [  # `SemigroupIdeal.to_json`, with no list copied
                {"complement": text, "frobenius": lam, "leader": lam, "parent_generators": gens}
                for lam, text in zip(leaders, complements)],
        }
        _write(args.json, _json_file(payload))
    return 0


def cmd_sparse_ideals(args: argparse.Namespace) -> int:
    for flag, value in (("--leader", args.leader), ("--compare", args.compare)):
        if value is not None:
            if value < 1:
                raise ValueError(
                    f"{flag} must be a positive element of the semigroup, got {value}"
                )
            _check_report_size(value + 1, f"{flag} {value}")
    S = NumericalSemigroup(args.generators)
    ideal = maximum_sparse_from_leader(S, S.index_of(args.leader))
    if args.compare is not None:  # built before any output, as it may be refused
        other = maximum_sparse_from_leader(S, S.index_of(args.compare))
        report = inclusion_report(ideal, other)
    print(f"semigroup generated by {', '.join(map(str, S.generators))}")
    print(f"maximum sparse ideal with leader {ideal.leader}:")
    _print_set("  complement: ", ideal.complement)
    print(f"  frobenius: {ideal.frobenius}")
    print(f"  sparsity bound 2g-1+#complement: {2 * S.genus - 1 + len(ideal.complement)}")
    if args.compare is not None:
        _print_set(f"comparison against leader {other.leader} (complement ",
                   other.complement, "):")
        print(f"  second contains first:       {str(report.superset).lower()}")
        print(f"  leader difference in S:      {str(report.leader_difference).lower()}")
        print(f"  complements nested:          {str(report.complement_nested).lower()}")
        print(f"  complement-size diff in S:   {str(report.size_difference).lower()}")
        print(f"  all four agree:              {str(report.agree).lower()}")
    if args.json:  # only then: `to_json` copies each complement into a list
        payload = {"ideal": ideal.to_json()}
        if args.compare is not None:
            payload["compare"] = other.to_json()
            payload["inclusion"] = report.to_json()
        _write(args.json, _json_file(payload))
    return 0


def cmd_hierarchy(args: argparse.Namespace) -> int:
    q = args.q
    if args.sample is not None:
        if args.sample < 1:
            raise ValueError(f"--sample must be at least 1, got {args.sample}")
        if args.sample * q**6 > MAX_ORACLE_POINTS**2:
            hermitian_field(q)  # an unsupported q is reported as such first
            raise PreconditionViolated(
                f"hierarchy --sample {args.sample} on {q ** 3} points exceeds the limit of"
                f" {MAX_ORACLE_POINTS} points at --sample 1; --sample x points^2 must not"
                f" exceed {MAX_ORACLE_POINTS ** 2}"
            )
        subsets = sample_qualifying_subsets(q, args.min_size, args.sample, args.seed)
        mode = f"sampled ({args.sample} per size, seed {args.seed})"
    else:
        _refuse_exhaustive(q, "; use --sample N (and --seed) instead")
        subsets = qualifying_subsets(q, args.min_size)
        mode = "exhaustive"
    g = curve_genus(q)
    W = weierstrass_semigroup(q)
    boundary = 2 * g + 2
    graph = build_hierarchy(subsets, boundary=boundary)
    report = verify_inheritance(graph, W)

    sizes: dict[int, int] = {}
    for node in graph.nodes:
        sizes[len(node)] = sizes.get(len(node), 0) + 1
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
        _write(args.dot, lambda write: write(export_dot(graph)))
        print(f"wrote DOT to {args.dot}")
    if args.json:
        _write(args.json, _json_file(graph_to_json(graph)))
        print(f"wrote JSON to {args.json}")
    return 0 if report.ok else 1


def cmd_verify(args: argparse.Namespace) -> int:
    q = args.q
    _refuse_exhaustive(q)
    points = hermitian_points(q)
    n = len(points)
    g = curve_genus(q)
    W = weierstrass_semigroup(q)
    boundary = 2 * g + 2
    results: list[tuple[str, str, str]] = []

    big_subsets = [
        combo
        for size in range(n, boundary, -1)
        for combo in combinations(range(1, n + 1), size)
    ]
    # W* and the oracle's (W*, vector) of each subset, on one walk
    walked = wstar_and_vectors(points, q, big_subsets)
    wstars = [wstar for wstar, _ in walked]
    qualifies = [isometry_dual_criterion(w, q) for w in wstars]
    ideal = {w: division_escape(W, w) is None for w in set(wstars)}  # W \ W* an ideal of W
    bad = [c for c, w in zip(big_subsets, wstars) if not ideal[w]]
    results.append(
        (
            "dual-complement-ideal",
            "PASS" if not bad else "FAIL",
            f"W \\ W* is an ideal of W for {len(big_subsets) - len(bad)}"
            f"/{len(big_subsets)} subsets with n > {boundary}"
            + (f"; first failing subset {_csv(bad[0])}" if bad else ""),
        )
    )

    # Above the boundary the criterion is exact: the sets it accepts, read
    # off the walk's W*, are all the nodes the inheritance check asserts.
    graph = build_hierarchy([c for c, ok in zip(big_subsets, qualifies) if ok], boundary)
    report = verify_inheritance(graph, W)
    witness = ""
    if report.violations:
        child, parent = report.violations[0]
        witness = f"; first violation {_csv(child)} < {_csv(parent)}"
    results.append(
        (
            "inheritance",
            "PASS" if report.ok else "FAIL",
            f"{len(report.checked)} inclusion pairs above the boundary,"
            f" {len(report.violations)} violations{witness}",
        )
    )

    # The criterion against the vector, and the two walks' W* against each other.
    mismatches = [
        combo
        for combo, ok, (wstar, (pivots, vector)) in zip(big_subsets, qualifies, walked)
        if pivots != wstar or ok != (vector is not None)
    ]
    results.append(
        (
            "criterion-oracle",
            "PASS" if not mismatches else "FAIL",
            f"criterion matches isometry-vector solve on"
            f" {len(big_subsets) - len(mismatches)}/{len(big_subsets)} subsets"
            + (f"; first failing subset {_csv(mismatches[0])}" if mismatches else ""),
        )
    )

    print(f"verify q={q}: n={n}, genus={g}, boundary={boundary}")
    for name, status, detail in results:
        print(f"{status} {name}: {detail}")
    failed = sum(status == "FAIL" for _, status, _ in results)
    print(f"result: {'FAIL' if failed else 'PASS'} ({len(results) - failed} passed,"
          f" {failed} failed, 0 skipped)")  # a fixed tail: callers match the whole line
    return 1 if failed else 0


def cmd_isometry(args: argparse.Namespace) -> int:
    q = args.q
    field = hermitian_field(q)  # held while the command runs: built at most once
    coords = hermitian_coords(q)
    indices = args.points if args.points is not None else list(range(1, len(coords) + 1))
    for i in indices:
        if not 1 <= i <= len(coords):
            raise ValueError(f"point index {i} outside 1..{len(coords)}")
    if len(indices) > MAX_ORACLE_POINTS:
        raise PreconditionViolated(
            f"isometry on {len(indices)} points exceeds the limit of"
            f" {MAX_ORACLE_POINTS}; choose a subset with --points"
        )
    points = [CurvePoint(FieldElement(field, x), FieldElement(field, y))
              for x, y in (coords[i - 1] for i in indices)]
    cs, vector = isometry_sequence(points, q)
    print(f"q={q} subset {_csv(indices)}: n={cs.n}, genus={cs.genus}")
    print(f"W*: {' '.join(map(str, cs.wstar))}")
    print(f"criterion (n+2g-1 = {cs.n + 2 * cs.genus - 1} in W*): "
          f"{str(isometry_dual_criterion(cs.wstar, q)).lower()}")
    if vector is None:
        print("isometry vector: none")
    else:
        print(f"isometry vector (encodings): {','.join(map(str, vector))}")
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
    printing the usage to stderr. Any other exception is reported on
    stderr and turned into its exit code (see the module docstring).
    """
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # the reader of stdout is gone: end as SIGPIPE would
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # so the interpreter's final flush has somewhere to go
        os.close(devnull)
        return 141
    except (SparseDualsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2
    except Exception:  # an internal error must not read as a failed verification
        import traceback  # only here: importing it costs every run about 0.4 MB

        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
