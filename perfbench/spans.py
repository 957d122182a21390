"""Spans and work counters recorded around calls into the program's layers.

Tracing wraps public functions from outside, in every module that binds
them by name (compute_wstar, for example, is bound in hermitian,
puncturing, cli and the package), plus the constructors that count
builds. A span is (id, name, start, end, parent, job); a layer's self time
is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Traced functions: (module, attribute) -> span name.
FUNCTIONS = {
    ("hermitian", "hermitian_points"): "hermitian.points",
    ("hermitian", "compute_wstar"): "hermitian.wstar",
    ("hermitian", "find_isometry_vector"): "hermitian.oracle",
    ("hermitian", "ideal_complement_check"): "hermitian.ideal_check",
    ("puncturing", "subset_qualifies"): "puncturing.sweep",
    ("puncturing", "qualifying_subsets"): "puncturing.sweep",
    ("puncturing", "sample_qualifying_subsets"): "puncturing.sweep",
    ("puncturing", "build_hierarchy"): "puncturing.hierarchy",
    ("puncturing", "verify_inheritance"): "puncturing.inheritance",
    ("puncturing", "export_dot"): "puncturing.export",
    ("puncturing", "graph_to_json"): "puncturing.export",
    ("sparse_ideals", "leader_set"): "sparse_ideals.leader_set",
    ("sparse_ideals", "maximum_sparse_from_leader"): "sparse_ideals.from_leader",
    ("sparse_ideals", "inclusion_report"): "sparse_ideals.inclusion",
    ("sparse_ideals", "enumerate_proper_ideals"): "sparse_ideals.enumerate",
    ("cli", "main"): "cli",
}
# Traced constructors: (module, class, method) -> span name, or None to
# count calls without a span (their time stays with the caller).
METHODS = {
    ("gf", "Field", "__init__"): "gf.field_build",
    ("semigroup", "NumericalSemigroup", "__init__"): "semigroup.build",
    ("sparse_ideals", "SemigroupIdeal", "__post_init__"): None,
}


def rows_scanned(q: int, wstar) -> int:
    """Basis functions evaluated to reach W*: one per pole order up to
    max W*. m = kq + r (0 <= r < q) is a pole order iff r <= k."""
    return sum(1 for m in range(wstar[-1] + 1) if m % q <= m // q)


HOOKS = {
    ("hermitian", "compute_wstar"): lambda args, res: {
        "hermitian.wstar_points": len(args[0]),
        "hermitian.wstar_rows_scanned": rows_scanned(args[1], res.wstar),
    },
    ("hermitian", "find_isometry_vector"): lambda args, res: {
        "hermitian.oracle_found": int(res is not None),
    },
    ("puncturing", "subset_qualifies"): lambda args, res: {
        "puncturing.subsets_evaluated": 1,
        "puncturing.qualifying": int(res),
    },
    ("puncturing", "build_hierarchy"): lambda args, res: {
        "puncturing.covering_edges": len(res.edges),
    },
    ("puncturing", "verify_inheritance"): lambda args, res: {
        "puncturing.inheritance_pairs": len(res.checked),
    },
}


class Tracer:
    """Collects spans and per-job counters while installed."""

    def __init__(self, prog):
        self.prog = prog
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []

    def _wrap(self, func, name, hook, job, counts):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, job)
                counts[name + ".calls"] += 1
            if hook is not None:
                counts.update(hook(args, result))
            return result

        return traced

    @staticmethod
    def _count(func, name, counts):
        def counted(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, job_id):
        """Wrap every binding of the traced functions for the duration."""
        counts = self.counts.setdefault(job_id, Counter())
        patches = []
        modules = list(vars(self.prog).values())
        for (mod, attr), name in FUNCTIONS.items():
            original = getattr(getattr(self.prog, mod), attr, None)
            if original is None:  # gone from the program: its metrics read 0
                continue
            wrapper = self._wrap(original, name, HOOKS.get((mod, attr)), job_id, counts)
            patches += [(m, attr, original, wrapper) for m in modules
                        if getattr(m, attr, None) is original]
        for (mod, cls, meth), name in METHODS.items():
            owner = getattr(getattr(self.prog, mod), cls, None)
            original = vars(owner).get(meth) if owner is not None else None
            if original is None:
                continue
            if name is None:
                wrapper = self._count(original, f"{mod}.{cls}.built", counts)
            else:
                wrapper = self._wrap(original, name, None, job_id, counts)
            patches.append((owner, meth, original, wrapper))
        for target, attr, _, wrapper in patches:
            setattr(target, attr, wrapper)
        try:
            yield self
        finally:
            for target, attr, original, _ in patches:
                setattr(target, attr, original)

    def self_times(self, jobs) -> Counter:
        """Total self time per span name over spans of the given jobs."""
        child_time: Counter = Counter()
        selected = [s for s in self.spans if s[5] in jobs]
        for _, _, start, end, parent, _ in selected:
            if parent is not None:
                child_time[parent] += end - start
        out: Counter = Counter()
        for span_id, name, start, end, _, _ in selected:
            out[name] += end - start - child_time[span_id]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent, "job": job}) + "\n")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(counts: Counter, self_s: Counter, cycles: int, output_bytes: int) -> dict:
    """Per-layer metrics: counts over one cycle of jobs, self times in
    seconds per cycle averaged over `cycles` complete cycles."""

    def secs(name):
        return self_s[name] / cycles

    return {
        "gf.field_builds": counts["gf.field_build.calls"],
        "gf.field_build_s": secs("gf.field_build"),
        "hermitian.points_calls": counts["hermitian.points.calls"],
        "hermitian.points_s": secs("hermitian.points"),
        "hermitian.wstar_calls": counts["hermitian.wstar.calls"],
        "hermitian.wstar_s": secs("hermitian.wstar"),
        "hermitian.wstar_points": counts["hermitian.wstar_points"],
        "hermitian.wstar_rows_scanned": counts["hermitian.wstar_rows_scanned"],
        "hermitian.oracle_calls": counts["hermitian.oracle.calls"],
        "hermitian.oracle_s": secs("hermitian.oracle"),
        "hermitian.oracle_found_ratio": ratio(counts["hermitian.oracle_found"],
                                              counts["hermitian.oracle.calls"]),
        "hermitian.ideal_check_calls": counts["hermitian.ideal_check.calls"],
        "hermitian.ideal_check_s": secs("hermitian.ideal_check"),
        "puncturing.subsets_evaluated": counts["puncturing.subsets_evaluated"],
        "puncturing.qualify_ratio": ratio(counts["puncturing.qualifying"],
                                          counts["puncturing.subsets_evaluated"]),
        "puncturing.sweep_s": secs("puncturing.sweep"),
        "puncturing.hierarchy_s": secs("puncturing.hierarchy"),
        "puncturing.covering_edges": counts["puncturing.covering_edges"],
        "puncturing.inheritance_s": secs("puncturing.inheritance"),
        "puncturing.inheritance_pairs": counts["puncturing.inheritance_pairs"],
        "puncturing.export_s": secs("puncturing.export"),
        "semigroup.builds": counts["semigroup.build.calls"],
        "semigroup.build_s": secs("semigroup.build"),
        "sparse_ideals.leader_set_s": secs("sparse_ideals.leader_set"),
        "sparse_ideals.ideals_built": counts["sparse_ideals.SemigroupIdeal.built"],
        "sparse_ideals.from_leader_s": secs("sparse_ideals.from_leader"),
        "sparse_ideals.inclusion_s": secs("sparse_ideals.inclusion"),
        "sparse_ideals.enumerate_s": secs("sparse_ideals.enumerate"),
        "cli.self_s": secs("cli"),
        "cli.output_bytes": output_bytes,
    }
