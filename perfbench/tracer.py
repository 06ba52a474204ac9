"""Per-layer tracing from outside the engine.

`Tracer.install()` wraps public functions of the nlie modules at every
module that imports them by name (and two methods on their classes).
Functions in SPANNED record a span per call: name, start, end, parent span,
job id and, for matrix builders and `rank`, the result.  Functions in
COUNTED are hot inner calls that only bump a per-job counter, since a span
each would cost more than the call.  Spans stay in memory until the run
writes them out.  `uninstall()` puts every original back.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

# metric prefix -> (module, attribute); the result is kept on the span for
# the names in KEEP_RESULT (shapes, nonzero counts and ranks)
SPANNED = {
    "cli.verify": ("nlie.cli", "cmd_verify"),
    "cli.cohomology": ("nlie.cli", "cmd_cohomology"),
    "cli.deform": ("nlie.cli", "cmd_deform"),
    "cli.lift": ("nlie.cli", "cmd_lift"),
    "io.load_problem": ("nlie.io", "load_problem"),
    "io.emit_problem": ("nlie.io", "emit_problem"),
    "core.check_filippov": ("nlie.core", "check_filippov"),
    "core.check_representation": ("nlie.core", "check_representation"),
    "cochain.coboundary_matrix": ("nlie.cochain", "coboundary_matrix"),
    "cochain.coboundary": ("nlie.cochain", "coboundary"),
    "cochain.check_mc_pair": ("nlie.cochain", "check_mc_pair"),
    "linalg.rank": ("nlie.linalg", "rank"),
    "linalg.solve_linear": ("nlie.linalg", "solve_linear"),
    "rota_baxter.check_rb": ("nlie.rota_baxter", "check_rb"),
    "rota_baxter.rb_coboundary": ("nlie.rota_baxter", "rb_coboundary"),
    "rota_baxter.operator_rep": ("nlie.rota_baxter", "operator_rep"),
    "rota_baxter.rb_coboundary_matrix": ("nlie.rota_baxter", "rb_coboundary_matrix"),
    "rota_baxter.check_rb_mc": ("nlie.rota_baxter", "check_rb_mc"),
    "rota_baxter.derived_bracket": ("nlie.rota_baxter", "derived_bracket"),
    "rota_baxter.twisted_mc_holds": ("nlie.rota_baxter", "twisted_mc_holds"),
    "deformation.check_order": ("nlie.deformation", "check_order"),
    "deformation.obstruction": ("nlie.deformation", "obstruction"),
    "deformation.extend": ("nlie.deformation", "extend"),
    "deformation.find_equivalence": ("nlie.deformation", "find_equivalence"),
    "deformation.obstruction_via_derived": ("nlie.deformation", "obstruction_via_derived"),
    "lift.raise_arity_rep": ("nlie.lift", "raise_arity_rep"),
    "lift.lift_operator": ("nlie.lift", "lift_operator"),
    "lift.pair_chain_map_holds": ("nlie.lift", "pair_chain_map_holds"),
    "lift.operator_chain_map_holds": ("nlie.lift", "operator_chain_map_holds"),
}
KEEP_RESULT = {"cochain.coboundary_matrix", "rota_baxter.rb_coboundary_matrix", "linalg.rank"}
COUNTED = {
    "core.NLieAlgebra.bracket": ("nlie.core", "NLieAlgebra.bracket"),
    "cochain.graded_bracket": ("nlie.cochain", "graded_bracket"),
    "multilinear.apply_map": ("nlie.multilinear", "apply_map"),
    "multilinear.LazyMap.value": ("nlie.multilinear", "LazyMap.value"),
    "combinat.sort_with_sign": ("nlie.combinat", "sort_with_sign"),
    "combinat.shuffles": ("nlie.combinat", "shuffles"),
}
LAZY_HITS = "multilinear.LazyMap.value.hits"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "result")

    def __init__(self, name: str, parent: int, job: Any):
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.result = None

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "job": self.job}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.job: Any = None
        self.counts: dict[Any, Counter] = {}
        self.counter: Counter = Counter()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def begin_job(self, job: Any) -> None:
        self.job = job
        self.counter = self.counts.setdefault(job, Counter())

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], {}
        self.begin_job(None)

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else -1, self.job)
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self.stack.pop()
            if keep:
                span.result = result
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        if name == "multilinear.LazyMap.value":
            @functools.wraps(fn)
            def lazy_value(lazy, key):
                counter = self.counter
                counter[name] += 1
                if key in lazy._cache:
                    counter[LAZY_HITS] += 1
                return fn(lazy, key)
            return lazy_value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counter[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at its definition and at each import site."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "nlie" or name.startswith("nlie."))]
        for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for metric, (modname, attr) in table.items():
                owner = sys.modules[modname]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._swap(cls, meth, original, make(metric, original))
                    continue
                original = getattr(owner, attr)
                wrapper = make(metric, original)
                for mod in modules:
                    for gname, value in list(vars(mod).items()):
                        if value is original:
                            self._swap(mod, gname, original, wrapper)

    def _swap(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# turning spans into metrics
# ---------------------------------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.end - s.start - covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


def nnz(matrix) -> int:
    return sum(1 for row in matrix.entries for x in row if x != 0)


def layer_metrics(spans: list[Span], counts: dict[Any, Counter]) -> dict[str, float]:
    """Inclusive time (outermost span per name), self time, calls, and the
    totals over matrices built; counters summed over jobs."""
    out: Counter = Counter()
    for name in SPANNED:
        out[f"{name}.s"] = out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    selfs = self_times(spans)
    for i, s in enumerate(spans):
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            out[f"{s.name}.s"] += s.end - s.start
    total = Counter()
    for c in counts.values():
        total.update(c)
    for name in COUNTED:
        out[f"{name}.calls"] = total[name]
    calls = total["multilinear.LazyMap.value"]
    out["multilinear.LazyMap.value.hit_ratio"] = total[LAZY_HITS] / calls if calls else 0.0
    out["multilinear.LazyMap.value.hits"] = total[LAZY_HITS]
    mats = [s.result for s in spans if s.name == "cochain.coboundary_matrix"]
    out["cochain.coboundary_matrix.rows"] = sum(m.rows for m in mats)
    out["cochain.coboundary_matrix.cols"] = sum(m.cols for m in mats)
    out["cochain.coboundary_matrix.nnz"] = sum(nnz(m) for m in mats)
    return dict(out)


def job_calls(spans: list[Span], job: Any, name: str) -> list[Span]:
    return [s for s in spans if s.job == job and s.name == name]

