"""Spans around the calls into each module of ``deltamod``.

The tracer replaces chosen functions and methods of the program with
wrappers, from the benchmark's side, and restores them on ``uninstall``.
Each span records calls, inclusive time and self time, where self time is
the span's duration minus the time of the spans it called directly. Spans
are aggregated per name as they close rather than stored one by one: a
search pass closes about a million determinant spans.

Counters count calls without opening a span, so their time stays in the
caller's self time; they show which strategy was dispatched.
"""

from __future__ import annotations

import sys
from math import prod
from time import perf_counter

# (layer name, module, attribute); one name may cover several functions.
SPANS = (
    ("exact.rank", "exact", "rank"),
    ("exact.scan_subdets", "exact", "_scan_subdets"),
    ("exact.max_abs_full_rank_subdet", "exact", "max_abs_full_rank_subdet"),
    ("exact.bareiss_det", "exact", "_bareiss_det"),
    ("exact.det", "exact", "det"),
    ("batch.batched_det", "_batch", "batched_det"),
    ("modularity.modularity_level", "modularity", "modularity_level"),
    ("modularity.is_delta_modular", "modularity", "is_delta_modular"),
    ("modularity.parallel_violations", "modularity", "parallel_violations"),
    ("modularity.subset_scan.extend", "modularity", "_SubsetScan._extend"),
    ("modularity.try_add", "modularity", "IdentityAnchoredChecker.try_add"),
    ("search.max_columns_search", "search", "max_columns_search"),
    ("search.general_checker.try_add", "search", "_GeneralChecker.try_add"),
    ("search.column_universe", "search", "column_universe"),
    ("search.grid_candidates", "search", "_grid_candidates"),
    ("search.verify_is_feasible", "search", "verify_is_feasible"),
    ("lines.line_length_multiset", "lines", "line_length_multiset"),
    ("families.build", "families", "build_A"),
    ("families.build", "families", "build_A_lee"),
)
COUNTERS = (
    ("modularity.scan_identity", "modularity", "_scan_identity"),
    ("modularity.scan_general", "modularity", "_scan_general"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))
COUNTER_NAMES = tuple(name for name, _, _ in COUNTERS)


# Work counts a span records besides its calls, from its arguments and result.
EXTRAS = {
    "batch.batched_det": lambda args, result: prod(args[0].shape[:-2]),  # determinants
    "modularity.try_add": lambda args, result: int(result is True),      # accepted
    "search.general_checker.try_add": lambda args, result: int(result is True),
    "search.max_columns_search": lambda args, result: result.nodes_explored,
}


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, inclusive s, self s, extra count]
        self.stats: dict[str, list] = {n: [0, 0.0, 0.0, 0]
                                       for n in SPAN_NAMES + COUNTER_NAMES}
        self._stack: list[float] = []   # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        st = self.stats[name]
        stack = self._stack
        extra = EXTRAS.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if stack:
                    stack[-1] += dt
            if extra is not None:
                st[3] += extra(args, result)
            return result
        return wrapper

    def _counter(self, name: str, fn):
        st = self.stats[name]

        def wrapper(*args, **kwargs):
            st[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a deltamod module binds it."""
        modules = [m for k, m in sys.modules.items()
                   if (k == "deltamod" or k.startswith("deltamod.")) and m is not None]
        for table, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for name, mod, attr in table:
                owner = sys.modules[f"deltamod.{mod}"]
                if "." in attr:
                    cls, meth = attr.split(".")
                    owner = getattr(owner, cls)
                    self._patch(owner, meth, make(name, getattr(owner, meth)))
                    continue
                orig = getattr(owner, attr)
                wrapped = make(name, orig)
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig:
                            self._patch(m, key, wrapped)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]


def layer_metrics(stats: dict, passes: int, factor: float,
                  setup_stats: dict, setup_factor: float) -> dict:
    """Per-layer metrics: per traced pass, except set-up spans per set-up.

    Times are scaled by the speed factor of the traced passes (of the set-up
    for set-up spans), and rates divided by it, as the worker scales
    end-to-end times.
    """
    out: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = {"value": value, "unit": unit}

    for name in SPAN_NAMES:
        if name == "families.build":
            (calls, total, self_s, _), per, f, sfx = setup_stats[name], 1, setup_factor, ""
        else:
            (calls, total, self_s, _), per, f, sfx = stats[name], passes, factor, "/pass"
        put(f"{name}.calls", calls / per, "count" + sfx)
        put(f"{name}.s", total * f / per, "s" + sfx)
        put(f"{name}.self_s", self_s * f / per, "s" + sfx)
    for name in COUNTER_NAMES:
        put(f"{name}.calls", stats[name][0] / passes, "count/pass")
    _, total, _, minors = stats["batch.batched_det"]
    put("batch.batched_det.minors", minors / passes, "count/pass")
    put("batch.minors_per_s", minors / (total * factor) if total else 0.0, "1/s")
    for name in ("modularity.try_add", "search.general_checker.try_add"):
        calls, _, _, accepted = stats[name]
        put(f"{name}.accepted", accepted / passes, "count/pass")
        put(f"{name}.accept_ratio", accepted / calls if calls else 0.0, "ratio")
    _, total, _, nodes = stats["search.max_columns_search"]
    put("search.nodes", nodes / passes, "count/pass")
    put("search.nodes_per_s", nodes / (total * factor) if total else 0.0, "1/s")
    return out
