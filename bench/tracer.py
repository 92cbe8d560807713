"""Spans around dpcolor's layers, recorded from outside the package.

``Tracer.install`` replaces the public functions in the module namespaces
where ``cli`` and ``critical`` look them up (and ``constructions`` itself,
which the benchmark's own set-up calls) with wrappers that record one span
per call: name, start, end, the enclosing span, and the work the call did as
counted from its arguments and result. ``uninstall`` puts the originals back,
so traced and untraced passes can alternate in one process. ``layer_metrics``
turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace
from typing import Callable


class Span:
    __slots__ = ("name", "start", "end", "parent", "work")

    def __init__(self, name: str, parent: int):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.work: dict = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bundled(g) -> bool:
    pairs = [tuple(sorted(edge)) for edge in g.edges]
    return len(set(pairs)) < len(pairs)


def _covers(args, result) -> dict:
    """Covers scanned: all 2^|E| when colorable, else the witness index + 1."""
    ok, witness = result
    if ok:
        return {"covers": 1 << len(args[0].edges)}
    index = 0
    for parity in witness.parities:
        index = (index << 1) | int(parity)
    return {"covers": index + 1}


def _critical(args, result) -> dict:
    return {"critical": bool(result), "bundled": _bundled(args[0])}


def _subsets(args, result) -> dict:
    return {"subsets": (1 << args[0].n) - 1}


def _masks(args, result) -> dict:
    if result is None:
        return {"masks": (1 << args[0].n) - 1}
    return {"masks": sum(1 << v for v in result)}


def _nothing(args, result) -> dict:
    return {}


# (module, attribute, span name, work counter)
_POINTS = [
    ("constructions", "build_family", "constructions.build_family", _nothing),
    ("cli", "build_family", "constructions.build_family", _nothing),
    ("cli", "load_graph", "graph.load_graph", _nothing),
    ("cli", "is_colorable", "solver.is_colorable", _covers),
    ("critical", "is_colorable", "solver.is_colorable", _covers),
    ("cli", "exhaustive_color", "solver.exhaustive_color", _nothing),
    ("cli", "is_critical", "critical.is_critical", _critical),
    ("critical", "is_critical", "critical.is_critical", _critical),
    ("cli", "fdp_search", "critical.fdp_search", _nothing),
    ("cli", "rho_graph", "potential.rho_graph", _subsets),
    ("critical", "rho_graph", "potential.rho_graph", _subsets),
    ("cli", "violating_subset", "sparsity.violating_subset", _masks),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def call(self, name: str, fn: Callable, *args, count=_nothing):
        """Run ``fn(*args)`` inside a span named ``name``."""
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter()
        try:
            result = fn(*args)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        span.work = count(args, result)
        return result

    def _wrap(self, name: str, fn: Callable, count: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, lambda *a: fn(*a, **kwargs), *args, count=count)

        return traced

    def install(self, dp: SimpleNamespace) -> None:
        for module_name, attr, name, count in _POINTS:
            module = getattr(dp, module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def dump(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent, s.work] for s in self.spans]


# Every per-layer metric with its unit, in the order they are reported.
LAYER_UNITS = {
    "cli.main.s": "s",
    "cli.self_s": "s",
    "constructions.build_family.s": "s",
    "graph.load_graph.s": "s",
    "solver.is_colorable.calls": "count",
    "solver.is_colorable.s": "s",
    "solver.is_colorable.covers": "count",
    "solver.is_colorable.covers_per_s": "covers/s",
    "solver.exhaustive_color.calls": "count",
    "solver.exhaustive_color.s": "s",
    "critical.is_critical.calls": "count",
    "critical.is_critical.s": "s",
    "critical.is_critical.self_s": "s",
    "critical.is_critical.scans": "scans/call",
    "critical.is_critical.s.bundled": "s",
    "critical.is_critical.s.simple": "s",
    "critical.fdp_search.s": "s",
    "critical.fdp_search.self_s": "s",
    "critical.fdp_search.candidates": "count",
    "critical.fdp_search.candidates_per_s": "candidates/s",
    "critical.fdp_search.hit_ratio": "ratio",
    "potential.rho_graph.calls": "count",
    "potential.rho_graph.s": "s",
    "potential.rho_graph.subsets_per_s": "subsets/s",
    "sparsity.violating_subset.calls": "count",
    "sparsity.violating_subset.s": "s",
    "sparsity.violating_subset.masks_per_s": "masks/s",
    "trace.overhead": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals of one traced pass (``trace.overhead`` is the caller's)."""
    by_name: dict[str, list[int]] = defaultdict(list)
    children: dict[int, list[int]] = defaultdict(list)
    for k, span in enumerate(spans):
        by_name[span.name].append(k)
        if span.parent >= 0:
            children[span.parent].append(k)

    def seconds(name: str) -> float:
        return sum(spans[k].seconds for k in by_name[name])

    def self_seconds(name: str) -> float:
        return sum(
            spans[k].seconds - sum(spans[c].seconds for c in children[k]) for k in by_name[name]
        )

    def work(name: str, key: str) -> int:
        return sum(spans[k].work[key] for k in by_name[name])

    def child_count(name: str, child: str) -> int:
        return sum(1 for k in by_name[name] for c in children[k] if spans[c].name == child)

    crit = by_name["critical.is_critical"]
    fdp_children = [c for k in by_name["critical.fdp_search"] for c in children[k]]
    candidates = len(fdp_children)
    hits = sum(1 for c in fdp_children if spans[c].work["critical"])
    out = {
        "cli.main.s": seconds("cli.main"),
        "cli.self_s": self_seconds("cli.main"),
        "constructions.build_family.s": seconds("constructions.build_family"),
        "graph.load_graph.s": seconds("graph.load_graph"),
        "solver.is_colorable.calls": len(by_name["solver.is_colorable"]),
        "solver.is_colorable.s": seconds("solver.is_colorable"),
        "solver.is_colorable.covers": work("solver.is_colorable", "covers"),
        "solver.exhaustive_color.calls": len(by_name["solver.exhaustive_color"]),
        "solver.exhaustive_color.s": seconds("solver.exhaustive_color"),
        "critical.is_critical.calls": len(crit),
        "critical.is_critical.s": seconds("critical.is_critical"),
        "critical.is_critical.self_s": self_seconds("critical.is_critical"),
        "critical.is_critical.scans": _ratio(
            child_count("critical.is_critical", "solver.is_colorable"), len(crit)
        ),
        "critical.is_critical.s.bundled": sum(
            spans[k].seconds for k in crit if spans[k].work["bundled"]
        ),
        "critical.is_critical.s.simple": sum(
            spans[k].seconds for k in crit if not spans[k].work["bundled"]
        ),
        "critical.fdp_search.s": seconds("critical.fdp_search"),
        "critical.fdp_search.self_s": self_seconds("critical.fdp_search"),
        "critical.fdp_search.candidates": candidates,
        "critical.fdp_search.hit_ratio": _ratio(hits, candidates),
        "potential.rho_graph.calls": len(by_name["potential.rho_graph"]),
        "potential.rho_graph.s": seconds("potential.rho_graph"),
        "sparsity.violating_subset.calls": len(by_name["sparsity.violating_subset"]),
        "sparsity.violating_subset.s": seconds("sparsity.violating_subset"),
    }
    out["solver.is_colorable.covers_per_s"] = _ratio(
        out["solver.is_colorable.covers"], out["solver.is_colorable.s"]
    )
    out["critical.fdp_search.candidates_per_s"] = _ratio(candidates, out["critical.fdp_search.s"])
    out["potential.rho_graph.subsets_per_s"] = _ratio(
        work("potential.rho_graph", "subsets"), out["potential.rho_graph.s"]
    )
    out["sparsity.violating_subset.masks_per_s"] = _ratio(
        work("sparsity.violating_subset", "masks"), out["sparsity.violating_subset.s"]
    )
    return out
