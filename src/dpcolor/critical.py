"""Criticality decision, bound reports, and exact minimum-edge mining."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .cover import DEFAULT_MAX_COVERS
from .graph import BudgetError, DefectParams, Multigraph, Toughness
from .potential import (
    DEFAULT_MAX_VERTICES,
    Regime,
    edge_bound,
    potential_threshold,
    regime,
    rho_graph,
)
from .solver import is_colorable

DEFAULT_MAX_SEARCH_VERTICES = 5
DEFAULT_MAX_SEARCH_EDGES = 10


def is_critical(
    g: Multigraph,
    params: DefectParams,
    t: Toughness | None = None,
    *,
    max_covers: int = DEFAULT_MAX_COVERS,
) -> bool:
    """Not colorable, but colorable after deleting any single edge.

    Checking edge deletions suffices because colorability is closed under
    subgraphs, except when a vertex is isolated; an isolated vertex always
    takes its rich side at degree 0, so such graphs are rejected outright.
    """
    if any(g.degree(v) == 0 for v in range(g.n)):
        return False
    colorable, _ = is_colorable(g, params, t, max_covers=max_covers)
    if colorable:
        return False
    for e in range(len(g.edges)):
        ok, _ = is_colorable(g.delete_edge(e), params, t, max_covers=max_covers)
        if not ok:
            return False
    return True


@dataclass(frozen=True)
class BoundsReport:
    """How a (presumed critical) graph sits against the regime's exact bounds."""

    n: int
    e: int
    bound: Fraction
    holds: bool
    sharp: bool
    regime: Regime
    rho: int | None
    rho_threshold: int | None
    rho_ok: bool | None


def check_bounds(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> BoundsReport:
    """Compare edge count to the regime bound and, where defined, the potential
    of the untoughened graph to its critical threshold."""
    bound = edge_bound(params, g.n)
    e = len(g.edges)
    r = regime(params)
    rho_val: int | None = None
    rho_thr: int | None = None
    rho_ok: bool | None = None
    if r in (Regime.ZERO_J, Regime.LARGE, Regime.MID, Regime.I_PLUS_ONE):
        rho_val, _ = rho_graph(g, params, max_vertices=max_vertices)
        rho_thr = potential_threshold(params)
        rho_ok = rho_val <= rho_thr
    return BoundsReport(
        n=g.n,
        e=e,
        bound=bound,
        holds=Fraction(e) >= bound,
        sharp=Fraction(e) == bound,
        regime=r,
        rho=rho_val,
        rho_threshold=rho_thr,
        rho_ok=rho_ok,
    )


def fdp_search(
    params: DefectParams,
    n: int,
    max_edges: int = DEFAULT_MAX_SEARCH_EDGES,
    *,
    max_vertices: int = DEFAULT_MAX_SEARCH_VERTICES,
    max_covers: int = DEFAULT_MAX_COVERS,
) -> tuple[int, Multigraph] | None:
    """Smallest edge count of an n-vertex critical multigraph, with a witness.

    Enumerates every edge multiset over the unordered vertex pairs, complete
    but redundant under isomorphism, starting at the regime lower bound
    (nothing below it can be critical) and giving up above max_edges. The
    witness is the first critical graph in enumeration order.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > max_vertices:
        raise BudgetError(f"n = {n} exceeds the search limit of {max_vertices}")
    floor = max(math.ceil(edge_bound(params, n)), 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    t = Toughness.zero(n)
    for e in range(floor, max_edges + 1):
        for combo in combinations_with_replacement(pairs, e):
            g = Multigraph(n, combo)
            if is_critical(g, params, t, max_covers=max_covers):
                return e, g
    return None
