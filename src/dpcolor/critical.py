"""Criticality decision, bound reports, and exact minimum-edge mining."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .cover import DEFAULT_MAX_COVERS
from .graph import BudgetError, DefectParams, Multigraph, Toughness
from .potential import (
    _POTENTIAL_REGIMES,
    DEFAULT_MAX_VERTICES,
    Regime,
    edge_bound,
    potential_threshold,
    regime,
    rho_graph,
)
from .solver import _bad_covers, _Search
from .solver import is_colorable  # noqa: F401  (bench/tracer.py wraps critical.is_colorable)

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

    One scan of G's covers decides every deletion. Each cover of G - e is the
    restriction of a cover of G, and deleting an edge only removes conflicts,
    so the restriction of a colorable cover stays colorable. G - e is
    therefore colorable exactly when the restriction of every uncolorable
    cover of G is; each such restriction is one branch-and-bound on G - e.
    Toughness carries over, because G - e has the same vertices. max_covers
    caps that one 2^|E| scan, as it does for is_colorable; on top of it come
    at most |E| one-cover searches per uncolorable cover.

    A vertex v of degree 1 whose caps i - t_p(v) and j - t_r(v) are both
    non-negative also rules G out. Let uv be its edge. Given a coloring of
    G - uv under the restricted cover, give v the side that uv's matching
    does not join to u's chosen vertex: uv then conflicts nowhere, and v has
    no conflict at all. So G is colorable whenever G - uv is, and G is not
    critical either way. The rule runs after the budget and toughness checks,
    so those raise exactly as for is_colorable.
    """
    deg = [len(inc) for inc in g.incidence()]
    if 0 in deg:
        return False
    if t is None:
        t = Toughness.zero(g.n)
    bad_covers = _bad_covers(g, params, t, max_covers)
    if any(
        deg[v] == 1 and t.poor[v] <= params.i and t.rich[v] <= params.j for v in range(g.n)
    ):
        return False
    deletions = [_Search(g.delete_edge(e), params, t) for e in range(len(g.edges))]
    uncolorable = False
    for bits in bad_covers:
        uncolorable = True
        # delete_edge shifts later ids down, so dropping bit e restricts the cover
        if any(search.run(bits[:e] + bits[e + 1 :]) is None for e, search in enumerate(deletions)):
            return False
    return uncolorable


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
    if r in _POTENTIAL_REGIMES:
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
