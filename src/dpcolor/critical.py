"""Criticality decision, bound reports, and exact minimum-edge mining."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, groupby, permutations, product

from .cover import DEFAULT_MAX_COVERS, _caps, _check_covers
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
from .solver import _core, _scan_checked, _scan_critical
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

    The checks on G come first, in this order: an isolated vertex, then the
    budget (max_covers bounds G's raw 2^|E|, as for is_colorable), then G's
    toughness, then the two rules below. Only then is anything scanned.

    A disconnected G is ruled out for any toughness. Covers and side maps
    factor over components, so G is colorable exactly when every component
    is. If G is uncolorable and has no isolated vertex, some component G1 is
    uncolorable, and any other component has an edge e; G - e still contains
    G1, so it is uncolorable too.

    A vertex v of degree 1 whose caps i - t_p(v) and j - t_r(v) are both
    non-negative also rules G out. Let uv be its edge. Given a coloring of
    G - uv under the restricted cover, give v the side that uv's matching
    does not join to u's chosen vertex: uv then conflicts nowhere, and v has
    no conflict at all. So G is colorable whenever G - uv is, and G is not
    critical either way.

    What is scanned is the core of G (solver._core). First G's flags fold
    into their bases' caps: solver._fold states which vertices are flags,
    how much each lowers its base, and why G is colorable over every cover
    exactly when the flag-folded H is. Deleting an edge of H leaves every
    flag in place, so G - e is H - e with the same caps. Deleting the edge
    of a flag x at base v leaves x pendant, and a pendant vertex with both
    caps non-negative never conflicts (as above), so G - e is H with v's
    caps raised back by one: the base relaxation. G is critical exactly
    when H is uncolorable, every H - e is colorable, and H is colorable
    after each base relaxation. Then each pendant block of H that folds
    becomes a one-edge gadget (solver._fold_blocks), and H is critical
    exactly when the result is.

    One scan of H's covers decides all of these. Each cover of H - e is the
    restriction of a cover of H, and deleting an edge only removes
    conflicts, so the restriction of a colorable cover stays colorable;
    raising caps keeps a colorable cover colorable too. So only H's
    uncolorable covers need the deletion and relaxation checks. Switching
    at vertices with equal caps commutes with both, so the scan takes one
    cover per switching class, those that extend the spanning forest
    _core fixes to E, and permuting parallel edges does too, so it takes
    one cover per bundle order. The answer depends on no edge order, so H's
    edges are scanned in degree-first order (solver._degree_first), and
    solver._kernel runs the scan and the checks.
    """
    deg = [len(inc) for inc in g.incidence()]
    if 0 in deg:
        return False
    caps = _caps(params, _scan_checked(g, params, t, max_covers))
    if not g.is_connected() or any(d == 1 and min(cap) >= 0 for d, cap in zip(deg, caps)):
        return False
    return _scan_critical(*_core(g, caps))


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

    Enumerates every edge multiset over the unordered vertex pairs, starting
    at the regime lower bound (nothing below it can be critical) and giving
    up above max_edges, and decides each isomorphism class once. is_critical's
    budget check depends on the edge count alone, so it is made once at the
    top of each level that has a multiset with no isolated vertex (2e >= n > 1).
    A multiset with a vertex of degree below 2 is skipped: is_critical rejects
    it under zero toughness. combinations_with_replacement yields a level in
    lex order, and each relabeling of a multiset lies on its level, so a
    class is first reached at its lex-least relabeling. Only that one
    (_lex_first) runs is_critical, which ignores vertex labels and edge
    order under zero toughness: the witness is the first critical multiset
    in enumeration order, and a BudgetError comes at the same level.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > max_vertices:
        raise BudgetError(f"n = {n} exceeds the search limit of {max_vertices}")
    floor = max(math.ceil(edge_bound(params, n)), 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    t = Toughness.zero(n)
    for e in range(floor, max_edges + 1):
        if 2 * e >= n > 1:
            _check_covers(e, max_covers)  # is_critical's budget check, same message
        for combo in combinations_with_replacement(pairs, e):
            deg = [0] * n
            for u, v in combo:
                deg[u] += 1
                deg[v] += 1
            if 0 in deg or 1 in deg or not _lex_first(combo, n):
                continue
            g = Multigraph(n, combo)
            if is_critical(g, params, t, max_covers=max_covers):
                return e, g
    return None


def _lex_first(combo: Sequence[tuple[int, int]], n: int) -> bool:
    """Whether no relabeling of the sorted edge tuple combo sorts before it.

    Sorted edge tuples of one length compare as their pair multiplicities
    read row by row above the diagonal, greater first. So row 0 must equal
    the greatest row sorted in falling order, or relabeling that row's
    vertex to 0, or sorting row 0, sorts earlier. The relabelings that tie
    on row 0 send a vertex w with that row to 0 and the rest by falling
    multiplicity to w, in any order within equal multiplicities; each is
    compared on the remaining pairs.
    """
    m = [[0] * n for _ in range(n)]
    for u, v in combo:
        m[u][v] += 1
        m[v][u] += 1
    top, ties = m[0][1:], []
    for w, row in enumerate(m):
        ranked = sorted(row[:w] + row[w + 1 :], reverse=True)
        if ranked > top:
            return False
        if ranked == top:
            ties.append(w)
    rest = [m[a][b] for a in range(1, n) for b in range(a + 1, n)]
    for w in ties:
        row = m[w]
        others = sorted(set(range(n)) - {w}, key=row.__getitem__, reverse=True)
        for perm in product(*(permutations(c) for _, c in groupby(others, key=row.__getitem__))):
            order = list(chain.from_iterable(perm))
            if [m[a][b] for k, a in enumerate(order) for b in order[k + 1 :]] > rest:
                return False
    return True
