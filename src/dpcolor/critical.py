"""Criticality decision, bound reports, and exact minimum-edge mining."""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, compress, groupby, permutations, product

from .cover import DEFAULT_MAX_COVERS, _check_covers
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

DEFAULT_MAX_SEARCH_VERTICES = 7
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
    caps = _scan_checked(g, params, t, max_covers)
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

    Walks the edge multisets over the unordered vertex pairs level by level
    in combinations_with_replacement order, starting at the regime lower
    bound (nothing below it can be critical) and giving up above max_edges,
    and decides each isomorphism class once. is_critical's budget check
    depends on the edge count alone, so it is made once at the top of each
    level when n > 1: every level from the regime bound up has e >= n, so
    some multiset has no isolated vertex (_first_level). Each
    relabeling of a multiset lies on its level, so a class is first reached
    at its lex-least relabeling (_lex_first). _level yields just those with
    minimum degree 2, as is_critical rejects a vertex of degree below 2
    under zero toughness, and builds no other multiset. is_critical ignores
    vertex labels and edge order under zero toughness: the witness is the
    first critical multiset in enumeration order, and a BudgetError comes
    at the same level.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > max_vertices:
        raise BudgetError(f"n = {n} exceeds the search limit of {max_vertices}")
    t = Toughness.zero(n)
    for e in range(_first_level(params, n), max_edges + 1):
        if n > 1:
            _check_covers(e, max_covers)  # is_critical's budget check, same message
        for combo in _level(n, e):
            g = Multigraph(n, combo)
            if is_critical(g, params, t, max_covers=max_covers):
                return e, g
    return None


def _first_level(params: DefectParams, n: int) -> int:
    """fdp_search's first level, the regime lower bound: at least n, as each
    regime row has a >= b and k >= 0."""
    return math.ceil(edge_bound(params, n))


def _level(n: int, e: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The e-edge multisets on n vertices with minimum degree 2 that pass
    _lex_first, in combinations_with_replacement order over all pairs.

    That order is row 0's multiplicities in falling lex order, then the
    rest's. _lex_first rejects a row 0 that rises, so only falling rows 0
    are walked, in the order combinations_with_replacement yields them from
    e, ..., 0, and only those that give vertex 0 a degree from 2 to e. Each
    is followed by every multiset of the pairs among 1..n-1 that fills the
    level. Those come in lockstep with multisets of packed pair codes, one
    field per vertex 1..n-1 with a guard bit on top, so the sum of a code
    multiset holds each vertex's degree in the rest. Adding guard + row 0's
    multiplicity - 2 to each field leaves its guard bit set exactly when
    that vertex's degree is at least 2; a degree is at most e, so no field
    carries into the next.
    """
    width = e.bit_length() + 1
    guard = 1 << width - 1
    rest = [(u, v) for u in range(1, n) for v in range(u + 1, n)]
    codes = [(1 << width * (u - 1)) + (1 << width * (v - 1)) for u, v in rest]
    guards = sum(guard << width * (v - 1) for v in range(1, n))
    for row in combinations_with_replacement(range(e, -1, -1), n - 1):
        if not 2 <= sum(row) <= e:
            continue  # vertex 0's degree
        # from a list: tuple() of a generator is resized, and each row's head
        # would leave one more block on a tuple free list
        head = tuple([(0, v) for v, m in enumerate(row, 1) for _ in range(m)])
        lift = sum(guard + m - 2 << width * (v - 1) for v, m in enumerate(row, 1))
        k = e - len(head)
        sums = map(lift.__add__, map(sum, combinations_with_replacement(codes, k)))
        degree_two = map(guards.__eq__, map(guards.__and__, sums))
        for tail in compress(combinations_with_replacement(rest, k), degree_two):
            combo = head + tail
            if _lex_first(combo, n):
                yield combo


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
