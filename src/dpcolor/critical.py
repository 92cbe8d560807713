"""Criticality decision, bound reports, and exact minimum-edge mining."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement, groupby, permutations, product

from .cover import DEFAULT_MAX_COVERS, _caps, _parity_vectors
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
    one cover per bundle order (solver._kernel). The answer
    depends on no edge order, so H's edges are scanned in degree-first order
    (solver._degree_first), not G's: the edges among H's busiest vertices
    come first, where the tree prunes the most. Up to
    solver._TREE_MAX_VERTICES vertices the scan is the bit-parallel cover
    tree, and each uncolorable cover's checks are read off its leaf masks;
    above it, each cover is one branch-and-bound, and so is each check of an
    uncolorable one.
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
    it under zero toughness. Any other runs is_critical only if its canonical
    key (_canonical_key) is new; a class seen before was not critical, or the
    search would have stopped there.
    is_critical ignores vertex labels and edge order under zero toughness, so
    every multiset still gets its own verdict in enumeration order: the
    witness is the first critical multiset, and a BudgetError is raised
    where it was raised without the cache.
    """
    if n < 1:
        raise ValueError("need at least one vertex")
    if n > max_vertices:
        raise BudgetError(f"n = {n} exceeds the search limit of {max_vertices}")
    floor = max(math.ceil(edge_bound(params, n)), 1)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    t = Toughness.zero(n)
    not_critical: set[tuple[tuple[int, int], ...]] = set()
    for e in range(floor, max_edges + 1):
        if 2 * e >= n > 1:
            _parity_vectors(e, max_covers)  # is_critical's budget check, same message
        for combo in combinations_with_replacement(pairs, e):
            deg = [0] * n
            for u, v in combo:
                deg[u] += 1
                deg[v] += 1
            if 0 in deg or 1 in deg:
                continue
            key = _canonical_key(combo, deg)
            if key in not_critical:
                continue
            g = Multigraph(n, combo)
            if is_critical(g, params, t, max_covers=max_covers):
                return e, g
            not_critical.add(key)
    return None


def _canonical_key(
    edges: Sequence[tuple[int, int]], deg: list[int]
) -> tuple[tuple[int, int], ...]:
    """One key per isomorphism class of loop-free multigraphs on len(deg) vertices.

    Vertices are ordered by an invariant, their degree and then their sorted
    neighbour degrees (one per edge instance), and take consecutive labels in
    that order; the key is the least sorted relabeled edge tuple over the
    permutations inside each class of equal invariants. An isomorphism maps
    these labelings of one multigraph onto those of the other, so isomorphic
    multigraphs get the same key, and the key is itself a relabeling of each
    multigraph that has it.
    """
    near: list[list[int]] = [[] for _ in deg]
    for u, v in edges:
        near[u].append(deg[v])
        near[v].append(deg[u])
    invariant = [(d, sorted(ds)) for d, ds in zip(deg, near)]
    order = sorted(range(len(deg)), key=invariant.__getitem__)
    classes = [tuple(c) for _, c in groupby(order, key=invariant.__getitem__)]

    def relabeled(perm: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, int], ...]:
        label = {old: new for new, old in enumerate(chain.from_iterable(perm))}
        return tuple(sorted(tuple(sorted((label[u], label[v]))) for u, v in edges))

    return min(map(relabeled, product(*map(permutations, classes))))
