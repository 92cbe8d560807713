"""Subgraph-density guarantees that force colorability.

A graph is guaranteed colorable when every induced subgraph is strictly
sparser than a critical graph of its order could be. Induced subgraphs
suffice: dropping edges on the same vertex set only loosens the inequality.
"""

from __future__ import annotations

from collections.abc import Callable

from .graph import DefectParams, Multigraph, _check_vertices
from .potential import DEFAULT_MAX_VERTICES, Regime, _MinCut, _row, regime


def _inequality(params: DefectParams) -> tuple[int, int, int]:
    """The regime's per-subgraph inequality a|V(H)| - b|E(H)| >= c, as (a, b, c).

    A critical subgraph has a|V| - b|E| <= -k, so c = 1 - k excludes every
    one. The large regime asks for c = 2 - k, one more than that: lowering it
    would change which graphs get a guarantee, and is an open question.
    """
    r = regime(params)
    if r is Regime.ZERO_ZERO:
        raise ValueError("no sparsity guarantee for (0, 0)")
    a, b, k = _row(params)
    return a, b, (2 if r is Regime.LARGE else 1) - k


def _violations(
    g: Multigraph, params: DefectParams, max_vertices: int
) -> Callable[[list[int], list[int] | range], set[int] | None]:
    """Whether a vertex set that holds ins and avoids outs breaks the inequality: the least
    such set that one ``potential._MinCut`` finds, or None.

    As c <= 1, S breaks it exactly when (n + 1)(a|S| - b|E(S)|) - |S| < (n + 1)(c - 1), which
    the empty set never does. A cut starts from the last violating one, so it must force more.
    Graphs above max_vertices are refused.
    """
    _check_vertices(g.n, max_vertices)
    a, b, c = _inequality(params)
    n = g.n
    cut = _MinCut(g, [(n + 1) * a - 1] * n, (n + 1) * b)
    accepted = None

    def violated(ins: list[int], outs: list[int] | range) -> set[int] | None:
        nonlocal accepted
        value, least, residual = cut.minimum(ins, outs, accepted)
        if value < (n + 1) * (c - 1):
            accepted = residual
            return set(least)
        return None

    return violated


def violating_subset(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> frozenset[int] | None:
    """First vertex subset in numeric mask order whose induced counts break the inequality, or None.

    Each question, whether a violating set holds these vertices and avoids those, is one cut
    (_violations). The top vertex, the least v with a violating set inside 0..v, is found by
    binary search; walking down, a vertex is dropped whenever a violating set survives without
    it, with no cut if the last violating cut's least minimizer avoids it. Every cut forces
    more than the last violating one, so it starts warm. Graphs above max_vertices (192 by
    default) are refused.
    """
    violated = _violations(g, params, max_vertices)
    n = g.n
    witness = violated([], [])
    if witness is None:
        return None
    lo, top = 0, n - 1
    while lo < top:
        mid = (lo + top) // 2
        found = violated([], range(mid + 1, n))
        if found is None:
            lo = mid + 1
        else:
            top, witness = mid, found
    kept, dropped = [top], list(range(top + 1, n))
    for u in range(top - 1, -1, -1):
        found = violated(kept, dropped + [u]) if u in witness else witness
        if found is None:
            kept.append(u)
        else:
            witness = found
            dropped.append(u)
    return frozenset(kept)


def sparsity_guarantee(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> bool:
    """Whether every nonempty induced subgraph satisfies the regime inequality: one cut."""
    return _violations(g, params, max_vertices)([], []) is None
