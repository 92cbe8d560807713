"""Subgraph-density guarantees that force colorability.

A graph is guaranteed colorable when every induced subgraph is strictly
sparser than a critical graph of its order could be. Induced subgraphs
suffice: dropping edges on the same vertex set only loosens the inequality.
"""

from __future__ import annotations

from .cover import DEFAULT_MAX_COVERS
from .graph import BudgetError, DefectParams, Multigraph, Toughness
from .potential import Regime, regime
from .solver import is_colorable

DEFAULT_MAX_VERTICES = 20


def _within_bound(params: DefectParams, nv: int, ne: int) -> bool:
    """The regime's per-subgraph inequality on (|V(H)|, |E(H)|), exact arithmetic."""
    i, j = params.i, params.j
    r = regime(params)
    if r is Regime.ZERO_J:
        return ne <= nv + j - 1
    if r is Regime.LARGE:
        return (i + 1) * ne <= (2 * i + 1) * nv - (2 * i - j + 2)
    if r is Regime.MID:
        return (j + 1) * ne <= 2 * j * nv + 1
    if r is Regime.I_PLUS_ONE:
        return (i * i + 3 * i + 1) * ne <= (2 * i * i + 4 * i + 1) * nv
    if r is Regime.EQUAL:
        return (i + 2) * ne <= (2 * i + 2) * nv - 1
    raise ValueError("no sparsity guarantee for (0, 0)")


def violating_subset(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> frozenset[int] | None:
    """First vertex subset whose induced counts break the inequality, or None."""
    if g.n > max_vertices:
        raise BudgetError(f"graph has {g.n} vertices, limit is {max_vertices}")
    for mask in range(1, 1 << g.n):
        nv = bin(mask).count("1")
        ne = sum(1 for u, w in g.edges if mask >> u & 1 and mask >> w & 1)
        if not _within_bound(params, nv, ne):
            return frozenset(v for v in range(g.n) if mask >> v & 1)
    return None


def sparsity_guarantee(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> bool:
    """Whether every nonempty induced subgraph satisfies the regime inequality."""
    return violating_subset(g, params, max_vertices=max_vertices) is None


def guarantee_implies_colorable(
    g: Multigraph,
    params: DefectParams,
    *,
    max_covers: int = DEFAULT_MAX_COVERS,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> bool:
    """Test oracle: a guarantee-passing graph must be colorable over all covers.

    Always true unless something is wrong with the solver, the inequality, or
    the sparsity scan; property suites hammer this on random inputs.
    """
    if sparsity_guarantee(g, params, max_vertices=max_vertices):
        ok, _ = is_colorable(g, params, Toughness.zero(g.n), max_covers=max_covers)
        return ok
    return True
