"""Subgraph-density guarantees that force colorability.

A graph is guaranteed colorable when every induced subgraph is strictly
sparser than a critical graph of its order could be. Induced subgraphs
suffice: dropping edges on the same vertex set only loosens the inequality.
"""

from __future__ import annotations

from .cover import DEFAULT_MAX_COVERS
from .graph import BudgetError, DefectParams, Multigraph, Toughness
from .potential import DEFAULT_MAX_VERTICES, Regime, _subset_values, regime
from .solver import is_colorable


def _inequality(params: DefectParams) -> tuple[int, int, int]:
    """The regime's per-subgraph inequality a|V(H)| - b|E(H)| >= c, as (a, b, c)."""
    i, j = params.i, params.j
    r = regime(params)
    if r is Regime.ZERO_J:
        return 1, 1, 1 - j
    if r is Regime.LARGE:
        return 2 * i + 1, i + 1, 2 * i - j + 2
    if r is Regime.MID:
        return 2 * j, j + 1, -1
    if r is Regime.I_PLUS_ONE:
        return 2 * i * i + 4 * i + 1, i * i + 3 * i + 1, 0
    if r is Regime.EQUAL:
        return 2 * i + 2, i + 2, 1
    raise ValueError("no sparsity guarantee for (0, 0)")


def violating_subset(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> frozenset[int] | None:
    """First vertex subset whose induced counts break the inequality, or None."""
    if g.n > max_vertices:
        raise BudgetError(f"graph has {g.n} vertices, limit is {max_vertices}")
    a, b, c = _inequality(params)
    for mask, val in _subset_values(g, [a] * g.n, b):
        if val < c:
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
