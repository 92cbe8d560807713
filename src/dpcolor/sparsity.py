"""Subgraph-density guarantees that force colorability.

A graph is guaranteed colorable when every induced subgraph is strictly
sparser than a critical graph of its order could be. Induced subgraphs
suffice: dropping edges on the same vertex set only loosens the inequality.
"""

from __future__ import annotations

from .cover import DEFAULT_MAX_COVERS
from .graph import BudgetError, DefectParams, Multigraph, Toughness
from .potential import DEFAULT_MAX_VERTICES, Regime, _MinCut, _row, regime
from .solver import is_colorable


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


def violating_subset(
    g: Multigraph, params: DefectParams, *, max_vertices: int = DEFAULT_MAX_VERTICES
) -> frozenset[int] | None:
    """First vertex subset in numeric mask order whose induced counts break the inequality, or None.

    Each test "some S with these vertices in and those out breaks it" is one minimum cut
    (``potential._MinCut``). The top vertex is the least v that has a violating S with v in and
    every higher vertex out; walking down from it, a vertex is left out whenever a violating set
    survives without it. That is at most 2n max-flows. Graphs above max_vertices (192 by default)
    are refused.
    """
    if g.n > max_vertices:
        raise BudgetError(f"graph has {g.n} vertices, limit is {max_vertices}")
    a, b, c = _inequality(params)
    cut = _MinCut(g, [a] * g.n, b)
    top = next((v for v in range(g.n) if cut.minimum([v], range(v + 1, g.n)) < c), None)
    if top is None:
        return None
    kept, dropped = [top], list(range(top + 1, g.n))
    for u in range(top - 1, -1, -1):
        if cut.minimum(kept, dropped + [u]) < c:
            dropped.append(u)
        else:
            kept.append(u)
    return frozenset(kept)


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
