"""The regime table, vertex and set potentials, and the critical edge bounds.

For 0 <= i <= j other than (0, 0), every critical multigraph has
b|E| >= a|V| + k: its potential a|S| - b|E(S)| reaches -k or below. ``_row``
is the one place each regime's (a, b, k) is written:

    zero_j      i = 0, j >= 1            (1, 1, j)
    large       i >= 1, j >= 2i + 1      (2i + 1, i + 1, j - 2i)
    mid         i >= 1, i + 2 <= j <= 2i (2j, j + 1, 2)
    i_plus_one  i >= 1, j = i + 1        (2i^2 + 4i + 1, i^2 + 3i + 1, 1)
    equal       i = j >= 1               (2i + 2, i + 2, 0)

The first three give the scalar vertex potential a + t(v)(a - 2b), i_plus_one
a pair-valued one, and equal none. All arithmetic is exact: potentials are
ints, edge bounds are Fractions.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable, Iterator

from .graph import BudgetError, DefectParams, Multigraph, Toughness

DEFAULT_MAX_VERTICES = 24


class Regime(Enum):
    ZERO_J = "zero_j"
    LARGE = "large"
    MID = "mid"
    I_PLUS_ONE = "i_plus_one"
    EQUAL = "equal"
    ZERO_ZERO = "zero_zero"


_SCALAR_REGIMES = (Regime.ZERO_J, Regime.LARGE, Regime.MID)
_POTENTIAL_REGIMES = (*_SCALAR_REGIMES, Regime.I_PLUS_ONE)


def regime(params: DefectParams) -> Regime:
    i, j = params.i, params.j
    if i == 0:
        return Regime.ZERO_ZERO if j == 0 else Regime.ZERO_J
    if j == i:
        return Regime.EQUAL
    if j == i + 1:
        return Regime.I_PLUS_ONE
    if j >= 2 * i + 1:
        return Regime.LARGE
    return Regime.MID


def _row(params: DefectParams) -> tuple[int, int, int]:
    """The regime's (a, b, k): critical graphs satisfy b|E| >= a|V| + k."""
    i, j = params.i, params.j
    r = regime(params)
    if r is Regime.ZERO_J:
        return 1, 1, j
    if r is Regime.LARGE:
        return 2 * i + 1, i + 1, j - 2 * i
    if r is Regime.MID:
        return 2 * j, j + 1, 2
    if r is Regime.I_PLUS_ONE:
        return 2 * i * i + 4 * i + 1, i * i + 3 * i + 1, 1
    if r is Regime.EQUAL:
        return 2 * i + 2, i + 2, 0
    raise ValueError("no edge bound for (0, 0)")


def _potential_row(params: DefectParams) -> tuple[int, int, int]:
    """The row of a regime that has a potential: all but equal and (0, 0)."""
    r = regime(params)
    if r not in _POTENTIAL_REGIMES:
        raise ValueError(f"regime {r.value} has no potential")
    return _row(params)


def scalar_constants(params: DefectParams) -> tuple[int, int]:
    """The pair (a, b) behind the scalar potential; only three regimes have one."""
    r = regime(params)
    if r not in _SCALAR_REGIMES:
        raise ValueError(f"regime {r.value} has no scalar potential constants")
    a, b, _ = _row(params)
    return a, b


def weight_w(params: DefectParams, k: int) -> int:
    """Potential of a k-tough vertex: a + k(a - 2b)."""
    a, b = scalar_constants(params)
    if not 0 <= k <= params.j + 1:
        raise ValueError(f"toughness level {k} out of range [0, {params.j + 1}]")
    return a + k * (a - 2 * b)


def rho_vertex(params: DefectParams, t: Toughness, v: int) -> int:
    """Potential of one vertex under its toughness.

    Scalar regimes take a scalar map; j = i + 1 takes pairs, where the larger
    coordinate of (t_p, t_r) is weighted i + 1 and the smaller i, so the value
    is symmetric under swapping the pair.
    """
    if not 0 <= v < t.n:
        raise ValueError(f"vertex {v} out of range [0, {t.n})")
    a, _, _ = _potential_row(params)
    r = regime(params)
    if r is Regime.I_PLUS_ONE:
        if not t.is_refined:
            raise ValueError("regime i_plus_one requires refined toughness")
        i = params.i
        tp, tr = t.poor[v], t.rich[v]
        return a - (i + 1) * max(tp, tr) - i * min(tp, tr)
    if t.is_refined:
        raise ValueError(f"regime {r.value} requires scalar toughness")
    return weight_w(params, t.poor[v])


def rho_set(g: Multigraph, params: DefectParams, t: Toughness, s: Iterable[int]) -> int:
    """Sum of vertex potentials over s minus the edge coefficient times |E(G[s])|."""
    t.check(params, g.n)
    members = set(s)
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    _, coeff, _ = _potential_row(params)
    total = sum(rho_vertex(params, t, v) for v in members)
    internal = sum(1 for u, w in g.edges if u in members and w in members)
    return total - coeff * internal


def _subset_values(g: Multigraph, weights: list[int], coeff: int) -> Iterator[tuple[int, int]]:
    """Yield (mask, sum(weights[S]) - coeff * |E(G[S])|) for every nonempty S, masks ascending.

    Binary counting moves two vertices per step on average. gain[v], what adding v to S would
    add now, is kept current per edge instance, so no value is recomputed and memory is O(n + |E|).
    """
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, w in g.edges:
        nbrs[u].append(w)
        nbrs[w].append(u)
    gain = list(weights)
    val = 0
    for mask in range(1, 1 << g.n):
        v = 0
        while not mask >> v & 1:  # the trailing ones of mask - 1 leave S
            for u in nbrs[v]:
                gain[u] += coeff
            val -= gain[v]
            v += 1
        val += gain[v]
        for u in nbrs[v]:
            gain[u] -= coeff
        yield mask, val


def rho_graph(
    g: Multigraph,
    params: DefectParams,
    t: Toughness | None = None,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> tuple[int, frozenset[int]]:
    """Minimum potential over all nonempty vertex subsets, with its argmin.

    Without t, every vertex has zero toughness: pairs in the j = i + 1
    regime, scalars otherwise.

    Ties break to the lexicographically smallest subset (as a sorted id
    tuple), so the answer is independent of enumeration strategy. The empty
    set is excluded: its potential is always 0 and would clamp every
    threshold comparison.
    """
    if g.n > max_vertices:
        raise BudgetError(f"graph has {g.n} vertices, limit is {max_vertices}")
    if g.n == 0:
        raise ValueError("potential of the empty graph is undefined")
    if t is None:
        pairs = regime(params) is Regime.I_PLUS_ONE
        t = Toughness.zero_pairs(g.n) if pairs else Toughness.zero(g.n)
    t.check(params, g.n)
    _, coeff, _ = _potential_row(params)
    per_vertex = [rho_vertex(params, t, v) for v in range(g.n)]
    best_val: int | None = None
    best_key: tuple[int, ...] = ()
    for mask, val in _subset_values(g, per_vertex, coeff):
        if best_val is None or val <= best_val:
            key = tuple(v for v in range(g.n) if mask >> v & 1)
            if best_val is None or val < best_val or key < best_key:
                best_val, best_key = val, key
    assert best_val is not None
    return best_val, frozenset(best_key)


def potential_threshold(params: DefectParams) -> int:
    """The potential every critical instance must reach or undercut: -k,
    which is weight_w(params, j + 1) in the scalar regimes."""
    r = regime(params)
    if r not in _POTENTIAL_REGIMES:
        raise ValueError(f"regime {r.value} has no potential threshold")
    return -_row(params)[2]


def edge_bound(params: DefectParams, n: int) -> Fraction:
    """Exact lower bound on the edge count of an n-vertex critical multigraph."""
    if n < 1:
        raise ValueError("need at least one vertex")
    a, b, k = _row(params)
    return Fraction(a * n + k, b)
