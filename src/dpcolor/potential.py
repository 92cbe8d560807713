"""Regime constants, vertex and set potentials, and the critical edge bounds.

The pairs 0 <= i <= j split into six regimes. Three carry a scalar potential
built from constants (a, b):

    zero_j      i = 0, j >= 1          a = b = 1         rho(v) = 1 - t(v)
    large       i >= 1, j >= 2i + 1    a = 2i+1, b = i+1 rho(v) = 2i+1 - t(v)
    mid         i >= 1, i+2 <= j <= 2i a = 2j, b = j+1   rho(v) = 2j - 2 t(v)

The j = i + 1 regime uses pair-valued toughness and its own formula; j = i has
an edge bound but no potential, and (0, 0) is out of scope entirely. All
arithmetic is exact: potentials are ints, edge bounds are Fractions.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable

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


def scalar_constants(params: DefectParams) -> tuple[int, int]:
    """The pair (a, b) behind the scalar potential; only three regimes have one."""
    r = regime(params)
    if r is Regime.ZERO_J:
        return 1, 1
    if r is Regime.LARGE:
        return 2 * params.i + 1, params.i + 1
    if r is Regime.MID:
        return 2 * params.j, params.j + 1
    raise ValueError(f"regime {r.value} has no scalar potential constants")


def weight_w(params: DefectParams, k: int) -> int:
    """Potential of a k-tough vertex: a + k(a - 2b)."""
    a, b = scalar_constants(params)
    if not 0 <= k <= params.j + 1:
        raise ValueError(f"toughness level {k} out of range [0, {params.j + 1}]")
    return a + k * (a - 2 * b)


def _edge_coefficient(params: DefectParams) -> int:
    r = regime(params)
    if r in _SCALAR_REGIMES:
        return scalar_constants(params)[1]
    if r is Regime.I_PLUS_ONE:
        return params.i * params.i + 3 * params.i + 1
    raise ValueError(f"regime {r.value} has no potential")


def rho_vertex(params: DefectParams, t: Toughness, v: int) -> int:
    """Potential of one vertex under its toughness.

    Scalar regimes take a scalar map; j = i + 1 takes pairs, where the larger
    coordinate of (t_p, t_r) is weighted i + 1 and the smaller i, so the value
    is symmetric under swapping the pair.
    """
    if not 0 <= v < t.n:
        raise ValueError(f"vertex {v} out of range [0, {t.n})")
    r = regime(params)
    if r in _SCALAR_REGIMES:
        if t.is_refined:
            raise ValueError(f"regime {r.value} requires scalar toughness")
        tv = t.poor[v]
        if r is Regime.ZERO_J:
            return 1 - tv
        if r is Regime.LARGE:
            return 2 * params.i + 1 - tv
        return 2 * params.j - 2 * tv
    if r is Regime.I_PLUS_ONE:
        if not t.is_refined:
            raise ValueError("regime i_plus_one requires refined toughness")
        i = params.i
        tp, tr = t.poor[v], t.rich[v]
        return 2 * i * i + 4 * i + 1 - (i + 1) * max(tp, tr) - i * min(tp, tr)
    raise ValueError(f"regime {r.value} has no potential")


def rho_set(g: Multigraph, params: DefectParams, t: Toughness, s: Iterable[int]) -> int:
    """Sum of vertex potentials over s minus the edge coefficient times |E(G[s])|."""
    t.check(params, g.n)
    members = set(s)
    for v in members:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    coeff = _edge_coefficient(params)
    total = sum(rho_vertex(params, t, v) for v in members)
    internal = sum(1 for u, w in g.edges if u in members and w in members)
    return total - coeff * internal


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
    coeff = _edge_coefficient(params)
    per_vertex = [rho_vertex(params, t, v) for v in range(g.n)]
    best_val: int | None = None
    best_key: tuple[int, ...] = ()
    for mask in range(1, 1 << g.n):
        val = 0
        for v in range(g.n):
            if mask >> v & 1:
                val += per_vertex[v]
        for u, w in g.edges:
            if mask >> u & 1 and mask >> w & 1:
                val -= coeff
        if best_val is None or val < best_val:
            best_val = val
            best_key = tuple(v for v in range(g.n) if mask >> v & 1)
        elif val == best_val:
            key = tuple(v for v in range(g.n) if mask >> v & 1)
            if key < best_key:
                best_key = key
    assert best_val is not None
    return best_val, frozenset(best_key)


def potential_threshold(params: DefectParams) -> int:
    """The potential value every critical instance must reach or undercut."""
    r = regime(params)
    if r in _SCALAR_REGIMES:
        return weight_w(params, params.j + 1)
    if r is Regime.I_PLUS_ONE:
        return -1
    raise ValueError(f"regime {r.value} has no potential threshold")


def edge_bound(params: DefectParams, n: int) -> Fraction:
    """Exact lower bound on the edge count of an n-vertex critical multigraph."""
    if n < 1:
        raise ValueError("need at least one vertex")
    i, j = params.i, params.j
    r = regime(params)
    if r is Regime.ZERO_J:
        return Fraction(n + j)
    if r is Regime.LARGE:
        return Fraction((2 * i + 1) * n - (2 * i - j), i + 1)
    if r is Regime.MID:
        return Fraction(2 * j * n + 2, j + 1)
    if r is Regime.I_PLUS_ONE:
        return Fraction((2 * i * i + 4 * i + 1) * n + 1, i * i + 3 * i + 1)
    if r is Regime.EQUAL:
        return Fraction((2 * i + 2) * n, i + 2)
    raise ValueError("no edge bound for (0, 0)")
