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

No vertex subset is enumerated. A set's value, vertex weights minus b times
its internal edges, is a unary term per vertex plus b per edge leaving the
set, so its minimum under "these vertices in, those out" is one s-t minimum
cut on n + 2 nodes (``_MinCut``). ``rho_graph`` and
``sparsity.violating_subset`` reach their exact tie-breaks by forcing one
vertex at a time, at most 2n max-flows a call. Both refuse graphs above
DEFAULT_MAX_VERTICES = 24 unless the caller raises the limit.
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


class _MinCut:
    """Minimum of val(S) = sum(weights[S]) - coeff * |E(G[S])| over S holding ins, avoiding outs.

    2 val(S) is the sum over v in S of 2 weights[v] - coeff deg(v), plus coeff times the number of
    edge instances leaving S, so it is an s-t cut on n + 2 nodes with S on the source side (Picard
    1976): a vertex pays a positive unary term on an arc to t and the negation of a negative one on
    an arc from s (their sum is added back), and each bundle of parallel edges is one arc of
    capacity coeff * multiplicity each way. A forced vertex gets an arc from s (in) or to t (out)
    heavier than all the others together, so no minimum cut leaves it on the wrong side. Each call
    is one Dinic max-flow in exact ints.
    """

    def __init__(self, g: Multigraph, weights: list[int], coeff: int) -> None:
        n = g.n
        self.s, self.t = n, n + 1
        self.cap = [[0] * (n + 2) for _ in range(n + 2)]
        deg = [0] * n
        for u, w in g.edges:
            self.cap[u][w] += coeff
            self.cap[w][u] += coeff
            deg[u] += 1
            deg[w] += 1
        self.offset = 0
        for v in range(n):
            unary = 2 * weights[v] - coeff * deg[v]
            if unary >= 0:
                self.cap[v][self.t] = unary
            else:
                self.cap[self.s][v] = -unary
                self.offset += unary
        self.heavy = 1 + sum(map(sum, self.cap))
        self.adj = [[w for w in range(n) if self.cap[v][w]] + [self.s, self.t] for v in range(n)]
        self.adj += [list(range(n)), list(range(n))]
        self.weights = weights

    def value(self, members: list[int]) -> int:
        """val(members) itself; each internal bundle sits twice in the arc matrix."""
        internal = sum(self.cap[u][w] for u in members for w in members)
        return sum(self.weights[v] for v in members) - internal // 2

    def minimum(self, ins: Iterable[int], outs: Iterable[int]) -> int:
        cap = [row[:] for row in self.cap]
        s, t, adj = self.s, self.t, self.adj
        for v in ins:
            cap[s][v] += self.heavy
        for v in outs:
            cap[v][t] += self.heavy
        flow = 0
        while True:
            level = [-1] * len(cap)
            level[s] = 0
            queue = [s]
            for u in queue:
                for w in adj[u]:
                    if level[w] < 0 and cap[u][w]:
                        level[w] = level[u] + 1
                        queue.append(w)
            if level[t] < 0:
                return (flow + self.offset) // 2
            tried = [0] * len(cap)

            def push(u: int, limit: int) -> int:
                if u == t:
                    return limit
                while tried[u] < len(adj[u]):
                    w = adj[u][tried[u]]
                    if cap[u][w] and level[w] == level[u] + 1:
                        got = push(w, min(limit, cap[u][w]))
                        if got:
                            cap[u][w] -= got
                            cap[w][u] += got
                            return got
                    tried[u] += 1
                return 0

            while got := push(s, sum(cap[s])):
                flow += got


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

    The value is a minimum s-t cut (``_MinCut``). Ties break to the
    lexicographically smallest subset as a sorted id tuple, found by forcing:
    the first vertex v* is the least v whose minimum with v in and every
    lower vertex out is the overall one; then each later u is kept if forcing
    it in still reaches the minimum and forced out if not, until the kept set
    reaches it alone. That is at most 2n max-flows. The empty set is
    excluded: its potential is always 0 and would clamp every threshold
    comparison. Graphs above max_vertices (24 by default) are refused.
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
    cut = _MinCut(g, [rho_vertex(params, t, v) for v in range(g.n)], coeff)
    firsts = [cut.minimum([v], range(v)) for v in range(g.n)]
    best = min(firsts)
    first = firsts.index(best)
    kept, dropped = [first], list(range(first))
    for u in range(first + 1, g.n):
        if cut.value(kept) == best:
            break
        if cut.minimum(kept + [u], dropped) == best:
            kept.append(u)
        else:
            dropped.append(u)
    return best, frozenset(kept)


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
