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
``sparsity.violating_subset`` read their exact tie-breaks off the least and
greatest minimizers; one max-flow decides a negative potential or a
guarantee. Both refuse graphs above DEFAULT_MAX_VERTICES = 192 unless the
caller raises the limit.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Iterable

from .graph import BudgetError, DefectParams, Multigraph, Toughness

DEFAULT_MAX_VERTICES = 192


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
    h, members = g.induced_subgraph(s)
    _, coeff, _ = _potential_row(params)
    total = sum(rho_vertex(params, t, v) for v in members)
    return total - coeff * len(h.edges)


class _MinCut:
    """Minimum of val(S) = sum(weights[S]) - coeff * |E(G[S])| over S holding ins, avoiding outs.

    2 val(S) is the sum over v in S of 2 weights[v] - coeff deg(v), plus coeff times the number of
    edge instances leaving S, so it is an s-t cut on n + 2 nodes with S on the source side (Picard
    1976): v pays a positive unary term on arc v -> t (arc 2(n + v)) and a negative one negated
    on arc s -> v (arc 2v; their sum is added back), and a bundle of parallel edges is one arc of
    capacity coeff * multiplicity each way. Arc a's reverse is a ^ 1. Forcing v in (out) adds more
    than all capacities to its s (t) arc. Each call is one Dinic max-flow in exact ints, from zero
    or from a residual that forced less: forcing only adds capacity. Any maximum flow's residual
    gives the least minimizer, what s reaches, and the greatest, what cannot reach t (Picard and
    Queyranne 1980); only a caller that reads the greatest pays for its backward pass.
    """

    def __init__(self, g: Multigraph, weights: list[int], coeff: int) -> None:
        n = g.n
        self.s, self.t = n, n + 1
        deg = [0] * n
        bundles: dict[tuple[int, int], int] = {}
        for u, w in g.edges:
            deg[u] += 1
            deg[w] += 1
            bundle = (u, w) if u < w else (w, u)
            bundles[bundle] = bundles.get(bundle, 0) + coeff
        unary = [2 * weights[v] - coeff * deg[v] for v in range(n)]
        self.offset = sum(x for x in unary if x < 0)
        head, cap = [], []
        for v in range(n):
            head += [v, n]
            cap += [max(-unary[v], 0), 0]
        for v in range(n):
            head += [n + 1, v]
            cap += [max(unary[v], 0), 0]
        adj = [[2 * (n + v)] for v in range(n)]  # no walk takes an arc back into s
        adj += [list(range(0, 2 * n, 2)), list(range(2 * n + 1, 4 * n, 2))]
        for (u, w), c in bundles.items():
            adj[u].append(len(head))
            adj[w].append(len(head) + 1)
            head += [w, u]
            cap += [c, c]
        self.head, self.cap, self.adj = head, cap, adj
        self.heavy = 1 + sum(cap)

    def minimum(
        self, ins: Iterable[int], outs: Iterable[int], warm: tuple | None = None
    ) -> tuple[int, list[int], tuple]:
        """The minimum value, the least minimizer as a sorted list, and the residual, a warm
        start for calls that force more and the input of greatest."""
        ins, outs = frozenset(ins), frozenset(outs)
        was_in, was_out, cap, flow = warm or (frozenset(), frozenset(), self.cap, 0)
        if not (was_in <= ins and was_out <= outs):
            raise ValueError("a warm start must force a subset of the vertices forced now")
        cap = cap[:]
        s, t, head, adj = self.s, self.t, self.head, self.adj
        n = s
        for v in ins - was_in:
            cap[2 * v] += self.heavy
        for v in outs - was_out:
            cap[2 * (n + v)] += self.heavy
        while True:
            level = [-1] * (n + 2)
            level[s] = 0
            queue = [s]
            for u in queue:
                if level[t] >= 0:
                    break
                for a in adj[u]:
                    if cap[a] and level[head[a]] < 0:
                        level[head[a]] = level[u] + 1
                        queue.append(head[a])
            if level[t] < 0:
                break
            # blocking flow: walk the level graph depth first on an explicit stack of arcs, where
            # tried[u] is the next arc of u still worth trying; a dead end's level becomes -1
            tried = [0] * (n + 2)
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    got = min([cap[a] for a in path])
                    for a in path:
                        cap[a] -= got
                        cap[a ^ 1] += got
                    flow += got
                    # resume from the tail of the first arc the path saturated
                    del path[next(k for k, a in enumerate(path) if not cap[a]) :]
                    u = head[path[-1]] if path else s
                    continue
                out = adj[u]
                while tried[u] < len(out):
                    a = out[tried[u]]
                    if cap[a] and level[head[a]] == level[u] + 1:
                        path.append(a)
                        u = head[a]
                        break
                    tried[u] += 1
                else:
                    level[u] = -1
                    if not path:
                        break
                    u = head[path.pop() ^ 1]
                    tried[u] += 1
        # level marks what s reaches
        least = [v for v in range(n) if level[v] >= 0]
        return (flow + self.offset) // 2, least, (ins, outs, cap, flow)

    def greatest(self, residual: tuple) -> list[int]:
        """The greatest minimizer of the cut that left residual, as a sorted list: the vertices
        that cannot reach t, marked backwards along residual arcs."""
        cap, head, adj, t = residual[2], self.head, self.adj, self.t
        sink = [False] * (t + 1)
        sink[t] = True
        queue = [t]
        for w in queue:
            for a in adj[w]:
                if not sink[head[a]] and cap[a ^ 1]:
                    sink[head[a]] = True
                    queue.append(head[a])
        return [v for v in range(self.s) if not sink[v]]


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
    lexicographically smallest subset as a sorted id tuple: the shortest
    prefix of the greatest minimizer that reaches the minimum, as a vertex
    lies in some minimizer exactly when it lies in the greatest. If only the
    empty set is one, n more cuts, warm-started from the first, force the
    least vertex first. The empty set is excluded: its potential is always 0
    and would clamp every threshold comparison. Graphs above max_vertices
    (192 by default) are refused.
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
    weights = [rho_vertex(params, t, v) for v in range(g.n)]
    cut = _MinCut(g, weights, coeff)
    best, _, residual = cut.minimum((), ())
    top = cut.greatest(residual)
    if not top:
        forced = (cut.minimum([v], range(v), residual) for v in range(g.n))
        best, _, residual = min(forced, key=lambda found: found[0])
        top = cut.greatest(residual)
    incident, inside = g.incidence(), [False] * g.n
    kept, value = [], 0
    for u in top:
        value += weights[u] - coeff * sum([inside[w] for w, _ in incident[u]])
        inside[u] = True
        kept.append(u)
        if value == best:
            break
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
