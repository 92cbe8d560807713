"""Coloring existence: branch-and-bound per cover, greedy repair, all-cover scans."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .cover import DEFAULT_MAX_COVERS, Cover, PhiMap, Side, _check_cover, _parity_vectors
from .graph import BudgetError, DefectParams, Multigraph, Toughness

DEFAULT_MAX_VERTICES = 32


class _Search:
    """Reusable branch-and-bound state for one (graph, params, toughness).

    Vertices are assigned in descending-degree order (ties by id), rich side
    first. A branch dies as soon as any assigned vertex's conflict count over
    decided edges exceeds its cap; counts only grow deeper in the tree, so the
    prune is sound and the first leaf reached is the deterministic witness.
    """

    def __init__(self, g: Multigraph, params: DefectParams, t: Toughness):
        self.n = g.n
        self.incident = g.incidence()
        deg = [len(inc) for inc in self.incident]
        self.order = sorted(range(g.n), key=lambda v: (-deg[v], v))
        # cap[v][side], indexed by the Side integer (RICH = 0, POOR = 1)
        self.cap = [(params.j - t.rich[v], params.i - t.poor[v]) for v in range(g.n)]

    def run(self, parity_bits: Sequence[int]) -> list[int] | None:
        sides = [-1] * self.n
        conf = [0] * self.n
        incident = self.incident
        cap = self.cap
        order = self.order

        def assign(pos: int) -> bool:
            if pos == len(order):
                return True
            v = order[pos]
            for s in (0, 1):
                cap_v = cap[v][s]
                if cap_v < 0:
                    continue
                mine = 0
                bumped: list[int] = []
                ok = True
                for u, e in incident[v]:
                    su = sides[u]
                    if su < 0:
                        continue
                    if parity_bits[e] ^ s ^ su == 0:
                        mine += 1
                        if mine > cap_v:
                            ok = False
                            break
                        conf[u] += 1
                        bumped.append(u)
                        if conf[u] > cap[u][su]:
                            ok = False
                            break
                if ok:
                    sides[v] = s
                    conf[v] = mine
                    if assign(pos + 1):
                        return True
                    sides[v] = -1
                    conf[v] = 0
                for u in bumped:
                    conf[u] -= 1
            return False

        return sides if assign(0) else None


def _prepared(g: Multigraph, params: DefectParams, t: Toughness | None) -> _Search:
    if t is None:
        t = Toughness.zero(g.n)
    t.check(params, g.n)
    return _Search(g, params, t)


def exhaustive_color(
    g: Multigraph,
    c: Cover,
    params: DefectParams,
    t: Toughness | None = None,
    *,
    max_vertices: int = DEFAULT_MAX_VERTICES,
) -> PhiMap | None:
    """A valid map for this cover, or None when none exists.

    Existence agrees with brute force over all 2^n side vectors; the returned
    witness is the first one in the deterministic branch order.
    """
    if g.n > max_vertices:
        raise BudgetError(f"graph has {g.n} vertices, limit is {max_vertices}")
    _check_cover(g, c)
    sides = _prepared(g, params, t).run([int(p) for p in c.parities])
    if sides is None:
        return None
    return PhiMap(tuple(Side(s) for s in sides))


def greedy_color(g: Multigraph, c: Cover, i: int) -> PhiMap | None:
    """Flip-repair for the symmetric (i, i) problem with zero toughness.

    Starts all-rich; while some vertex has more than i conflicts, flips the
    lowest-id such vertex provided the flip strictly lowers the number of
    conflicting edge instances, and gives up otherwise. Each incident edge
    conflicts with exactly one of the two sides, so a flip replaces c
    conflicts at v with d(v) - c; whenever every degree is at most 2i + 1 the
    flip always improves and the repair is guaranteed to finish. The total
    strictly drops at each step, so there are at most |E| flips.
    """
    if i < 0:
        raise ValueError("defect bound i must be non-negative")
    _check_cover(g, c)
    bits = [int(p) for p in c.parities]
    incident = g.incidence()
    sides = [0] * g.n
    conf = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        if bits[e] ^ sides[u] ^ sides[v] == 0:
            conf[u] += 1
            conf[v] += 1
    while True:
        v = next((w for w in range(g.n) if conf[w] >= i + 1), None)
        if v is None:
            return PhiMap(tuple(Side(s) for s in sides))
        flipped = len(incident[v]) - conf[v]
        if flipped >= conf[v]:
            return None
        sides[v] ^= 1
        for u, e in incident[v]:
            if bits[e] ^ sides[v] ^ sides[u] == 0:
                conf[u] += 1
            else:
                conf[u] -= 1
        conf[v] = flipped


def is_colorable(
    g: Multigraph,
    params: DefectParams,
    t: Toughness | None = None,
    *,
    max_covers: int = DEFAULT_MAX_COVERS,
) -> tuple[bool, Cover | None]:
    """Whether every cover admits a coloring.

    Returns (True, None), or (False, w) where w is the lexicographically
    first cover with no coloring: covers are scanned in lex order (edge 0
    most significant, E < O) and the scan stops at the first failure.
    """
    bad = next(_bad_covers(g, params, t, max_covers), None)
    return (True, None) if bad is None else (False, Cover(bad))


def _bad_covers(
    g: Multigraph, params: DefectParams, t: Toughness | None, max_covers: int
) -> Iterator[tuple[int, ...]]:
    """The parity vectors with no coloring, lazily and in lex order.

    The budget and the toughness are checked here, at the call, not at the
    first step of the returned iterator.
    """
    parities = _parity_vectors(len(g.edges), max_covers)
    search = _prepared(g, params, t)
    return (bits for bits in parities if search.run(bits) is None)


def partition_witness(g: Multigraph, i: int, a_set: Iterable[int]) -> int | None:
    """A vertex v outside A with (i+1)·d_A(v) + d_B(v) >= 2i + 2, or None.

    Degrees count edge instances. Such a vertex exists for every partition of
    an (i, i)-critical graph, which makes this a handy criticality probe.
    """
    if i < 0:
        raise ValueError("defect bound i must be non-negative")
    a = set(a_set)
    for v in a:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range [0, {g.n})")
    if not a or len(a) >= g.n:
        raise ValueError("A must be a nonempty proper subset of the vertices")
    incident = g.incidence()
    for v in sorted(set(range(g.n)) - a):
        d_a = sum(1 for u, _ in incident[v] if u in a)
        d_b = len(incident[v]) - d_a
        if (i + 1) * d_a + d_b >= 2 * i + 2:
            return v
    return None
