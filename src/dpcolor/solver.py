"""Coloring existence: branch-and-bound per cover, greedy repair, all-cover scans."""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .cover import DEFAULT_MAX_COVERS, Cover, PhiMap, Side, _check_cover, _parity_vectors
from .graph import BudgetError, DefectParams, Multigraph, Toughness

DEFAULT_MAX_VERTICES = 32

# caps[v][side]: the most conflicts v may take on a side, indexed by the Side
# integer (RICH = 0, POOR = 1); a negative cap rules that side out
Caps = Sequence[tuple[int, int]]


class _Search:
    """Reusable branch-and-bound state for one graph and its caps.

    Vertices are assigned in descending-degree order (ties by id), rich side
    first. A branch dies as soon as any assigned vertex's conflict count over
    decided edges exceeds its cap; counts only grow deeper in the tree, so the
    prune is sound and the first leaf reached is the deterministic witness.
    """

    def __init__(self, g: Multigraph, caps: Caps):
        self.n = g.n
        self.incident = g.incidence()
        deg = [len(inc) for inc in self.incident]
        self.order = sorted((v for v in range(g.n) if deg[v]), key=lambda v: (-deg[v], v))
        self.cap = caps
        # An isolated vertex never conflicts, so it takes its first side with a
        # non-negative cap, rich first, before the search: the recursion only
        # goes as deep as the non-isolated vertices. With neither side, no map exists.
        self.hopeless = any(not deg[v] and max(self.cap[v]) < 0 for v in range(g.n))
        self.start = [-1 if deg[v] else int(self.cap[v][0] < 0) for v in range(g.n)]

    def run(self, parity_bits: Sequence[int]) -> list[int] | None:
        if self.hopeless:
            return None
        sides = list(self.start)
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


def _checked(g: Multigraph, params: DefectParams, t: Toughness | None) -> Toughness:
    if t is None:
        t = Toughness.zero(g.n)
    t.check(params, g.n)
    return t


def _scan_checked(
    g: Multigraph, params: DefectParams, t: Toughness | None, max_covers: int
) -> Toughness:
    """The checks every all-cover scan makes at its call: the budget on G's raw
    2^|E| covers, then G's toughness."""
    _parity_vectors(len(g.edges), max_covers)
    return _checked(g, params, t)


def _caps(params: DefectParams, t: Toughness) -> list[tuple[int, int]]:
    """Per vertex v, (j - t_r(v), i - t_p(v)): its rich and poor caps."""
    return [(params.j - tr, params.i - tp) for tp, tr in zip(t.poor, t.rich)]


def _flags(g: Multigraph, caps: Caps) -> dict[int, int]:
    """Each flag of g that folds (see _fold), mapped to its base."""
    flags: dict[int, int] = {}
    for x, inc in enumerate(g.incidence()):
        if len(inc) != 2 or inc[0][0] != inc[1][0] or inc[0][0] in flags:
            continue
        if min(caps[x]) >= 0 and max(caps[x]) >= 1:
            flags[x] = inc[0][0]
    return flags


def _fold(
    g: Multigraph, params: DefectParams, t: Toughness
) -> tuple[Multigraph, list[tuple[int, int]], list[int]]:
    """The core H of g without its flags, H's caps, and the bases of the flags.

    A flag is a vertex x of degree 2 whose two edges both go to one base v,
    and it folds when both of its caps are non-negative and one is at least 1.
    If the cover gives the two edges different parities, exactly one of them
    conflicts whatever the sides, so v and x each take one conflict, which x
    can afford on a side with cap >= 1. If they agree, x takes the side on
    which neither conflicts, which its non-negative caps allow wherever v lies.
    More conflicts never help, so g is colorable over every cover exactly when
    H is with each base's caps lowered by one per flag folded there. Only
    vertices of g fold, with no cascade; in a bare digon one end stays as the
    base. H keeps g's vertex and edge order, and the bases are H's ids of the
    vertices with a flag folded, in ascending order.
    """
    caps = _caps(params, t)
    folded = [0] * g.n  # flags folded at each base
    flags = _flags(g, caps)
    for v in flags.values():
        folded[v] += 1
    h, keep = g.induced_subgraph(v for v in range(g.n) if v not in flags)
    h_caps = [(caps[v][0] - folded[v], caps[v][1] - folded[v]) for v in keep]
    return h, h_caps, [k for k, v in enumerate(keep) if folded[v]]


def _degree_first(g: Multigraph) -> tuple[Multigraph, list[int]]:
    """g with its edges in verdict-scan order, and the new id of each edge of g.

    Vertices are ranked as _Search assigns them, by descending degree with
    ties by id, and an edge is keyed by the rank of its later endpoint, then
    of its earlier one; parallel edges keep their order. So the edges among
    the busiest vertices are decided first, where the cover tree's caps and
    slack prune cut the most. Relabeling edges changes no verdict, only the
    order in which the bad covers come.
    """
    deg = [len(inc) for inc in g.incidence()]
    rank = [0] * g.n
    for r, v in enumerate(sorted(range(g.n), key=lambda v: (-deg[v], v))):
        rank[v] = r
    order = sorted(
        range(len(g.edges)), key=lambda e: sorted(map(rank.__getitem__, g.edges[e]), reverse=True)
    )
    position = [0] * len(order)
    for k, e in enumerate(order):
        position[e] = k
    return Multigraph(g.n, tuple(g.edges[e] for e in order)), position


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
    sides = _Search(g, _caps(params, _checked(g, params, t))).run([int(p) for p in c.parities])
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
    first cover with no coloring: edge 0 most significant, E < O.
    max_covers bounds G's raw 2^|E|. The verdict comes from one scan of g
    without its flags (_fold), with its edges in degree-first order
    (_degree_first); only an uncolorable g is scanned again, for the
    witness (_first_bad_cover).
    """
    t = _scan_checked(g, params, t, max_covers)
    h, caps, _ = _fold(g, params, t)
    if next(_kernel(_degree_first(h)[0], caps)[0], None) is None:
        return True, None
    return False, Cover(_first_bad_cover(g, _caps(params, t)))


def _first_bad_cover(g: Multigraph, caps: Caps) -> tuple[int, ...]:
    """The lex-first bad cover of g, which must have one.

    With no flag folded, it is the first cover of one lex scan of g.
    Otherwise g's edges are fixed one at a time in g's order, E kept while g
    still has a bad cover under the prefix, and each question is a verdict
    scan of the core H. By _fold's argument, g is uncolorable under a cover
    exactly when H is under its restriction, with each base's caps lowered
    by one per flag whose two parities differ. Lower caps never help, so a
    flag with an undecided edge counts one, as the cover can still make it
    mixed; a flag with both edges decided counts one if they differ and
    none if they agree. So a flag's first edge changes nothing and takes E
    without a scan: at most |E| scans of H, each in degree-first order.
    """
    flags = _flags(g, caps)
    if not flags:
        return next(_kernel(g, caps)[0])
    h, keep = g.induced_subgraph(v for v in range(g.n) if v not in flags)
    scan_h, position = _degree_first(h)
    fixed: list[int | None] = [None] * len(position)
    lowered = [0] * g.n  # per base, the flags that still count one
    for v in flags.values():
        lowered[v] += 1

    def bad_cover_left() -> bool:
        scan_caps = [(caps[v][0] - lowered[v], caps[v][1] - lowered[v]) for v in keep]
        return next(_kernel(scan_h, scan_caps, fixed=fixed)[0], None) is not None

    bits: list[int] = []
    slots = iter(position)  # H keeps g's edge order, so its edges come in turn
    half_decided: set[int] = set()
    for u, w in g.edges:
        x = u if u in flags else w if w in flags else None
        if x is None:
            k = next(slots)
            fixed[k] = 0
            bit = 0 if bad_cover_left() else 1
            fixed[k] = bit
        elif x not in half_decided:
            half_decided.add(x)
            bit = 0
        else:
            # E after E: the flag agrees and stops counting at its base
            lowered[flags[x]] -= 1
            bit = 0 if bad_cover_left() else 1
            lowered[flags[x]] += bit
        bits.append(bit)
    return tuple(bits)


def _kernel(
    g: Multigraph, caps: Caps, bases: Sequence[int] = (), *, fixed: Sequence[int | None] = ()
) -> tuple[Iterator[tuple[int, ...]], Callable[[tuple[int, ...]], bool]]:
    """The bad covers of g under caps, and whether the one last yielded colors
    each g - e and g with the caps of each base in bases raised by one.

    Edge e takes only the parity fixed[e] where that is 0 or 1; an edge past
    the end of fixed, or fixed at None, takes both, so a prefix for fixed
    keeps the covers that start with it.

    Up to _TREE_MAX_VERTICES vertices both come from one _CoverTree, above from
    one _Search per cover and per check, with the same answers in the same order.
    """
    choices = [
        (0, 1) if e >= len(fixed) or fixed[e] is None else (fixed[e],) for e in range(len(g.edges))
    ]
    if g.n <= _TREE_MAX_VERTICES:
        tree = _CoverTree()
        return tree.bad_covers(g, caps, bases, choices), tree.deletions_colorable
    search = _Search(g, caps)
    checks: list[tuple[_Search, int | None]] = []

    def deletions_colorable(bits: tuple[int, ...]) -> bool:
        if not checks:
            checks.extend((_Search(g.delete_edge(e), caps), e) for e in range(len(g.edges)))
            for v in bases:
                raised = list(caps)
                raised[v] = (caps[v][0] + 1, caps[v][1] + 1)
                checks.append((_Search(g, raised), None))
        # delete_edge shifts later ids down, so dropping bit e restricts the cover
        return all(
            s.run(bits if e is None else bits[:e] + bits[e + 1 :]) is not None for s, e in checks
        )

    return (bits for bits in product(*choices) if search.run(bits) is None), deletions_colorable


# Up to this many vertices the masks of _CoverTree (2^n bits) beat one _Search
# per cover; sparse graphs lose on the tree from n = 15 (sweep in CHANGES.md).
_TREE_MAX_VERTICES = 14


class _CoverTree:
    """Every side map of g at once, over a depth-first tree of parity vectors.

    Map x puts vertex v on its poor side when bit v of x is set; a set of maps
    is one 2^n-bit int. Depth k decides edge k, E before O unless its parity
    is fixed, so leaves come in lex order. T[v][c] holds the maps with at
    least c conflicts at v over the decided edges, up to c = max cap + 2.
    Edge uw conflicts exactly on the maps where s_u XOR s_w equals its
    parity, so a node costs a few big-int operations per endpoint. While
    bad_covers is paused at a bad cover, deletions_colorable reads that
    leaf's masks.
    """

    def bad_covers(
        self, g: Multigraph, caps: Caps, bases: Sequence[int], choices: Sequence[Sequence[int]]
    ) -> Iterator[tuple[int, ...]]:
        n, self.edges, self.choices = g.n, g.edges, choices
        self.full = full = (1 << (1 << n)) - 1
        poor = []
        for v in range(n):
            half = 1 << v  # bit v of a map index: 2^v zeros, then 2^v ones, repeated
            poor.append(full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
        self.diff = [poor[u] ^ poor[w] for u, w in g.edges]
        # per vertex: poor maps, rich maps and the conflict count that breaks
        # each side's cap (0 for a side whose cap is negative)
        self.sides = [
            (p, full ^ p, max(cp + 1, 0), max(cr + 1, 0)) for p, (cr, cp) in zip(poor, caps)
        ]
        # per base, the counts that break its caps raised by one; a cap below
        # -1 stays negative, so its count stays 0 and is not a + 1
        self.raised = [(v, max(caps[v][1] + 2, 0), max(caps[v][0] + 2, 0)) for v in bases]
        self.T = [[full] + [0] * (max(kp, kr) + 1) for _, _, kp, kr in self.sides]
        self.start = full
        for ok in self._allowed():
            self.start &= ok
        self.bits = [0] * len(g.edges)
        # rest[k]: each vertex with d > 0 undecided edges at depth k, with its
        # masks and the counts that break its caps once d more conflicts come
        self.rest: list[list[tuple[int, int, int, int, int]]] = [[]]
        deg = [0] * n
        for u, w in reversed(g.edges):
            deg[u] += 1
            deg[w] += 1
            sides = zip(range(n), deg, self.sides)
            self.rest.insert(
                0, [(p, r, v, max(a - d, 0), max(b - d, 0)) for v, d, (p, r, a, b) in sides if d]
            )
        yield from self.walk(0, self.start)

    def _allowed(self) -> list[int]:
        """Per vertex, the maps within its caps over the decided edges."""
        T = self.T
        return [
            ~(p & T[v][a] | r & T[v][b]) & self.full for v, (p, r, a, b) in enumerate(self.sides)
        ]

    def walk(self, k: int, valid: int) -> Iterator[tuple[int, ...]]:
        if k == len(self.bits):
            if not valid:
                yield tuple(self.bits)
            return
        T = self.T
        if valid:
            # slack prune: a map within every cap with all of the remaining
            # edges counted as conflicts colors every cover of the subtree
            fits = valid
            for p, r, v, a, b in self.rest[k]:
                fits &= ~(p & T[v][a] | r & T[v][b])
                if not fits:
                    break
            else:
                return
        u, w = self.edges[k]
        (pu, ru, au, bu), (pw, rw, aw, bw) = self.sides[u], self.sides[w]
        tu, tw = T[u], T[w]
        masks = (self.full ^ self.diff[k], self.diff[k])
        for bit in self.choices[k]:
            c = masks[bit]
            T[u] = nu = [tu[0]] + [x | y & c for x, y in zip(tu[1:], tu)]
            T[w] = nw = [tw[0]] + [x | y & c for x, y in zip(tw[1:], tw)]
            self.bits[k] = bit
            over = pu & nu[au] | ru & nu[bu] | pw & nw[aw] | rw & nw[bw]
            yield from self.walk(k + 1, valid & ~over)
        T[u], T[w] = tu, tw

    def deletions_colorable(self, bits: tuple[int, ...]) -> bool:
        """Whether each g - e, and g with each base's caps raised by one, is
        colorable under the leaf's cover restricted to it.

        Deleting e = uw lowers the counts at u and w by one on e's conflict
        mask c; raising a base's caps reads its masks one count higher. Every
        other vertex keeps the maps it allows at the leaf.
        """
        T, allowed = self.T, self._allowed()
        for e, (u, w) in enumerate(self.edges):
            c = self.diff[e] if bits[e] else self.full ^ self.diff[e]
            maps = self.start
            for v, ok in enumerate(allowed):
                if v == u or v == w:
                    p, r, a, b = self.sides[v]
                    ok = ~(p & (T[v][a + 1] | T[v][a] & ~c) | r & (T[v][b + 1] | T[v][b] & ~c))
                maps &= ok
            if not maps:
                return False
        for base, a, b in self.raised:
            # not self.start, which holds the base's caps before they are raised
            p, r, _, _ = self.sides[base]
            maps = ~(p & T[base][a] | r & T[base][b]) & self.full
            for v, ok in enumerate(allowed):
                if v != base:
                    maps &= ok
            if not maps:
                return False
        return True


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
