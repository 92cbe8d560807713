"""Coloring existence: branch-and-bound per cover, greedy repair, all-cover scans."""

from __future__ import annotations

from functools import cache
from typing import Callable, Iterable, Iterator, Sequence

from .cover import (
    DEFAULT_MAX_COVERS,
    Caps,
    Cover,
    PhiMap,
    Side,
    _check_cover,
    _check_covers,
    _checked,
    conflict_degrees,
)
from .covertree import _CoverTree
from .graph import DefectParams, Multigraph, Toughness, _check_vertex, _check_vertices

DEFAULT_MAX_VERTICES = 32


def _busiest_first(incident: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """g's vertices by descending degree, ties by id (sorted is stable), from
    its incidence lists."""
    return sorted(range(len(incident)), key=lambda v: -len(incident[v]))


class _Search:
    """Reusable branch-and-bound state for one graph; run takes a cover and caps.

    Vertices are assigned busiest first (_busiest_first), rich side first. A
    branch dies as soon as any assigned vertex's conflict count over decided
    edges exceeds its cap; counts only grow deeper in the tree, so the prune
    is sound and the first leaf reached is the deterministic witness.
    Isolated vertices come last and never conflict, so each takes its first
    side with a non-negative cap, rich first, and is never backtracked into.
    """

    def __init__(self, g: Multigraph):
        self.n = g.n
        self.incident = g.incidence()
        self.order = _busiest_first(self.incident)

    def run(self, parity_bits: Sequence[int], cap: Caps) -> list[int] | None:
        """The first side map within cap under parity_bits, or None."""
        if min(map(max, cap), default=0) < 0:  # a vertex with neither side
            return None
        sides = [-1] * self.n
        conf = [0] * self.n
        incident = self.incident
        order = self.order
        # trail[k]: the side order[k] took and the neighbours it bumped
        trail: list[tuple[int, list[int]]] = []
        pos, s = 0, 0  # s: the next side to try at order[pos]
        while pos < len(order):
            v = order[pos]
            while s < 2:
                cap_v = cap[v][s]
                if cap_v >= 0:
                    mine = 0
                    bumped: list[int] = []
                    for u, e in incident[v]:
                        su = sides[u]
                        # a parity of 2 marks an absent edge: 2 ^ s ^ su is never 0
                        if su >= 0 and parity_bits[e] ^ s ^ su == 0:
                            mine += 1
                            if mine > cap_v:
                                break
                            conf[u] += 1
                            bumped.append(u)
                            if conf[u] > cap[u][su]:
                                break
                    else:
                        sides[v] = s
                        conf[v] = mine
                        trail.append((s, bumped))
                        break
                    for u in bumped:
                        conf[u] -= 1
                s += 1
            if s < 2:
                pos, s = pos + 1, 0
                continue
            if not trail:
                return None
            pos -= 1
            v = order[pos]
            s, bumped = trail.pop()
            sides[v] = -1
            conf[v] = 0
            for u in bumped:
                conf[u] -= 1
            s += 1
        return sides


def _scan_checked(
    g: Multigraph, params: DefectParams, t: Toughness | None, max_covers: int
) -> list[tuple[int, int]]:
    """The checks every all-cover scan makes at its call: the budget on G's raw
    2^|E| covers, then G's toughness; returns G's caps."""
    _check_covers(len(g.edges), max_covers)
    return _checked(g, params, t)


def _fold(
    g: Multigraph, caps: Caps, fixed: Sequence[int | None] = ()
) -> tuple[Multigraph, list[tuple[int, int]], list[int], list[int | None]]:
    """The core H of g without its flags, H's caps, the bases of the flags,
    and fixed restricted to H's edges: the one statement of the flag rule.

    A flag is a vertex x of degree 2 whose two edges both go to one base v,
    and it folds when both of its caps are non-negative and one is at least 1.
    If the cover gives the two edges different parities, exactly one of them
    conflicts whatever the sides, so v and x each take one conflict, which x
    can afford on a side with cap >= 1. If they agree, x takes the side on
    which neither conflicts, which its non-negative caps allow wherever v lies.
    More conflicts never help, so a flag lowers its base's caps by one unless
    fixed (parities of g's edges, None or past its end for undecided) gives
    both of its edges the same parity: g has a bad cover that extends fixed
    exactly when H has one that extends H's part of it. Only vertices of g
    fold, with no cascade; in a bare digon one end stays as the base. H keeps
    g's vertex and edge order, so a prefix of g's edges restricts to a prefix
    of H's, and the bases are H's ids of the vertices with a flag folded, in
    ascending order. When no vertex folds, H is g itself.
    """
    flags: dict[int, int] = {}
    lower = [0] * g.n  # per base, what its caps go down by
    for x, inc in enumerate(g.incidence()):
        if len(inc) != 2 or inc[0][0] != inc[1][0] or inc[0][0] in flags:
            continue
        if min(caps[x]) >= 0 and max(caps[x]) >= 1:
            (v, e), (_, f) = inc
            flags[x] = v
            p, q = (fixed[d] if d < len(fixed) else None for d in (e, f))
            lower[v] += p is None or p != q
    if not flags:
        return g, list(caps), [], list(fixed[: len(g.edges)])
    h, keep = g.induced_subgraph(v for v in range(g.n) if v not in flags)
    h_caps = [(caps[v][0] - lower[v], caps[v][1] - lower[v]) for v in keep]
    based = set(flags.values())
    h_fixed = [b for b, (u, w) in zip(fixed, g.edges) if u not in flags and w not in flags]
    return h, h_caps, [k for k, v in enumerate(keep) if v in based], h_fixed


# The most vertices a pendant block may have; its probes scan one more.
_BLOCK_MAX_VERTICES = 4
# Below this many edges the probes cost more than the scan they would shorten
# (is_critical on the fdp --n 5 candidates and small zeroj instances).
_BLOCK_MIN_EDGES = 9


def _pendant_blocks(g: Multigraph) -> list[tuple[int, tuple[int, ...], int, int]]:
    """Each (size, B, u, v) with uv a bridge and B, the vertex set of u's side,
    of 2 to _BLOCK_MAX_VERTICES vertices: for each edge uv and each of its
    ends u, u's component in g - uv, grown until it holds v (uv is no bridge;
    a parallel edge reaches v) or outgrows the bound."""
    incident = g.incidence()
    blocks = []
    for e, edge in enumerate(g.edges):
        for u, v in (edge, edge[::-1]):
            side, stack = {u}, [u]
            while stack and v not in side and len(side) <= _BLOCK_MAX_VERTICES:
                for w, f in incident[stack.pop()]:
                    if f != e and w not in side:
                        side.add(w)
                        stack.append(w)
            if v not in side and 2 <= len(side) <= _BLOCK_MAX_VERTICES:
                blocks.append((len(side), tuple(sorted(side)), u, v))
    return blocks


def _fold_blocks(
    h: Multigraph, caps: Caps, bases: Sequence[int], fixed: Sequence[int | None]
) -> tuple[Multigraph, list[tuple[int, int]], list[int], list[int | None]]:
    """h with each pendant block B that folds replaced by a gadget edge, and
    fixed (parities of h's edges, None or past its end for undecided)
    restricted to the result.

    B hangs off v by the bridge uv. The conflicts B can put on v, per side
    of v, come in swapped pairs, since flipping uv's parity swaps v's sides
    as B sees them. Let P(a, b) be B + uv + v with v's caps (rich a, poor b).
    B folds when no cover charges v on both sides (P(0, 0) is colorable),
    some cover charges one side (P(0, -1) is not), and every deletion and
    base relaxation inside P(0, -1) takes the charge away (_scan_critical).
    Then u keeps only uv, with caps (1, -1) if P(1, -1) is colorable (the
    cover charges a side of v one conflict) and (0, -1) if not (it forbids
    a side), so h is colorable, and critical, exactly when the result is.
    That holds per cover of the rest of h, so a block folds under a prefix
    too, as long as fixed decides none of its edges and not uv, which leaves
    the cover free to put B's strongest charge on v: h has a bad cover
    extending fixed exactly when the result has one extending its part of
    fixed. Smallest blocks fold first, while h has _BLOCK_MIN_EDGES edges
    and some block folds.
    """
    caps, bases, fixed = list(caps), list(bases), list(fixed)
    while len(h.edges) >= _BLOCK_MIN_EDGES:
        # the only edges at a vertex of B are B's own and uv
        decided = {w for edge, bit in zip(h.edges, fixed) if bit is not None for w in edge}
        for _, block, u, v in sorted(_pendant_blocks(h)):
            if not decided.isdisjoint(block):
                continue
            label = {v: 0, u: 1}
            for w in block:
                label.setdefault(w, len(label))
            edges = [(label[a], label[b]) for a, b in h.edges if a in label and b in label]
            p_caps = tuple([caps[w] for w in list(label)[1:]])
            p_bases = tuple([label[b] for b in bases if b in block])
            gadget = _gadget(Multigraph(len(label), edges), p_caps, p_bases)
            if gadget is not None:
                break
        else:
            break
        caps[u] = gadget
        gone = set(block) - {u}
        fixed = [bit for bit, edge in zip(fixed, h.edges) if gone.isdisjoint(edge)]
        h, keep = h.induced_subgraph(w for w in range(h.n) if w not in gone)
        index = {w: k for k, w in enumerate(keep)}
        caps = [caps[w] for w in keep]
        bases = [index[b] for b in bases if b not in block]
    return h, caps, bases, fixed


@cache
def _gadget(
    p: Multigraph, block_caps: tuple[tuple[int, int], ...], bases: tuple[int, ...]
) -> tuple[int, int] | None:
    """The gadget's caps for the probe p (v = 0, then B with block_caps), or
    None when B does not fold (_fold_blocks). Each probe is exact and depends
    on its arguments alone, so one memo serves the whole process."""

    def colorable(rich: int, poor: int) -> bool:
        return next(_kernel(p, [(rich, poor), *block_caps])[0], None) is None

    if not colorable(0, 0) or not _scan_critical(p, [(0, -1), *block_caps], bases):
        return None
    return (1, -1) if colorable(1, -1) else (0, -1)


def _degree_first(g: Multigraph) -> tuple[Multigraph, list[int]]:
    """g with its edges in verdict-scan order, and the new id of each edge of g.

    Vertices are ranked as _Search assigns them (_busiest_first), and an edge
    is keyed by the rank of its later endpoint, then of its earlier one;
    parallel edges keep their order. So the edges among the busiest vertices
    are decided first, where the cover tree's caps and slack prune cut the
    most. Relabeling edges changes no verdict, only the order in which the
    bad covers come. When g's edges are already in that order, g itself
    comes back.
    """
    rank = [0] * g.n
    for r, v in enumerate(_busiest_first(g.incidence())):
        rank[v] = r
    keys = []
    for u, w in g.edges:
        ru, rw = rank[u], rank[w]
        keys.append((ru, rw) if ru > rw else (rw, ru))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    identity = list(range(len(order)))
    if order == identity:
        return g, identity
    position = [0] * len(order)
    for k, e in enumerate(order):
        position[e] = k
    return Multigraph(g.n, tuple([g.edges[e] for e in order])), position


def _core(
    g: Multigraph, caps: Caps, fixed: Sequence[int | None] = ()
) -> tuple[Multigraph, list[tuple[int, int]], list[int], list[int | None]]:
    """The one reduction pipeline: g without its flags (_fold) and its pendant
    blocks (_fold_blocks) under the parity prefix fixed, with its edges in
    degree-first order (_degree_first); its caps; the bases of its flags; and
    fixed moved to its edge ids, then extended by switching. g has a bad
    cover extending fixed exactly when the core has one extending the
    extended fixed.

    Switching a vertex set S flips the sides of S and the parities of the
    edges leaving it, so no edge's conflict status changes. Where S lies in
    Q, the vertices whose two caps are equal, this maps the colorings of a
    cover onto those of the switched cover. It keeps the moved prefix when
    S is a union of components of its decided edges, and it commutes with
    deleting an edge and with raising a base's caps by one. So with those
    components contracted, and the ones that hold a vertex outside Q made
    one root, fixing to E a spanning forest of the undecided edges keeps
    one cover of each class, with the same verdict, deletion and relaxation
    answers as the rest of its class.
    """
    h, h_caps, bases, h_fixed = _fold_blocks(*_fold(g, caps, fixed))
    h, position = _degree_first(h)
    moved: list[int | None] = [None] * len(position)
    for k, bit in zip(position, h_fixed):
        moved[k] = bit
    # union-find over h's vertices and the root h.n, which holds Q's complement
    up = [v if rich == poor else h.n for v, (rich, poor) in enumerate(h_caps)] + [h.n]

    def find(v: int) -> int:
        while up[v] != v:
            up[v] = up[up[v]]
            v = up[v]
        return v

    for (u, w), bit in zip(h.edges, moved):
        if bit is not None:
            up[find(u)] = find(w)
    for e, (u, w) in enumerate(h.edges):
        if moved[e] is None and find(u) != find(w):
            up[find(u)] = find(w)
            moved[e] = 0
    return h, h_caps, bases, moved


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

    Existence is decided first on g without its flags, folded under this
    cover's parities (_fold). Only then is g searched, for the map.
    """
    _check_vertices(g.n, max_vertices)
    _check_cover(g, c)
    caps = _checked(g, params, t)
    bits = [int(p) for p in c.parities]
    h, h_caps, bases, h_bits = _fold(g, caps, bits)
    if bases and _Search(h).run(h_bits, h_caps) is None:
        return None
    sides = _Search(g).run(bits, caps)
    if sides is None:
        return None
    return PhiMap(tuple(sides))


def greedy_color(g: Multigraph, c: Cover, i: int) -> PhiMap | None:
    """Flip-repair for the symmetric (i, i) problem with zero toughness.

    Starts all-rich, its conflicts counted by conflict_degrees, which also
    checks that c covers g's edges. While some vertex has more than i
    conflicts, flips the lowest-id such vertex provided the flip strictly
    lowers the number of conflicting edge instances, and gives up
    otherwise. Each incident edge conflicts with exactly one of the two
    sides, so a flip replaces c conflicts at v with d(v) - c; whenever every
    degree is at most 2i + 1 the flip always improves and the repair is
    guaranteed to finish. The total strictly drops at each step, so there
    are at most |E| flips.
    """
    if i < 0:
        raise ValueError("defect bound i must be non-negative")
    conf = conflict_degrees(g, c, PhiMap((Side.RICH,) * g.n))
    bits = [int(p) for p in c.parities]
    incident = g.incidence()
    sides = [0] * g.n
    while True:
        v = next((w for w in range(g.n) if conf[w] >= i + 1), None)
        if v is None:
            return PhiMap(tuple(sides))
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
    max_covers bounds G's raw 2^|E|.

    After the budget and toughness checks, the isolated vertices with a
    side go: they never conflict, so no cover's verdict turns on them, and
    no edge goes with them, so edge ids, prefixes and the witness stay as
    they are. An isolated vertex with neither side stays and makes every
    cover bad. Every question then goes through g's core (_core): whether g
    has a bad cover extending a parity prefix is whether the core has one
    extending the prefix's image, extended by switching. The verdict is the
    empty prefix.
    For the witness, g's edges are then fixed one at a time in g's order, E
    kept while a bad cover extends the prefix. When fixing E leaves the core,
    its caps and its fixed parities as they were, as at a flag's first edge,
    the question was already answered yes and takes no scan. Flags fold
    under every prefix, and blocks only where the prefix leaves them free,
    so when nothing folds under the empty prefix, every question is about g
    itself, and the witness is the first cover of one lex scan of g, without
    the switching forest: _kernel's bundle rule keeps that first hit
    lex-first. Block probes are memoized for the whole process (_gadget).
    """
    caps = _scan_checked(g, params, t, max_covers)
    incident = g.incidence()
    g, keep = g.induced_subgraph(v for v in range(g.n) if incident[v] or max(caps[v]) < 0)
    caps = [caps[v] for v in keep]
    h, h_caps, _, h_fixed = core = _core(g, caps)
    if next(_kernel(h, h_caps, fixed=h_fixed)[0], None) is None:
        return True, None
    if h.n == g.n:
        return False, Cover(next(_kernel(g, caps)[0]))
    bits: list[int] = []
    for _ in g.edges:
        known = core  # has a bad cover
        bits.append(0)
        h, h_caps, _, h_fixed = core = _core(g, caps, bits)
        if core != known and next(_kernel(h, h_caps, fixed=h_fixed)[0], None) is None:
            bits[-1] = 1
            core = _core(g, caps, bits)
    return False, Cover(tuple(bits))


def _kernel(
    g: Multigraph, caps: Caps, bases: Sequence[int] = (), *, fixed: Sequence[int | None] = ()
) -> tuple[Iterator[tuple[int, ...]], Callable[[tuple[int, ...]], bool]]:
    """The bad covers of g under caps that extend fixed and sort each bundle,
    in lex order, and whether the one last yielded colors each g - e and g
    with the caps of each base in bases raised by one.

    Edge e takes only the parity fixed[e] where that is 0 or 1; an edge past
    the end of fixed, or fixed at None, is free and takes both, so a prefix
    for fixed keeps the covers that start with it. A bundle is the free
    edges with the same two ends, and a cover sorts it when it puts E before
    O along it: tie[e], the last earlier edge of e's bundle, never takes O
    where e takes E. Permuting a bundle is an automorphism of g that keeps
    fixed, and each orbit's lex-first cover is the one that sorts every
    bundle, so a bad cover extending fixed exists exactly when one is
    yielded, the first one yielded is the lex-first of them all, and the
    deletion and relaxation answers are the same across an orbit.

    Up to _TREE_MAX_VERTICES vertices both come from one _CoverTree, above from
    one _Search of g, with the same answers in the same order: its run decides
    each cover, each g - e as the cover with parity 2 (absent) at e, and each
    base relaxation as the cover under the base's raised caps.
    """
    choices = [
        (0, 1) if e >= len(fixed) or fixed[e] is None else (fixed[e],) for e in range(len(g.edges))
    ]
    tie: list[int | None] = [None] * len(choices)
    last: dict[tuple[int, int], int] = {}
    for e, (u, w) in enumerate(g.edges):
        if len(choices[e]) == 2:
            ends = (u, w) if u < w else (w, u)
            tie[e] = last.get(ends)
            last[ends] = e
    if g.n <= _TREE_MAX_VERTICES:
        tree = _CoverTree()
        return tree.bad_covers(g, caps, bases, choices, tie), tree.deletions_colorable
    search = _Search(g)
    relaxed = []
    for v in bases:
        raised = list(caps)
        raised[v] = (caps[v][0] + 1, caps[v][1] + 1)
        relaxed.append(raised)

    def deletions_colorable(bits: tuple[int, ...]) -> bool:
        return all(
            search.run(bits[:e] + (2,) + bits[e + 1 :], caps) is not None for e in range(len(bits))
        ) and all(search.run(bits, raised) is not None for raised in relaxed)

    def sorted_covers() -> Iterator[tuple[int, ...]]:
        # lex order: edges from k on take their least parity, O where the
        # tie took O, then the last one short of its last parity turns O
        bits, k = [0] * len(choices), 0
        while k >= 0:
            for e in range(k, len(bits)):
                t = tie[e]
                bits[e] = 1 if t is not None and bits[t] else choices[e][0]
            yield tuple(bits)
            k = len(bits) - 1
            while k >= 0 and bits[k] == choices[k][-1]:
                k -= 1
            if k >= 0:
                bits[k] = 1
                k += 1

    return (bits for bits in sorted_covers() if search.run(bits, caps) is None), deletions_colorable


def _scan_critical(
    g: Multigraph, caps: Caps, bases: Sequence[int] = (), fixed: Sequence[int | None] = ()
) -> bool:
    """Whether g is uncolorable but each g - e, and g with each base's caps
    raised by one, is colorable, from one scan of the covers extending fixed
    (see critical.is_critical)."""
    bad_covers, deletions_colorable = _kernel(g, caps, bases, fixed=fixed)
    uncolorable = False
    for bits in bad_covers:
        uncolorable = True
        if not deletions_colorable(bits):
            return False
    return uncolorable


# Up to this many vertices the masks of _CoverTree (2^n bits) beat one _Search
# per cover; sparse graphs lose on the tree from n = 15 (sweep in CHANGES.md).
_TREE_MAX_VERTICES = 14


def partition_witness(g: Multigraph, i: int, a_set: Iterable[int]) -> int | None:
    """A vertex v outside A with (i+1)·d_A(v) + d_B(v) >= 2i + 2, or None.

    Degrees count edge instances. Such a vertex exists for every partition of
    an (i, i)-critical graph, which makes this a handy criticality probe.
    """
    if i < 0:
        raise ValueError("defect bound i must be non-negative")
    a = set(a_set)
    for v in a:
        _check_vertex(v, g.n)
    if not a or len(a) >= g.n:
        raise ValueError("A must be a nonempty proper subset of the vertices")
    incident = g.incidence()
    for v in sorted(set(range(g.n)) - a):
        d_a = sum(1 for u, _ in incident[v] if u in a)
        d_b = len(incident[v]) - d_a
        if (i + 1) * d_a + d_b >= 2 * i + 2:
            return v
    return None
