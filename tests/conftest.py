from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import strategies as st

from dpcolor import (
    Cover,
    DefectParams,
    Multigraph,
    Parity,
    Toughness,
    build_equal,
    build_large,
    build_zeroj,
    potential,
    solver,
)

SMALL_PARAMS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 2), (2, 4)]


@st.composite
def multigraphs(draw, max_n: int = 6, max_edges: int = 8, min_n: int = 0):
    n = draw(st.integers(min_n, max_n))
    if n < 2:
        return Multigraph(n, ())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_edges))
    return Multigraph(n, tuple(edges))


@st.composite
def graph_cover_pairs(draw, max_n: int = 6, max_edges: int = 8, min_n: int = 0):
    g = draw(multigraphs(max_n=max_n, max_edges=max_edges, min_n=min_n))
    parities = draw(
        st.lists(
            st.sampled_from((Parity.EVEN, Parity.ODD)),
            min_size=len(g.edges),
            max_size=len(g.edges),
        )
    )
    return g, Cover(tuple(parities))


@st.composite
def defect_params(draw, include_zero_zero: bool = True):
    choices = SMALL_PARAMS if include_zero_zero else SMALL_PARAMS[1:]
    i, j = draw(st.sampled_from(choices))
    return DefectParams(i, j)


@st.composite
def toughness_for(draw, n: int, params: DefectParams):
    """Scalar or refined toughness on n vertices, anywhere Toughness.check allows."""
    if draw(st.booleans()):
        return Toughness.scalar(
            draw(st.lists(st.integers(0, params.j + 1), min_size=n, max_size=n))
        )
    pair = st.tuples(st.integers(0, params.i + 1), st.integers(0, params.j + 1))
    return Toughness.pairs(draw(st.lists(pair, min_size=n, max_size=n)))


@st.composite
def bounded_degree_graphs(draw, degree_cap: int, max_n: int = 7, max_edges: int = 10):
    """Multigraphs in which every vertex degree stays within degree_cap."""
    n = draw(st.integers(1, max_n))
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    for _ in range(draw(st.integers(0, max_edges))):
        room = [(u, v) for u in range(n) for v in range(u + 1, n) if deg[u] < degree_cap and deg[v] < degree_cap]
        if not room:
            break
        u, v = draw(st.sampled_from(room))
        edges.append((u, v))
        deg[u] += 1
        deg[v] += 1
    return Multigraph(n, tuple(edges))


@st.composite
def flagged_multigraphs(draw, max_core_n: int = 4, max_core_edges: int = 4):
    """A random core plus one to three flags, each a new vertex joined twice to
    an earlier one, with every edge list shuffled."""
    n = draw(st.integers(1, max_core_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_core_edges)) if pairs else []
    for _ in range(draw(st.integers(1, 3))):
        base = draw(st.integers(0, n - 1))
        edges += [(base, n), (n, base)]
        n += 1
    return Multigraph(n, tuple(draw(st.permutations(edges))))


# Pendant blocks, each hung by a bridge from its vertex 0: a triangle, a
# path, an edge, a digon, a weak flag of weight 1, and a triangle with a tail.
PENDANT_BLOCKS = {
    "triangle": [(0, 1), (0, 2), (1, 2)],
    "path": [(0, 1), (1, 2)],
    "edge": [(0, 1)],
    "digon": [(0, 1), (0, 1)],
    "weak flag": [(0, 1), (1, 2), (1, 2)],
    "triangle and tail": [(1, 2), (2, 3), (3, 1), (0, 1)],
}


def hang(g: Multigraph, base: int, block: list[tuple[int, int]]) -> Multigraph:
    """g with block added on new vertices, its vertex 0 joined to base by a bridge."""
    n = g.n
    size = 1 + max(max(edge) for edge in block)
    return Multigraph(n + size, g.edges + ((base, n),) + tuple((n + a, n + b) for a, b in block))


@st.composite
def pendant_block_graphs(draw, max_core_n: int = 3, max_core_edges: int = 2, max_edges: int = 9):
    """A random core plus one or two pendant blocks, each hung from any earlier
    vertex, so a block may hang from another; every edge list is shuffled."""
    n = draw(st.integers(1, max_core_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=max_core_edges)) if pairs else []
    g = Multigraph(n, tuple(edges))
    for _ in range(draw(st.integers(1, 2))):
        block = draw(st.sampled_from(sorted(PENDANT_BLOCKS.values())))
        if len(g.edges) + len(block) + 1 <= max_edges:
            g = hang(g, draw(st.integers(0, g.n - 1)), block)
    return Multigraph(g.n, tuple(draw(st.permutations(g.edges))))


def every_small_multigraph(max_n: int = 4, max_edges: int = 5):
    """Every edge multiset on 1..max_n vertices with at most max_edges edges, once each."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for e in range(max_edges + 1):
            for edges in combinations_with_replacement(pairs, e):
                yield Multigraph(n, edges)


def seeded_multigraphs(seed: int, count: int, min_n: int, max_n: int):
    """count random multigraphs on min_n..max_n vertices, half an edge to three edges a vertex."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(n // 2, 3 * n))]
        yield Multigraph(n, edges)


@pytest.fixture(params=["tree", "search"])
def kernel(request, monkeypatch):
    """Run the test on each all-cover scan kernel: the cover tree and one _Search run per cover.
    The block probe memo starts empty, so the probes run on this kernel too."""
    solver._gadget.cache_clear()
    if request.param == "search":
        monkeypatch.setattr(solver, "_TREE_MAX_VERTICES", -1)
    return request.param


@pytest.fixture
def max_flows(monkeypatch):
    """A list that gains one entry per ``_MinCut`` max-flow run during the test:
    its forced-in and forced-out vertices, and whether it started from a saved residual."""
    runs: list[tuple] = []
    minimum = potential._MinCut.minimum

    def counted(self, ins, outs, warm=None):
        runs.append((list(ins), list(outs), warm is not None))
        return minimum(self, ins, outs, warm)

    monkeypatch.setattr(potential._MinCut, "minimum", counted)
    return runs


@pytest.fixture
def backward_passes(monkeypatch):
    """A list that gains one entry per ``_MinCut.greatest`` pass during the test."""
    passes: list[None] = []
    greatest = potential._MinCut.greatest

    def counted(self, residual):
        passes.append(None)
        return greatest(self, residual)

    monkeypatch.setattr(potential._MinCut, "greatest", counted)
    return passes


def tied_graphs():
    """Inputs with many tied minimizers, n <= 14: small family instances next to a relabeled copy
    of themselves, so each minimizer has a twin, and cycles with every edge repeated."""
    for inst in (
        build_zeroj(1, 1),
        build_zeroj(1, 2),
        build_large(1, 3, 0),
        build_equal(1, 1),
        build_equal(1, 2),
        build_equal(2, 1),
    ):
        g = inst.graph
        yield Multigraph(2 * g.n, g.edges + tuple([(u + g.n, w + g.n) for u, w in g.edges]))
    for n in range(3, 9):
        for mult in (1, 2, 3):
            yield Multigraph(n, [(v, (v + 1) % n) for v in range(n) for _ in range(mult)])
