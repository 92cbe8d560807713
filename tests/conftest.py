from __future__ import annotations

import random
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import strategies as st

from dpcolor import Cover, DefectParams, Multigraph, Parity, Toughness, solver

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
    """Run the test on each all-cover scan kernel: the cover tree and one _Search per cover."""
    if request.param == "search":
        monkeypatch.setattr(solver, "_TREE_MAX_VERTICES", -1)
    return request.param
