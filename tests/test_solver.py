from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import bounded_degree_graphs, defect_params, graph_cover_pairs, multigraphs
from dpcolor import (
    BudgetError,
    Cover,
    DefectParams,
    Multigraph,
    Parity,
    PhiMap,
    Toughness,
    build_equal,
    build_large,
    build_zeroj,
    cover_index,
    exhaustive_color,
    greedy_color,
    is_colorable,
    is_valid_coloring,
    partition_witness,
)

E, O = Parity.EVEN, Parity.ODD
TRIPLE = Multigraph(2, [(0, 1)] * 3)


class TestExhaustive:
    def test_edgeless_returns_all_rich(self):
        g = Multigraph(4, ())
        phi = exhaustive_color(g, Cover(()), DefectParams(0, 0))
        assert phi == PhiMap.all_rich(4)

    def test_odd_cycle_all_even_has_no_proper_two_coloring(self):
        c3 = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
        cover = Cover((E, E, E))
        p = DefectParams(0, 0)
        assert exhaustive_color(c3, cover, p) is None
        # brute force over the 8 maps agrees
        assert not oracles.cover_colorable(3, list(c3.edges), [0, 0, 0], 0, 0)

    def test_equal_family_bad_cover_refused(self):
        inst = build_equal(1, 1)
        assert exhaustive_color(inst.graph, inst.bad_cover, inst.params) is None

    def test_returned_map_is_valid(self):
        inst = build_zeroj(1, 2)
        cover = Cover((E,) * len(inst.graph.edges))
        phi = exhaustive_color(inst.graph, cover, inst.params)
        assert phi is not None
        assert is_valid_coloring(inst.graph, cover, phi, inst.params)

    def test_size_limit(self):
        g = Multigraph(5, ())
        with pytest.raises(BudgetError):
            exhaustive_color(g, Cover(()), DefectParams(0, 0), max_vertices=4)

    def test_cover_dimension_mismatch(self):
        with pytest.raises(ValueError):
            exhaustive_color(TRIPLE, Cover((E,)), DefectParams(0, 1))


@given(graph_cover_pairs(max_n=6, max_edges=7), defect_params())
def test_exhaustive_agrees_with_brute_force(pair, params):
    g, c = pair
    fast = exhaustive_color(g, c, params)
    slow = oracles.cover_colorable(
        g.n, list(g.edges), [int(p) for p in c.parities], params.i, params.j
    )
    assert (fast is not None) == slow
    if fast is not None:
        assert is_valid_coloring(g, c, fast, params)


@given(graph_cover_pairs(max_n=5, max_edges=6), st.sampled_from([(0, 1), (1, 2), (1, 3)]), st.data())
def test_exhaustive_respects_toughness(pair, ij, data):
    g, c = pair
    params = DefectParams(*ij)
    t = Toughness.scalar(
        data.draw(st.lists(st.integers(0, params.j + 1), min_size=g.n, max_size=g.n))
    )
    fast = exhaustive_color(g, c, params, t)
    slow = oracles.cover_colorable(
        g.n, list(g.edges), [int(p) for p in c.parities], params.i, params.j, t.poor, t.rich
    )
    assert (fast is not None) == slow
    if fast is not None:
        assert is_valid_coloring(g, c, fast, params, t)


class TestGreedy:
    def test_star_with_all_even_cover(self):
        star = Multigraph(3, [(0, 1), (0, 2)])
        cover = Cover((E, E))
        phi = greedy_color(star, cover, 1)
        assert phi is not None
        assert is_valid_coloring(star, cover, phi, DefectParams(1, 1))
        assert exhaustive_color(star, cover, DefectParams(1, 1)) is not None

    def test_low_degree_graph_stays_all_rich(self):
        g = Multigraph(4, [(0, 1), (2, 3)])
        phi = greedy_color(g, Cover((O, O)), 1)
        assert phi == PhiMap.all_rich(4)

    def test_failure_is_none_not_an_exception(self):
        # the triple edge violates d(v) + 1 <= 2(i+1) for i = 0 and can fail
        assert greedy_color(TRIPLE, Cover((E, E, O)), 0) is None


def _greedy_reference(n, edges, parities, i):
    """Replay of the documented repair loop: all-rich start, flip the lowest-id
    vertex over its cap whenever the flip strictly lowers the conflict total."""
    sides = [0] * n
    while True:
        conf = oracles.conflict_counts(n, edges, parities, sides)
        over = [v for v in range(n) if conf[v] >= i + 1]
        if not over:
            return sides
        v = over[0]
        flipped = list(sides)
        flipped[v] ^= 1
        before = sum(oracles.conflict_counts(n, edges, parities, sides)) // 2
        after = sum(oracles.conflict_counts(n, edges, parities, flipped)) // 2
        if after >= before:
            return None
        sides = flipped


@given(graph_cover_pairs(max_n=6, max_edges=8), st.integers(0, 2))
def test_greedy_matches_the_reference_flip_sequence(pair, i):
    g, c = pair
    expect = _greedy_reference(g.n, list(g.edges), [int(p) for p in c.parities], i)
    got = greedy_color(g, c, i)
    if expect is None:
        assert got is None
    else:
        assert got is not None
        assert [int(s) for s in got.sides] == expect


@given(st.integers(0, 2), st.data())
def test_greedy_complete_under_degree_hypothesis(i, data):
    g = data.draw(bounded_degree_graphs(degree_cap=2 * i + 1, max_n=6, max_edges=8))
    parities = data.draw(
        st.lists(st.sampled_from((E, O)), min_size=len(g.edges), max_size=len(g.edges))
    )
    cover = Cover(tuple(parities))
    phi = greedy_color(g, cover, i)
    assert phi is not None
    assert is_valid_coloring(g, cover, phi, DefectParams(i, i))


class TestIsColorable:
    def test_single_edge_zero_zero(self):
        assert is_colorable(Multigraph(2, [(0, 1)]), DefectParams(0, 0)) == (True, None)

    def test_triple_edge_zero_one_witness(self):
        ok, witness = is_colorable(TRIPLE, DefectParams(0, 1))
        assert not ok
        letters = witness.letters()
        assert sorted(letters) in (["E", "E", "O"], ["E", "O", "O"])
        # the witness is the lexicographically first failing cover
        expect = oracles.first_bad_cover(2, list(TRIPLE.edges), 0, 1)
        assert [int(p) for p in witness.parities] == expect

    def test_families_fail_before_or_at_their_bad_cover(self):
        for inst in (build_zeroj(1, 1), build_equal(1, 1), build_large(1, 3, 0)):
            ok, witness = is_colorable(inst.graph, inst.params)
            assert not ok
            assert cover_index(witness) <= cover_index(inst.bad_cover)

    def test_budget(self):
        with pytest.raises(BudgetError):
            is_colorable(TRIPLE, DefectParams(0, 1), max_covers=4)


@given(multigraphs(max_n=4, max_edges=5), st.sampled_from([(0, 0), (0, 1), (1, 1), (1, 2)]))
def test_is_colorable_matches_double_enumeration_oracle(g, ij):
    i, j = ij
    ok, witness = is_colorable(g, DefectParams(i, j))
    expect = oracles.first_bad_cover(g.n, list(g.edges), i, j)
    assert ok == (expect is None)
    if witness is not None:
        assert [int(p) for p in witness.parities] == expect


@given(graph_cover_pairs(max_n=5, max_edges=5), defect_params())
def test_colorable_graphs_stay_colorable_after_deletion(pair, params):
    g, _ = pair
    ok, _ = is_colorable(g, params)
    if not ok:
        return
    for e in range(len(g.edges)):
        assert is_colorable(g.delete_edge(e), params)[0]


class TestPartitionWitness:
    def test_edgeless_has_none(self):
        assert partition_witness(Multigraph(3, ()), 1, {0}) is None

    def test_k2_with_i_zero(self):
        assert partition_witness(Multigraph(2, [(0, 1)]), 0, {0}) is None

    def test_equal_family_base_partition(self):
        inst = build_equal(1, 1)
        assert partition_witness(inst.graph, 1, {0}) is not None

    def test_triple_edge(self):
        assert partition_witness(TRIPLE, 0, {0}) == 1

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            partition_witness(TRIPLE, 0, set())
        with pytest.raises(ValueError):
            partition_witness(TRIPLE, 0, {0, 1})
        with pytest.raises(ValueError):
            partition_witness(TRIPLE, 0, {5})


@given(multigraphs(max_n=7, max_edges=12, min_n=2), st.integers(0, 3), st.data())
def test_partition_witness_is_first_qualifying_vertex(g, i, data):
    mask = data.draw(st.integers(1, (1 << g.n) - 2))
    a_set = {v for v in range(g.n) if mask >> v & 1}
    expect = None
    for v in range(g.n):
        if v in a_set:
            continue
        ends = [w if u == v else u for u, w in g.edges if v in (u, w)]
        d_a = sum(1 for u in ends if u in a_set)
        if (i + 1) * d_a + (len(ends) - d_a) >= 2 * i + 2:
            expect = v
            break
    assert partition_witness(g, i, a_set) == expect
