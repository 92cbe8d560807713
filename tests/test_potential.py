from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import multigraphs
from dpcolor import (
    DefectParams,
    Multigraph,
    Regime,
    Toughness,
    build_equal,
    build_iplusone,
    build_zeroj,
    edge_bound,
    potential_threshold,
    regime,
    rho_graph,
    rho_set,
    rho_vertex,
    scalar_constants,
    weight_w,
)


class TestRegime:
    def test_examples(self):
        assert regime(DefectParams(0, 3)) is Regime.ZERO_J
        assert regime(DefectParams(1, 3)) is Regime.LARGE
        assert regime(DefectParams(2, 4)) is Regime.MID
        assert regime(DefectParams(1, 2)) is Regime.I_PLUS_ONE
        assert regime(DefectParams(3, 3)) is Regime.EQUAL
        assert regime(DefectParams(0, 0)) is Regime.ZERO_ZERO

    def test_cases_partition_all_pairs(self):
        for i in range(0, 8):
            for j in range(i, 16):
                r = regime(DefectParams(i, j))
                matches = [
                    r is Regime.ZERO_ZERO and (i, j) == (0, 0),
                    r is Regime.ZERO_J and i == 0 and j >= 1,
                    r is Regime.LARGE and i >= 1 and j >= 2 * i + 1,
                    r is Regime.MID and i >= 1 and i + 2 <= j <= 2 * i,
                    r is Regime.I_PLUS_ONE and i >= 1 and j == i + 1,
                    r is Regime.EQUAL and i >= 1 and j == i,
                ]
                assert sum(matches) == 1


class TestWeights:
    def test_threshold_level_values(self):
        assert weight_w(DefectParams(1, 3), 4) == -1
        assert weight_w(DefectParams(0, 2), 3) == -2
        assert weight_w(DefectParams(2, 4), 5) == -2

    def test_closed_forms(self):
        for i, j in [(0, 1), (0, 4), (1, 3), (1, 5), (2, 5), (2, 4), (3, 5), (3, 6)]:
            p = DefectParams(i, j)
            a, b = scalar_constants(p)
            for k in range(0, j + 2):
                expect = {
                    Regime.ZERO_J: 1 - k,
                    Regime.LARGE: 2 * i + 1 - k,
                    Regime.MID: 2 * j - 2 * k,
                }[regime(p)]
                assert weight_w(p, k) == a + k * (a - 2 * b) == expect

    def test_regimes_without_scalar_potential(self):
        for p in (DefectParams(1, 2), DefectParams(2, 2), DefectParams(0, 0)):
            with pytest.raises(ValueError):
                weight_w(p, 0)

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            weight_w(DefectParams(0, 1), 3)


class TestRhoVertex:
    def test_scalar_examples(self):
        assert rho_vertex(DefectParams(1, 3), Toughness.scalar([0]), 0) == 3
        assert rho_vertex(DefectParams(2, 4), Toughness.scalar([2]), 0) == 4

    def test_refined_zero_pair(self):
        assert rho_vertex(DefectParams(1, 2), Toughness.zero_pairs(1), 0) == 7

    def test_refined_swap_symmetry(self):
        p = DefectParams(2, 3)
        for tp in range(0, 4):
            for tr in range(0, 4):
                a = rho_vertex(p, Toughness.pairs([(tp, tr)]), 0)
                b = rho_vertex(p, Toughness.pairs([(tr, tp)]), 0)
                assert a == b

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            rho_vertex(DefectParams(1, 3), Toughness.zero_pairs(1), 0)
        with pytest.raises(ValueError):
            rho_vertex(DefectParams(1, 2), Toughness.zero(1), 0)

    def test_equal_regime_has_no_potential(self):
        with pytest.raises(ValueError):
            rho_vertex(DefectParams(1, 1), Toughness.zero(1), 0)


class TestRhoSet:
    def test_empty_set_is_zero(self):
        g = Multigraph(2, [(0, 1)])
        assert rho_set(g, DefectParams(1, 3), Toughness.zero(2), ()) == 0

    def test_one_edge_two_vertices(self):
        g = Multigraph(2, [(0, 1)])
        assert rho_set(g, DefectParams(1, 3), Toughness.zero(2), {0, 1}) == 4

    def test_zeroj_family_full_set(self):
        inst = build_zeroj(1, 2)
        t = Toughness.zero(inst.graph.n)
        assert rho_set(inst.graph, inst.params, t, range(inst.graph.n)) == -1


class TestRhoGraph:
    def test_single_vertex(self):
        g = Multigraph(1, ())
        assert rho_graph(g, DefectParams(1, 3), Toughness.zero(1)) == (3, frozenset({0}))

    def test_zeroj_family_minimum_is_full_set(self):
        inst = build_zeroj(1, 2)
        t = Toughness.zero(inst.graph.n)
        value, argmin = rho_graph(inst.graph, inst.params, t)
        assert value == -1
        assert argmin == frozenset(range(inst.graph.n))
        # cross-check against the brute-force oracle
        expect = oracles.subset_potential_minimum(
            inst.graph.n, list(inst.graph.edges), [1] * inst.graph.n, 1
        )
        assert (value, tuple(sorted(argmin))) == expect

    def test_toughness_defaults_to_the_regime_zero(self):
        z = build_zeroj(1, 2)
        assert rho_graph(z.graph, z.params) == rho_graph(
            z.graph, z.params, Toughness.zero(z.graph.n)
        )
        ip = build_iplusone(1, 0)
        assert rho_graph(ip.graph, ip.params) == rho_graph(
            ip.graph, ip.params, Toughness.zero_pairs(ip.graph.n)
        )

    def test_equal_regime_rejected(self):
        inst = build_equal(1, 1)
        with pytest.raises(ValueError):
            rho_graph(inst.graph, inst.params, Toughness.zero(inst.graph.n))


@given(multigraphs(max_n=7, max_edges=9), st.sampled_from([(0, 1), (1, 3), (2, 4), (1, 2)]), st.data())
def test_rho_set_matches_oracle_on_random_subsets(g, ij, data):
    params = DefectParams(*ij)
    if regime(params) is Regime.I_PLUS_ONE:
        t = Toughness.pairs(
            data.draw(
                st.lists(
                    st.tuples(st.integers(0, params.i + 1), st.integers(0, params.j + 1)),
                    min_size=g.n,
                    max_size=g.n,
                )
            )
        )
    else:
        t = Toughness.scalar(
            data.draw(st.lists(st.integers(0, params.j + 1), min_size=g.n, max_size=g.n))
        )
    if g.n == 0:
        return
    value, argmin = rho_graph(g, params, t)
    per_vertex = [rho_vertex(params, t, v) for v in range(g.n)]
    coeff = (
        params.i * params.i + 3 * params.i + 1
        if regime(params) is Regime.I_PLUS_ONE
        else scalar_constants(params)[1]
    )
    expect_val, expect_set = oracles.subset_potential_minimum(
        g.n, list(g.edges), per_vertex, coeff
    )
    assert (value, tuple(sorted(argmin))) == (expect_val, expect_set)


@given(multigraphs(max_n=6, max_edges=6), st.data())
def test_rho_set_modular_over_disconnected_pieces(g, data):
    params = DefectParams(1, 3)
    t = Toughness.zero(g.n)
    if g.n < 2:
        return
    split = data.draw(st.integers(1, g.n - 1))
    s, u = set(range(split)), set(range(split, g.n))
    crossing = [e for e in g.edges if (e[0] in s) != (e[1] in s)]
    if crossing:
        return
    assert rho_set(g, params, t, s | u) == rho_set(g, params, t, s) + rho_set(g, params, t, u)


class TestEdgeBound:
    def test_examples(self):
        assert edge_bound(DefectParams(0, 1), 2) == 3
        assert edge_bound(DefectParams(1, 1), 6) == 8
        assert edge_bound(DefectParams(1, 2), 12) == 17

    def test_exact_fractions(self):
        assert edge_bound(DefectParams(1, 3), 9) == Fraction(28, 2)
        assert edge_bound(DefectParams(2, 4), 11) == Fraction(90, 5)

    def test_zero_zero_unsupported(self):
        with pytest.raises(ValueError):
            edge_bound(DefectParams(0, 0), 3)

    def test_thresholds(self):
        assert potential_threshold(DefectParams(0, 1)) == -1
        assert potential_threshold(DefectParams(1, 3)) == -1
        assert potential_threshold(DefectParams(2, 4)) == -2
        assert potential_threshold(DefectParams(1, 2)) == -1
        with pytest.raises(ValueError):
            potential_threshold(DefectParams(1, 1))
