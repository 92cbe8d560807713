from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import defect_params, multigraphs, toughness_for
from dpcolor import (
    BudgetError,
    DefectParams,
    Multigraph,
    Regime,
    Toughness,
    build_equal,
    build_large,
    check_bounds,
    fdp_search,
    is_critical,
)

TRIPLE = Multigraph(2, [(0, 1)] * 3)
P01 = DefectParams(0, 1)


class TestIsCritical:
    def test_triple_edge(self):
        assert is_critical(TRIPLE, P01)

    def test_double_edge_is_colorable(self):
        assert not is_critical(Multigraph(2, [(0, 1)] * 2), P01)

    def test_equal_family(self):
        inst = build_equal(1, 1)
        assert is_critical(inst.graph, inst.params)

    def test_isolated_vertex_rejected(self):
        g = Multigraph(3, [(0, 1), (0, 1), (0, 1)])
        assert not is_critical(g, P01)

    def test_proper_superset_of_critical_is_not_critical(self):
        quad = Multigraph(2, [(0, 1)] * 4)
        assert not is_critical(quad, P01)

    def test_degree_one_vertex_rejected(self):
        # a pendant edge on the critical triple: its leaf can always dodge it
        g = Multigraph(3, [(0, 1)] * 3 + [(1, 2)])
        assert not is_critical(g, P01)
        assert not oracles.critical(3, list(g.edges), 0, 1)

    def test_degree_one_vertex_with_a_negative_cap_can_be_critical(self):
        # rich caps j - 2 < 0 force both ends poor, and an even edge then conflicts
        g = Multigraph(2, [(0, 1)])
        t = Toughness.pairs([(0, 2), (0, 2)])
        assert is_critical(g, P01, t)
        assert oracles.critical(2, [(0, 1)], 0, 1, [0, 0], [2, 2])

    @pytest.mark.parametrize(
        "g, params, expected",
        [
            (TRIPLE, P01, True),
            (build_equal(1, 1).graph, DefectParams(1, 1), True),
            (Multigraph(3, [(0, 1)] * 3 + [(1, 2)]), P01, False),
        ],
    )
    def test_max_covers_caps_the_one_scan(self, g, params, expected):
        m = len(g.edges)
        with pytest.raises(BudgetError):
            is_critical(g, params, max_covers=2**m - 1)
        assert is_critical(g, params, max_covers=2**m) is expected

    def test_toughness_checked_before_the_degree_one_rule(self):
        g = Multigraph(3, [(0, 1)] * 3 + [(1, 2)])
        with pytest.raises(ValueError, match="refined poor toughness"):
            is_critical(g, P01, Toughness.pairs([(0, 0), (0, 0), (2, 0)]))


@settings(max_examples=1000, deadline=None)
@given(multigraphs(max_n=5, max_edges=9), defect_params(), st.data())
def test_is_critical_matches_oracle(g, params, data):
    t = data.draw(toughness_for(g.n, params))
    expected = oracles.critical(g.n, list(g.edges), params.i, params.j, list(t.poor), list(t.rich))
    assert is_critical(g, params, t) == expected


@pytest.mark.parametrize(
    "n, edges, i, j, toughness",
    [
        (
            4,
            [(1, 2), (0, 1), (2, 3), (0, 2), (1, 3), (2, 1)],
            0,
            3,
            [(1, 0), (0, 0), (0, 1), (0, 0)],
        ),
        (
            5,
            [(4, 2), (4, 1), (1, 0), (2, 3), (0, 4), (2, 4), (4, 0)],
            2,
            2,
            [(0, 1), (0, 0), (0, 2), (0, 3), (3, 0)],
        ),
    ],
)
def test_deletions_see_the_restricted_cover(n, edges, i, j, toughness):
    # some deletion stays uncolorable, but only under the cover that drops
    # exactly its own bit; a misaligned restriction calls these critical
    t = Toughness.pairs(toughness)
    expected = oracles.critical(n, edges, i, j, list(t.poor), list(t.rich))
    assert expected is False
    assert is_critical(Multigraph(n, edges), DefectParams(i, j), t) is expected


def test_is_critical_matches_oracle_on_every_small_multiset():
    # random draws are rarely critical; this sweep holds a few hundred critical graphs
    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(1, 7):
            for combo in combinations_with_replacement(pairs, m):
                for i, j in ((0, 1), (0, 2), (1, 1), (1, 2)):
                    expected = oracles.critical(n, list(combo), i, j)
                    assert is_critical(Multigraph(n, combo), DefectParams(i, j)) == expected


class TestCheckBounds:
    def test_triple_edge_sharp(self):
        report = check_bounds(TRIPLE, P01)
        assert report.e == 3 and report.bound == 3
        assert report.holds and report.sharp
        assert report.regime is Regime.ZERO_J
        assert report.rho == -1 and report.rho_threshold == -1 and report.rho_ok

    def test_large_family_sharp(self):
        inst = build_large(1, 3, 0)
        report = check_bounds(inst.graph, inst.params)
        assert report.e == 11 and report.bound == Fraction(22, 2)
        assert report.sharp and report.rho_ok

    def test_loose_instance_reports_not_sharp(self):
        # report semantics only; check_bounds trusts the caller on criticality
        g = Multigraph(2, [(0, 1)] * 4)
        report = check_bounds(g, P01)
        assert report.holds and not report.sharp

    def test_equal_regime_has_no_potential_fields(self):
        inst = build_equal(1, 1)
        report = check_bounds(inst.graph, inst.params)
        assert report.rho is None and report.rho_threshold is None and report.rho_ok is None
        assert report.sharp


class TestFdpSearch:
    def test_zero_one_on_two_vertices(self):
        found = fdp_search(P01, 2)
        assert found is not None
        e, witness = found
        assert e == 3
        assert witness == TRIPLE

    def test_budget_below_the_bound_finds_nothing(self):
        assert fdp_search(P01, 2, max_edges=2) is None

    def test_enumeration_floor_prunes_below_the_bound(self):
        # nothing with fewer than n + j = 4 edges is even examined
        assert fdp_search(P01, 3, max_edges=3) is None

    def test_one_one_on_three_vertices_matches_equal_family_size(self):
        found = fdp_search(DefectParams(1, 1), 3)
        assert found is not None
        e, witness = found
        inst = build_equal(1, 1)
        assert e == len(inst.graph.edges) == 4
        assert is_critical(witness, DefectParams(1, 1))

    def test_found_graphs_satisfy_the_bound_report(self):
        found = fdp_search(P01, 2)
        assert found is not None
        _, witness = found
        assert check_bounds(witness, P01).holds

    def test_found_graphs_have_minimum_degree_two(self):
        for params, n in ((P01, 2), (P01, 3), (DefectParams(1, 1), 3)):
            found = fdp_search(params, n, max_edges=6)
            if found is None:
                continue
            _, witness = found
            assert min(witness.degree(v) for v in range(witness.n)) >= 2

    def test_vertex_budget(self):
        with pytest.raises(BudgetError):
            fdp_search(P01, 6)

    def test_bad_vertex_count(self):
        with pytest.raises(ValueError):
            fdp_search(P01, 0)
