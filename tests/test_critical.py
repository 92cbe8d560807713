from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import chain, combinations_with_replacement, permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    defect_params,
    flagged_multigraphs,
    multigraphs,
    toughness_for,
)
from dpcolor import (
    BudgetError,
    DefectParams,
    Multigraph,
    Regime,
    Toughness,
    build_equal,
    build_family,
    build_large,
    check_bounds,
    edge_bound,
    fdp_search,
    is_colorable,
    is_critical,
)
from dpcolor import critical
from dpcolor.cli import main
from dpcolor.critical import _level, _lex_first

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
            (Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3), P01, False),
        ],
    )
    def test_max_covers_caps_the_one_scan(self, g, params, expected):
        m = len(g.edges)
        with pytest.raises(BudgetError):
            is_critical(g, params, max_covers=2**m - 1)
        assert is_critical(g, params, max_covers=2**m) is expected

    @pytest.mark.parametrize("family, i, m", [("iplusone", 2, 0), ("equal", 1, 5)])
    def test_flagged_families_answer_through_the_fold(self, family, i, m):
        # G has 31 and 20 edges, its core 7 and 10: the core's scan takes milliseconds
        inst = build_family(family, i, None, m)
        assert is_critical(inst.graph, inst.params, max_covers=2 ** len(inst.graph.edges))

    def test_disconnected_graph_rejected(self, kernel):
        # each triple edge alone is critical; together, deleting an edge of
        # one leaves the other uncolorable
        g = Multigraph(4, [(0, 1)] * 3 + [(2, 3)] * 3)
        assert is_critical(g, P01) is False
        assert oracles.critical(4, list(g.edges), 0, 1) is False

    def test_toughness_checked_before_the_degree_one_rule(self):
        g = Multigraph(3, [(0, 1)] * 3 + [(1, 2)])
        with pytest.raises(ValueError, match="refined poor toughness"):
            is_critical(g, P01, Toughness.pairs([(0, 0), (0, 0), (2, 0)]))


@settings(
    max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(multigraphs(max_n=5, max_edges=9), defect_params(), st.data())
def test_is_critical_matches_oracle(kernel, g, params, data):
    t = data.draw(toughness_for(g.n, params))
    expected = oracles.critical(g.n, list(g.edges), params.i, params.j, list(t.poor), list(t.rich))
    assert is_critical(g, params, t) == expected


@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.one_of(multigraphs(max_n=8, max_edges=11), flagged_multigraphs()), defect_params(), st.data()
)
def test_verdicts_ignore_the_edge_order(kernel, g, params, data):
    # the verdict scans sort each core's edges by degree, whatever the order given
    t = data.draw(toughness_for(g.n, params))
    shuffled = Multigraph(g.n, data.draw(st.permutations(g.edges)))
    assert is_critical(shuffled, params, t) == is_critical(g, params, t)
    assert is_colorable(shuffled, params, t)[0] == is_colorable(g, params, t)[0]


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


def _sorted_edges(n, edges):
    return tuple(sorted(tuple(sorted(edge)) for edge in edges))


def test_lex_first_matches_the_oracle_on_every_small_multiset():
    # every level-e multiset on n <= 5 vertices, up to 6 edges (5 at n = 5)
    for n in range(1, 6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for e in range(7 if n < 5 else 6):
            for combo in combinations_with_replacement(pairs, e):
                first = oracles.first_relabeling(n, list(combo))
                assert _lex_first(combo, n) == (combo == first), combo
                assert _lex_first(first, n)


@settings(max_examples=300, deadline=None)
@given(multigraphs(max_n=6, max_edges=10, min_n=1), st.data())
def test_lex_first_matches_the_oracle(g, data):
    # a random relabeling of the drawn multiset, and one that ties with the
    # least on row 0: a vertex with the greatest row sorted in falling order
    # goes to 0, the rest by falling multiplicity to it, ties in random order
    n = g.n
    mult = Counter(frozenset(edge) for edge in g.edges)
    rows = [sorted([mult[frozenset((w, x))] for x in range(n) if x != w])[::-1] for w in range(n)]
    w = data.draw(st.sampled_from([v for v in range(n) if rows[v] == max(rows)]))
    others = data.draw(st.permutations([x for x in range(n) if x != w]))
    tied = [w, *sorted(others, key=lambda x: -mult[frozenset((w, x))])]
    perm = data.draw(st.permutations(range(n)))
    first = oracles.first_relabeling(n, list(g.edges))
    for label in (perm, [tied.index(v) for v in range(n)]):
        combo = _sorted_edges(n, [(label[u], label[v]) for u, v in g.edges])
        assert _lex_first(combo, n) == (combo == first)
    assert _lex_first(first, n)


def test_lex_first_passes_one_relabeling_of_each_regular_graph():
    # every vertex ties on row 0, so the relabelings are told apart by the later rows
    c6 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    two_triangles = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    k33 = [(u, v) for u in range(3) for v in range(3, 6)]
    prism = two_triangles + [(0, 3), (1, 4), (2, 5)]
    for edges in (c6, two_triangles, k33, prism, prism + c6):
        relabelings = {
            _sorted_edges(6, [(p[u], p[v]) for u, v in edges]) for p in permutations(range(6))
        }
        assert [c for c in relabelings if _lex_first(c, 6)] == [oracles.first_relabeling(6, edges)]


def _first_critical_multiset(params, n, max_edges):
    """fdp_search without the isomorphism cache: every multiset through oracles.critical."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    floor = max(math.ceil(edge_bound(params, n)), 1)
    enumeration = (
        combo for e in range(floor, max_edges + 1) for combo in combinations_with_replacement(pairs, e)
    )
    return next(
        (combo for combo in enumeration if oracles.critical(n, list(combo), params.i, params.j)),
        None,
    )


ALL_CELLS = [(i, j) for i in range(3) for j in range(i, 5) if (i, j) != (0, 0)]


# the oracle's cost grows as 2^|E| per multiset, so larger n stop earlier
@pytest.mark.parametrize("n, max_edges", [(1, 9), (2, 9), (3, 8), (4, 7)])
@pytest.mark.parametrize("i, j", ALL_CELLS)
def test_fdp_search_matches_uncached_reference(i, j, n, max_edges):
    found = fdp_search(DefectParams(i, j), n, max_edges=max_edges)
    expected = _first_critical_multiset(DefectParams(i, j), n, max_edges)
    if expected is None:
        assert found is None
    else:
        assert found == (len(expected), Multigraph(n, expected))


@pytest.mark.parametrize(
    "i, j, witness",
    [
        (0, 1, "01 01 02 03 24 34"),
        (0, 2, "01 01 01 02 03 24 34"),
        (1, 1, "01 01 02 03 04 23 24"),
        (1, 2, "01 01 02 02 03 04 34 34"),
        (1, 3, "01 01 02 02 03 03 04 04"),
    ],
)
def test_fdp_search_five_vertex_witnesses(i, j, witness):
    edges = [(int(uv[0]), int(uv[1])) for uv in witness.split()]
    assert fdp_search(DefectParams(i, j), 5) == (len(edges), Multigraph(5, edges))


@pytest.mark.parametrize(
    "i, j, verdicts", [(0, 1, 3), (0, 2, 3), (1, 1, 18), (1, 2, 52), (1, 3, 44)]
)
def test_fdp_search_decides_each_class_once(monkeypatch, i, j, verdicts):
    # one is_critical call per isomorphism class with minimum degree 2 up to
    # the witness's, as when each class's verdict was cached by a canonical key
    calls = []

    def counted(g, *args, **kwargs):
        calls.append(g)
        return is_critical(g, *args, **kwargs)

    monkeypatch.setattr(critical, "is_critical", counted)
    found = fdp_search(DefectParams(i, j), 5)
    assert len(calls) == verdicts
    assert calls[-1] == found[1]
    for k, g in enumerate(calls):
        assert not any(oracles.isomorphic(5, list(g.edges), list(h.edges)) for h in calls[:k])


def test_fdp_budget_raises_where_the_uncached_search_did(capsys):
    # the first level of (1, 2) at n = 5 has 8 edges; 2^8 > 100 raises there
    assert main(["fdp", "--n", "5", "--i", "1", "--j", "2", "--max-covers", "100"]) == 2
    assert capsys.readouterr().err.strip() == "error: 2^8 covers exceed the limit of 100"
    assert main(["fdp", "--n", "4", "--i", "1", "--j", "2", "--max-covers", "100"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "fdp 6"


def test_fdp_checks_no_budget_on_a_level_with_no_multiset():
    # one vertex has no pair to join, so no level holds a multiset and no
    # level may refuse its 2^e covers
    assert fdp_search(DefectParams(0, 1), 1, max_covers=1) is None


def _reference_level(n, e):
    """fdp_search's level as a plain loop: every multiset over all pairs,
    a degree count, then _lex_first."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for combo in combinations_with_replacement(pairs, e):
        deg = [0] * n
        for u, v in combo:
            deg[u] += 1
            deg[v] += 1
        if 0 not in deg and 1 not in deg and _lex_first(combo, n):
            yield combo


# the packed degree field gains a bit between 1|2, 3|4, 7|8 and 15|16 edges;
# at n = 3 a vertex can take every edge, and the levels run past all four
@pytest.mark.parametrize("n, max_edges", [(1, 10), (2, 10), (3, 16), (4, 10), (5, 10), (6, 8)])
def test_level_matches_the_reference_loop(n, max_edges):
    for e in range(max_edges + 1):
        assert list(_level(n, e)) == list(_reference_level(n, e)), e


def test_level_matches_the_oracle():
    # minimum degree 2 by a count, lex-first by all n! relabelings
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for e in range(8):
            expected = []
            for combo in combinations_with_replacement(pairs, e):
                deg = Counter(chain.from_iterable(combo))
                if min(deg[v] for v in range(n)) >= 2 and combo == oracles.first_relabeling(
                    n, list(combo)
                ):
                    expected.append(combo)
            assert list(_level(n, e)) == expected, (n, e)


def test_fdp_search_tests_only_falling_rows_0(monkeypatch):
    # _lex_first sees a multiset only if its row 0 falls and its degrees are all
    # at least 2: 449 calls across the benchmark cells, 831 when whole levels were walked
    calls = []

    def counted(combo, n):
        calls.append(combo)
        return _lex_first(combo, n)

    monkeypatch.setattr(critical, "_lex_first", counted)
    for i, j in [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]:
        fdp_search(DefectParams(i, j), 5)
    assert len(calls) == 449


# f_DP(i, j, n) for n = 1..5 under the default cap of 10 edges, None where no
# critical multigraph has at most 10; the README's table adds n = 6
FDP_TABLE = {
    (0, 1): [None, 3, 4, 5, 6],
    (0, 2): [None, 4, 5, 6, 7],
    (0, 3): [None, 5, 6, 7, 8],
    (0, 4): [None, 6, 7, 8, 9],
    (0, 5): [None, 7, 8, 9, 10],
    (1, 1): [None, 4, 4, 6, 7],
    (1, 2): [None, 5, 6, 6, 8],
    (1, 3): [None, 6, 7, 8, 8],
    (1, 4): [None, 7, 8, 9, 10],
    (1, 5): [None, 8, 9, 10, None],
    (2, 2): [None, 6, 6, 6, 9],
    (2, 3): [None, 7, 8, 8, 8],
    (2, 4): [None, 8, 9, 10, 10],
    (2, 5): [None, 9, 10, None, None],
}


@pytest.mark.parametrize("i, j", list(FDP_TABLE))
def test_fdp_table_up_to_five_vertices(i, j):
    found = [fdp_search(DefectParams(i, j), n) for n in range(1, 6)]
    assert [f and f[0] for f in found] == FDP_TABLE[i, j]


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
