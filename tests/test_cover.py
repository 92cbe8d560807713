from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import defect_params, graph_cover_pairs
from dpcolor import (
    BudgetError,
    Cover,
    DefectParams,
    FormatError,
    Multigraph,
    Parity,
    PhiMap,
    Side,
    Toughness,
    all_covers,
    conflict_degrees,
    cover_from_index,
    cover_index,
    edge_conflicts,
    format_cover,
    is_valid_coloring,
    parse_cover,
)

E, O = Parity.EVEN, Parity.ODD
R, P = Side.RICH, Side.POOR

EDGE = Multigraph(2, [(0, 1)])


class TestConflictDegree:
    def test_even_edge_joins_equal_sides(self):
        c = Cover((E,))
        assert conflict_degrees(EDGE, c, PhiMap((R, R)))[0] == 1
        assert conflict_degrees(EDGE, c, PhiMap((R, R)))[1] == 1
        assert conflict_degrees(EDGE, c, PhiMap((R, P))) == [0, 0]

    def test_odd_edge_joins_opposite_sides(self):
        c = Cover((O,))
        assert conflict_degrees(EDGE, c, PhiMap((R, P))) == [1, 1]
        assert conflict_degrees(EDGE, c, PhiMap((R, R))) == [0, 0]

    def test_flag_conflicts_once_for_every_map(self):
        flag = Multigraph(2, [(0, 1), (0, 1)])
        c = Cover((E, O))
        for sides in product((R, P), repeat=2):
            assert conflict_degrees(flag, c, PhiMap(sides)) == [1, 1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            conflict_degrees(EDGE, Cover(()), PhiMap((R, R)))


class TestValidity:
    def test_edgeless_graph_always_valid(self):
        g = Multigraph(3, ())
        for sides in product((R, P), repeat=3):
            assert is_valid_coloring(g, Cover(()), PhiMap(sides), DefectParams(0, 0))

    def test_tough_vertex_cannot_take_the_tight_side(self):
        g = Multigraph(1, ())
        p = DefectParams(1, 2)
        t = Toughness.scalar([p.i + 1])
        assert not is_valid_coloring(g, Cover(()), PhiMap((P,)), p, t)
        assert is_valid_coloring(g, Cover(()), PhiMap((R,)), p, t)

    def test_triple_edge_eeo_has_no_valid_map(self):
        # hand oracle: all four maps fail at (0, 1)
        g = Multigraph(2, [(0, 1)] * 3)
        c = Cover((E, E, O))
        p = DefectParams(0, 1)
        for sides in product((R, P), repeat=2):
            assert oracles.valid(2, list(g.edges), [0, 0, 1], [int(s) for s in sides], 0, 1) == (
                is_valid_coloring(g, c, PhiMap(sides), p)
            )
            assert not is_valid_coloring(g, c, PhiMap(sides), p)


class TestAllCovers:
    def test_edgeless_yields_one_empty_cover(self):
        assert list(all_covers(Multigraph(1, ()))) == [Cover(())]

    def test_two_edges_lexicographic(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        seen = [c.letters() for c in all_covers(g)]
        assert seen == ["EE", "EO", "OE", "OO"]

    def test_triple_edge_count(self):
        assert sum(1 for _ in all_covers(Multigraph(2, [(0, 1)] * 3))) == 8

    def test_budget_refusal(self):
        g = Multigraph(2, [(0, 1)] * 5)
        with pytest.raises(BudgetError):
            list(all_covers(g, max_covers=16))

    def test_index_round_trip(self):
        for k in range(8):
            assert cover_index(cover_from_index(3, k)) == k

    def test_scan_order_is_index_order(self):
        for m in range(7):
            covers = list(all_covers(Multigraph(2, [(0, 1)] * m)))
            assert [cover_index(c) for c in covers] == list(range(2**m))
            assert covers == [cover_from_index(m, k) for k in range(2**m)]


@given(graph_cover_pairs(), st.data())
def test_conflict_degree_sum_is_twice_conflicting_edges(pair, data):
    g, c = pair
    sides = data.draw(
        st.lists(st.sampled_from((R, P)), min_size=g.n, max_size=g.n)
    )
    phi = PhiMap(tuple(sides))
    conflicting = sum(
        edge_conflicts(c.parities[e], phi.sides[u], phi.sides[v]) for e, (u, v) in enumerate(g.edges)
    )
    assert sum(conflict_degrees(g, c, phi)) == 2 * conflicting


@given(graph_cover_pairs(), st.data())
def test_flip_parity_and_endpoint_side_preserves_conflict(pair, data):
    g, c = pair
    if not g.edges:
        return
    sides = data.draw(st.lists(st.sampled_from((R, P)), min_size=g.n, max_size=g.n))
    e = data.draw(st.integers(0, len(g.edges) - 1))
    u, _ = g.edges[e]
    flipped_cover = list(c.parities)
    flipped_cover[e] = Parity(1 - int(flipped_cover[e]))
    flipped_sides = list(sides)
    flipped_sides[u] = Side(1 - int(flipped_sides[u]))
    before = oracles.conflict_counts(
        g.n, list(g.edges), [int(p) for p in c.parities], [int(s) for s in sides]
    )
    after = oracles.conflict_counts(
        g.n, list(g.edges), [int(p) for p in flipped_cover], [int(s) for s in flipped_sides]
    )
    # conflict status of e itself is unchanged, so totals agree up to u's other edges
    c2 = Cover(tuple(flipped_cover))
    phi1, phi2 = PhiMap(tuple(sides)), PhiMap(tuple(flipped_sides))
    was = conflict_degrees(g, c, phi1)
    assert was == before
    now = conflict_degrees(g, c2, phi2)
    assert now == after
    # check the edge e directly
    uu, vv = g.edges[e]
    assert edge_conflicts(c.parities[e], phi1.sides[uu], phi1.sides[vv]) == edge_conflicts(
        c2.parities[e], phi2.sides[uu], phi2.sides[vv]
    )


@given(graph_cover_pairs(), st.data())
def test_removing_an_edge_never_raises_conflict_degree(pair, data):
    g, c = pair
    if not g.edges:
        return
    sides = data.draw(st.lists(st.sampled_from((R, P)), min_size=g.n, max_size=g.n))
    phi = PhiMap(tuple(sides))
    e = data.draw(st.integers(0, len(g.edges) - 1))
    smaller = g.delete_edge(e)
    smaller_cover = Cover(c.parities[:e] + c.parities[e + 1 :])
    before = conflict_degrees(g, c, phi)
    after = conflict_degrees(smaller, smaller_cover, phi)
    assert all(after[v] <= before[v] for v in range(g.n))


@given(graph_cover_pairs(max_n=5, max_edges=6), defect_params(), st.data())
def test_zero_toughness_matches_plain_validity(pair, params, data):
    g, c = pair
    sides = data.draw(st.lists(st.sampled_from((R, P)), min_size=g.n, max_size=g.n))
    phi = PhiMap(tuple(sides))
    expect = oracles.valid(
        g.n,
        list(g.edges),
        [int(p) for p in c.parities],
        [int(s) for s in sides],
        params.i,
        params.j,
    )
    assert is_valid_coloring(g, c, phi, params, Toughness.zero(g.n)) == expect
    assert is_valid_coloring(g, c, phi, params) == expect


class TestCoverFormat:
    def test_round_trip(self):
        c = Cover((E, O, O, E))
        assert parse_cover(format_cover(c)) == c

    def test_missing_edge_line(self):
        with pytest.raises(FormatError, match="missing parity"):
            parse_cover("cover 2\np 0 E\n")

    def test_duplicate_edge_line(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_cover("cover 2\np 0 E\np 0 O\n")

    def test_bad_letter(self):
        with pytest.raises(FormatError, match="parity"):
            parse_cover("cover 1\np 0 X\n")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_cover("p 0 E\n")

    def test_header_only(self):
        assert parse_cover("cover 0\n") == Cover(())

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("cover 1\ncover 1\n", 2, "duplicate 'cover' header"),
            ("cover\n", 1, "expected 'cover <m>'"),
            ("cover one\n", 1, "edge count is not an integer: 'one'"),
            ("cover -1\n", 1, "edge count must be non-negative"),
            ("# first\np 0 E\n", 2, "expected 'cover <m>' before 'p'"),
            ("cover 1\nq 0 E\n", 2, "expected 'p <edgeId> E|O'"),
            ("cover 1\np 0\n", 2, "expected 'p <edgeId> E|O'"),
            ("cover 1\np x E\n", 2, "edge id is not an integer: 'x'"),
            # ASCII decimal only: int() alone takes all three of these
            ("cover 1_0\n", 1, "edge count is not an integer: '1_0'"),
            ("cover \uff12\np 0 E\n", 1, "edge count is not an integer: '\uff12'"),
            ("cover 12\np 1_0 E\n", 2, "edge id is not an integer: '1_0'"),
            ("cover 2\np \u0661 E\n", 2, "edge id is not an integer: '\u0661'"),
            ("cover 3\np \uff12 E\n", 2, "edge id is not an integer: '\uff12'"),
            ("cover 1\np 1 E\n", 2, "edge id out of range [0, 1)"),
            ("cover 2\np 0 E\n\np 0 O\n", 4, "duplicate parity for edge 0"),
            ("cover 1\np 0 X\n", 2, "parity must be 'E' or 'O', got 'X'"),
            # two faults: the first line wins
            ("cover 1\np 0 X\ncover 1\n", 2, "parity must be 'E' or 'O', got 'X'"),
            ("cover 1\ncover 1\np 0 X\n", 2, "duplicate 'cover' header"),
        ],
    )
    def test_each_malformed_line_is_named(self, text, line, message):
        with pytest.raises(FormatError) as exc:
            parse_cover(text)
        assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: conflict_degrees(Multigraph(2, [(0, 1)]), Cover((E,)), PhiMap((Side.RICH,))),
            "map covers 1 vertices, graph has 2",
        ),
        (lambda: cover_from_index(2, 4), "cover index 4 out of range for 2 edges"),
        (lambda: parse_cover(""), "missing 'cover <m>' header"),
        (lambda: parse_cover("# only a comment\n\n"), "missing 'cover <m>' header"),
    ],
    ids=["map-length", "cover-index", "empty-cover-text", "comment-only-cover-text"],
)
def test_each_bad_argument_is_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
