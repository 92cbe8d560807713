from __future__ import annotations

import pytest
from hypothesis import given

from conftest import multigraphs
from dpcolor import (
    DefectParams,
    FormatError,
    Multigraph,
    Toughness,
    build_large,
    build_zeroj,
    format_graph,
    parse_graph,
)

TRIPLE = Multigraph(2, [(0, 1)] * 3)


class TestDegree:
    def test_triple_edge_counts_multiplicity(self):
        assert TRIPLE.degree(0) == 3
        assert TRIPLE.degree(1) == 3

    def test_isolated_vertex(self):
        assert Multigraph(3, [(0, 1)]).degree(2) == 0

    def test_flag_vertices_have_degree_two(self):
        inst = build_large(1, 3, 1)
        for v in range(2 + 1, inst.graph.n):  # everything past the path is a flag vertex
            assert inst.graph.degree(v) == 2

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TRIPLE.degree(2)


class TestDeleteEdge:
    def test_triple_to_double(self):
        g = TRIPLE.delete_edge(0)
        assert g.n == 2 and len(g.edges) == 2

    def test_cycle_to_path(self):
        c3 = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
        g = c3.delete_edge(1)
        assert sorted(tuple(sorted(e)) for e in g.edges) == [(0, 1), (0, 2)]
        assert g.is_connected()

    def test_unique_path_edge_splits_large_family(self):
        inst = build_large(1, 3, 1)
        e = inst.graph.edges.index((0, 1))
        assert not inst.graph.delete_edge(e).is_connected()

    def test_delete_then_readd_keeps_degree_sequence(self):
        g = build_zeroj(1, 2).graph
        for e, (u, v) in enumerate(g.edges):
            again = Multigraph(g.n, g.delete_edge(e).edges + ((u, v),))
            assert sorted(again.degree(w) for w in range(g.n)) == sorted(
                g.degree(w) for w in range(g.n)
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TRIPLE.delete_edge(3)


class TestInducedSubgraph:
    def test_empty_set(self):
        sub, mapping = TRIPLE.induced_subgraph(())
        assert sub.n == 0 and sub.edges == () and mapping == ()

    def test_triple_edge_both_ends(self):
        sub, mapping = TRIPLE.induced_subgraph({0, 1})
        assert len(sub.edges) == 3 and mapping == (0, 1)

    def test_one_triangle_of_zeroj(self):
        g = build_zeroj(1, 2).graph
        sub, mapping = g.induced_subgraph({3, 4, 5})
        assert len(sub.edges) == 3
        assert mapping == (3, 4, 5)

    def test_full_vertex_set_keeps_edge_count(self):
        g = build_zeroj(2, 1).graph
        sub, _ = g.induced_subgraph(range(g.n))
        assert len(sub.edges) == len(g.edges)


class TestConnectivity:
    def test_single_edge(self):
        assert Multigraph(2, [(0, 1)]).is_connected()

    def test_two_disjoint_edges(self):
        assert not Multigraph(4, [(0, 1), (2, 3)]).is_connected()

    def test_empty_graph(self):
        assert Multigraph(0, ()).is_connected()

    def test_families_are_connected(self):
        from dpcolor import build_equal, build_iplusone, build_mid

        for inst in (
            build_zeroj(2, 3),
            build_large(1, 3, 1),
            build_mid(2, 4, 1),
            build_iplusone(1, 0),
            build_equal(2, 2),
        ):
            assert inst.graph.is_connected()


@given(multigraphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in range(g.n)) == 2 * len(g.edges)


class TestValidation:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Multigraph(2, [(1, 1)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(ValueError):
            Multigraph(2, [(0, 2)])

    def test_defect_params_ordering(self):
        with pytest.raises(ValueError):
            DefectParams(2, 1)
        with pytest.raises(ValueError):
            DefectParams(-1, 0)

    def test_scalar_toughness_range_check(self):
        t = Toughness.scalar([3, 0])
        with pytest.raises(ValueError):
            t.check(DefectParams(0, 1), 2)
        t.check(DefectParams(0, 2), 2)

    def test_refined_toughness_range_check(self):
        Toughness.pairs([(2, 0), (0, 3)]).check(DefectParams(1, 2), 2)  # at the caps
        with pytest.raises(ValueError):
            Toughness.pairs([(3, 0)]).check(DefectParams(1, 2), 1)
        with pytest.raises(ValueError):
            Toughness.pairs([(0, 4)]).check(DefectParams(1, 2), 1)

    def test_toughness_negative_rejected(self):
        with pytest.raises(ValueError):
            Toughness.scalar([-1])

    def test_toughness_length_mismatch(self):
        with pytest.raises(ValueError):
            Toughness.scalar([0]).check(DefectParams(0, 1), 2)


class TestFileFormat:
    def test_round_trip_plain(self):
        g = build_zeroj(1, 2).graph
        parsed, t = parse_graph(format_graph(g))
        assert parsed == g and t is None

    def test_round_trip_scalar_toughness(self):
        g = Multigraph(3, [(0, 1), (1, 2)])
        t = Toughness.scalar([0, 2, 1])
        parsed, parsed_t = parse_graph(format_graph(g, t))
        assert parsed == g and parsed_t == t

    def test_round_trip_refined_toughness(self):
        g = Multigraph(2, [(0, 1)])
        t = Toughness.pairs([(1, 0), (0, 2)])
        parsed, parsed_t = parse_graph(format_graph(g, t))
        assert parsed == g and parsed_t == t

    def test_comments_and_defaults(self):
        g, t = parse_graph("# header\ngraph 3\ne 0 1  # trailing\nt 1 2\n")
        assert g == Multigraph(3, [(0, 1)])
        assert t == Toughness.scalar([0, 2, 0])

    def test_error_carries_line_number(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_graph("graph 2\ne 0 1\ne 0 7\n")

    def test_loop_rejected_with_line(self):
        with pytest.raises(FormatError, match="line 2: loop"):
            parse_graph("graph 2\ne 1 1\n")

    def test_mixed_toughness_kinds_rejected(self):
        with pytest.raises(FormatError, match="one kind"):
            parse_graph("graph 2\nt 0 1\nt2 1 0 0\n")

    def test_missing_header(self):
        with pytest.raises(FormatError):
            parse_graph("e 0 1\n")
        with pytest.raises(FormatError):
            parse_graph("# only a comment\n")

    def test_unknown_directive(self):
        with pytest.raises(FormatError, match="unknown directive"):
            parse_graph("graph 1\nq 0\n")

    def test_duplicate_toughness_rejected(self):
        with pytest.raises(FormatError, match="duplicate toughness"):
            parse_graph("graph 2\nt 0 1\nt 0 2\n")

    def test_header_only(self):
        assert parse_graph("graph 3\n") == (Multigraph(3, ()), None)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("graph 2\ngraph 3\n", 2, "duplicate 'graph' header"),
        ("graph\n", 1, "expected 'graph <n>'"),
        ("graph two\n", 1, "vertex count is not an integer: 'two'"),
        ("graph -1\n", 1, "vertex count must be non-negative"),
        ("# first\ne 0 1\n", 2, "expected 'graph <n>' before 'e'"),
        ("graph 2\ne 0\n", 2, "expected 'e <u> <v>'"),
        ("graph 2\ne 0 x\n", 2, "endpoint is not an integer: 'x'"),
        ("graph 2\ne 0 2\n", 2, "endpoint out of range [0, 2)"),
        ("graph 2\ne 1 1\n", 2, "loop at vertex 1"),
        ("graph 2\nt2 0 0 0\nt 1 1\n", 3, "'t' after 't2'; one kind per file"),
        ("graph 2\nt 0\n", 2, "expected 't <v> <k>'"),
        ("graph 2\nt 0 x\n", 2, "toughness is not an integer: 'x'"),
        ("graph 2\nt 2 1\n", 2, "vertex out of range [0, 2)"),
        ("graph 2\nt 0 -1\n", 2, "toughness must be non-negative"),
        ("graph 2\nt 0 1\n\nt 0 2\n", 4, "duplicate toughness for vertex 0"),
        ("graph 2\nt 0 1\nt2 1 0 0\n", 3, "'t2' after 't'; one kind per file"),
        ("graph 2\nt2 0 0\n", 2, "expected 't2 <v> <tp> <tr>'"),
        ("graph 2\nt2 0 x 0\n", 2, "poor toughness is not an integer: 'x'"),
        ("graph 2\nt2 0 0 x\n", 2, "rich toughness is not an integer: 'x'"),
        ("graph 2\nt2 2 0 0\n", 2, "vertex out of range [0, 2)"),
        ("graph 2\nt2 0 -1 0\n", 2, "toughness must be non-negative"),
        ("graph 2\nt2 0 0 0\nt2 0 1 1\n", 3, "duplicate toughness for vertex 0"),
        ("graph 1\nq 0\n", 2, "unknown directive 'q'"),
        # two faults: the first line wins
        ("graph 2\ne 0 9\ngraph 3\n", 2, "endpoint out of range [0, 2)"),
        ("graph 2\ngraph 3\ne 0 9\n", 2, "duplicate 'graph' header"),
    ],
)
def test_each_malformed_graph_line_is_named(text, line, message):
    with pytest.raises(FormatError) as exc:
        parse_graph(text)
    assert str(exc.value) == f"line {line}: {message}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Toughness((0,), (0, 0), True), "poor and rich vectors must have equal length"),
        (lambda: Toughness((0,), (1,)), "scalar toughness must agree on both sides"),
        (lambda: Multigraph(-1, ()), "vertex count must be non-negative"),
        (lambda: Multigraph(2, ()).induced_subgraph([0, 2]), "vertex 2 out of range [0, 2)"),
        (
            lambda: format_graph(Multigraph(2, ()), Toughness.zero(3)),
            "toughness covers 3 vertices, graph has 2",
        ),
        (lambda: parse_graph("# only a comment\n\n"), "missing 'graph <n>' header"),
    ],
    ids=[
        "toughness-lengths",
        "scalar-sides",
        "negative-n",
        "induced-vertex",
        "format-toughness",
        "comment-only-graph-text",
    ],
)
def test_each_bad_argument_is_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
