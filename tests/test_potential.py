from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import every_small_multigraph, multigraphs, seeded_multigraphs, tied_graphs
from dpcolor.potential import _MinCut
from dpcolor.sparsity import _inequality, violating_subset
from dpcolor import (
    BudgetError,
    DefectParams,
    Multigraph,
    Regime,
    Toughness,
    build_equal,
    build_iplusone,
    build_large,
    build_mid,
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

POTENTIAL_IJ = [(0, 1), (1, 3), (2, 4), (1, 2)]


def _fixed_toughness(params: DefectParams, n: int) -> list[Toughness]:
    """Zero, constant and cyclic toughness of the regime's kind; the constant one gives every
    vertex potential 0 in the four regimes of POTENTIAL_IJ, so ties are everywhere."""
    i, j = params.i, params.j
    if regime(params) is Regime.I_PLUS_ONE:
        return [
            Toughness.zero_pairs(n),
            Toughness.pairs([(1, j + 1)] * n),
            Toughness.pairs([(v % (i + 2), 2 * v % (j + 2)) for v in range(n)]),
        ]
    return [
        Toughness.zero(n),
        Toughness.scalar([j] * n),
        Toughness.scalar([v % (j + 2) for v in range(n)]),
    ]


def _rho_oracle(g: Multigraph, params: DefectParams, t: Toughness) -> tuple[int, tuple[int, ...]]:
    if regime(params) is Regime.I_PLUS_ONE:
        coeff = params.i * params.i + 3 * params.i + 1
    else:
        coeff = scalar_constants(params)[1]
    per_vertex = [rho_vertex(params, t, v) for v in range(g.n)]
    return oracles.subset_potential_minimum(g.n, list(g.edges), per_vertex, coeff)


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

    def test_vertex_limit_is_a_budget(self):
        with pytest.raises(BudgetError, match="^graph has 193 vertices, limit is 192$"):
            rho_graph(Multigraph(193, ()), DefectParams(0, 1))
        inst = build_iplusone(2, 2)  # n = 42: 2^42 subsets, at most 84 max-flows
        value, _ = rho_graph(inst.graph, inst.params)
        assert value <= potential_threshold(inst.params)

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
    assert (value, tuple(sorted(argmin))) == _rho_oracle(g, params, t)


def test_rho_graph_matches_oracle_on_every_small_multiset():
    for g in every_small_multigraph():
        for ij in POTENTIAL_IJ:
            params = DefectParams(*ij)
            for t in _fixed_toughness(params, g.n):
                value, argmin = rho_graph(g, params, t)
                assert (value, tuple(sorted(argmin))) == _rho_oracle(g, params, t), (g, ij, t)


def test_rho_graph_matches_oracle_on_seeded_larger_graphs():
    """n = 10..13 makes the forcing walk long, beyond the hypothesis suites' n <= 7."""
    for k, g in enumerate(seeded_multigraphs(seed=9, count=12, min_n=10, max_n=13)):
        params = DefectParams(*POTENTIAL_IJ[k % 4])
        t = _fixed_toughness(params, g.n)[k % 3]
        value, argmin = rho_graph(g, params, t)
        assert (value, tuple(sorted(argmin))) == _rho_oracle(g, params, t), (g, params, t)


def test_min_cut_paths_do_not_recurse_per_level():
    # a long path gives a deep level graph; the max-flow must not spend a
    # Python frame per level, so it still answers with little stack to spare
    n = 300
    g = Multigraph(n, [(v, v + 1) for v in range(n - 1)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        value, _ = rho_graph(g, DefectParams(1, 2), max_vertices=n)
        bad = violating_subset(g, DefectParams(0, 1), max_vertices=n)
    finally:
        sys.setrecursionlimit(limit)
    assert value == 7 and bad is None


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


# Each regime's constants as closed forms in i and j, written out independently of the
# package's table: edge bound, threshold, scalar pair (None: raises) and sparsity row.
def _closed_forms(i: int, j: int, n: int):
    if i == 0:
        return Fraction(n + j), -j, (1, 1), (1, 1, 1 - j)
    if j == i:
        return Fraction((2 * i + 2) * n, i + 2), None, None, (2 * i + 2, i + 2, 1)
    if j == i + 1:
        a, b = 2 * i * i + 4 * i + 1, i * i + 3 * i + 1
        return Fraction(a * n + 1, b), -1, None, (a, b, 0)
    if j >= 2 * i + 1:
        return (
            Fraction((2 * i + 1) * n - (2 * i - j), i + 1),
            2 * i - j,
            (2 * i + 1, i + 1),
            (2 * i + 1, i + 1, 2 * i - j + 2),
        )
    return Fraction(2 * j * n + 2, j + 1), -2, (2 * j, j + 1), (2 * j, j + 1, -1)


def test_regime_table_matches_closed_forms():
    for i in range(13):
        for j in range(max(i, 1), 13):
            p = DefectParams(i, j)
            for n in range(1, 41):
                bound, threshold, scalars, row = _closed_forms(i, j, n)
                assert edge_bound(p, n) == bound, (i, j, n)
            assert _inequality(p) == row, (i, j)
            if threshold is None:
                with pytest.raises(ValueError, match="has no potential threshold"):
                    potential_threshold(p)
            else:
                assert potential_threshold(p) == threshold, (i, j)
            if scalars is None:
                with pytest.raises(ValueError, match="has no scalar potential constants"):
                    scalar_constants(p)
                with pytest.raises(ValueError, match="has no scalar potential constants"):
                    weight_w(p, j + 1)
            else:
                assert scalar_constants(p) == scalars, (i, j)
                assert weight_w(p, j + 1) == threshold, (i, j)


def test_error_messages_without_a_row_or_potential():
    with pytest.raises(ValueError, match="^regime equal has no potential$"):
        rho_set(Multigraph(1, ()), DefectParams(1, 1), Toughness.zero(1), ())
    with pytest.raises(ValueError, match="^regime equal has no potential$"):
        rho_vertex(DefectParams(1, 1), Toughness.zero(1), 0)
    with pytest.raises(ValueError, match="^regime equal has no potential$"):
        rho_graph(Multigraph(1, ()), DefectParams(1, 1))
    with pytest.raises(ValueError, match="^regime equal has no scalar potential constants$"):
        weight_w(DefectParams(1, 1), 0)
    with pytest.raises(ValueError, match="^regime i_plus_one has no scalar potential constants$"):
        scalar_constants(DefectParams(1, 2))
    p = DefectParams(0, 0)
    with pytest.raises(ValueError, match=r"^no edge bound for \(0, 0\)$"):
        edge_bound(p, 1)
    with pytest.raises(ValueError, match="^regime zero_zero has no potential threshold$"):
        potential_threshold(p)
    with pytest.raises(ValueError, match="^regime zero_zero has no scalar potential constants$"):
        scalar_constants(p)
    with pytest.raises(ValueError, match=r"^no sparsity guarantee for \(0, 0\)$"):
        _inequality(p)
    with pytest.raises(ValueError, match="^regime zero_zero has no potential$"):
        rho_set(Multigraph(1, ()), p, Toughness.zero(1), ())


# Family instances with m <= 2 in the four regimes with a potential; each has rho <= -k < 0.
POTENTIAL_FAMILIES = (
    [build_zeroj(j, m) for j in (1, 2, 3) for m in (1, 2)]
    + [build_large(i, j, m) for i, j in ((1, 3), (1, 4), (2, 5)) for m in (0, 1, 2)]
    + [build_mid(i, j, m) for i, j in ((2, 4), (3, 5), (3, 6)) for m in (1, 2)]
    + [build_iplusone(i, m) for i in (1, 2) for m in (0, 1, 2)]
)

def _cut_values(g: Multigraph, weights: list[int], coeff: int) -> dict[frozenset[int], int]:
    """val(S) of every vertex set, the empty one included, from the definition."""
    values = {}
    for mask in range(1 << g.n):
        s = frozenset(v for v in range(g.n) if mask >> v & 1)
        internal = sum(1 for u, w in g.edges if u in s and w in s)
        values[s] = sum(weights[v] for v in s) - coeff * internal
    return values


def _forced_minimum(values: dict[frozenset[int], int], ins: set[int], outs: set[int]) -> tuple:
    """The least value over the sets holding ins and avoiding outs, with the least and the
    greatest of the sets that reach it, as sorted lists."""
    feasible = {s: v for s, v in values.items() if ins <= s and not outs & s}
    best = min(feasible.values())
    minimizers = [s for s, v in feasible.items() if v == best]
    return best, sorted(frozenset.intersection(*minimizers)), sorted(frozenset.union(*minimizers))


@given(multigraphs(max_n=6, max_edges=9), st.data())
def test_min_cut_returns_the_least_and_greatest_minimizer(g, data):
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=g.n, max_size=g.n))
    coeff = data.draw(st.integers(1, 3))
    ins = data.draw(st.sets(st.sampled_from(range(g.n)))) if g.n else set()
    outs = data.draw(st.sets(st.sampled_from(range(g.n)))) - ins if g.n else set()
    cut = _MinCut(g, weights, coeff)
    value, least, residual = cut.minimum(sorted(ins), sorted(outs))
    expect = _forced_minimum(_cut_values(g, weights, coeff), ins, outs)
    assert (value, least, cut.greatest(residual)) == expect


@given(multigraphs(max_n=6, max_edges=9), st.data())
def test_warm_started_cuts_match_cold_cuts_and_brute_force(g, data):
    """A chain of cuts, each forcing what the last one forced and more, each started from the
    last one's residual: every answer equals a cut from zero flow and the definition."""
    weights = data.draw(st.lists(st.integers(-3, 3), min_size=g.n, max_size=g.n))
    coeff = data.draw(st.integers(1, 3))
    values = _cut_values(g, weights, coeff)
    cut = _MinCut(g, weights, coeff)
    ins: set[int] = set()
    outs: set[int] = set()
    residual = None

    def more(forced: set[int], other: set[int]) -> set[int]:
        free = sorted(set(range(g.n)) - other)
        return forced | (data.draw(st.sets(st.sampled_from(free))) if free else set())

    for _ in range(data.draw(st.integers(1, 4))):
        ins = more(ins, outs)
        outs = more(outs, ins)
        value, least, residual = cut.minimum(sorted(ins), sorted(outs), residual)
        warm = value, least, cut.greatest(residual)
        cold_value, cold_least, cold = cut.minimum(sorted(ins), sorted(outs))
        assert warm == (cold_value, cold_least, cut.greatest(cold))
        assert warm == _forced_minimum(values, ins, outs)


def test_a_warm_start_must_force_a_subset():
    cut = _MinCut(Multigraph(3, [(0, 1), (1, 2)]), [1, -1, 1], 1)
    residual = cut.minimum([0], [])[2]
    with pytest.raises(ValueError, match="warm start"):
        cut.minimum([], [2], residual)


@pytest.mark.parametrize("inst", POTENTIAL_FAMILIES, ids=lambda inst: f"{inst.family}-{inst.i}-{inst.j}-{inst.m}")
def test_rho_graph_takes_one_max_flow_on_family_instances(inst, max_flows, backward_passes):
    value, _ = rho_graph(inst.graph, inst.params)
    assert value <= potential_threshold(inst.params)
    assert len(max_flows) == len(backward_passes) == 1


def test_rho_graph_matches_oracle_with_tied_minimizers():
    for g in tied_graphs():
        for ij in POTENTIAL_IJ:
            params = DefectParams(*ij)
            for t in _fixed_toughness(params, g.n):
                value, argmin = rho_graph(g, params, t)
                assert (value, tuple(sorted(argmin))) == _rho_oracle(g, params, t), (g, ij, t)


def test_rho_graph_falls_back_to_forced_cuts_when_every_set_is_positive(max_flows, backward_passes):
    """At (1, 2) a vertex weighs 7 and an edge 5, so on trees and paths every nonempty set
    is positive and only the empty set is a minimizer of the unforced cut."""
    params = DefectParams(1, 2)
    rng = random.Random(5)
    paths = [Multigraph(n, [(v, v + 1) for v in range(n - 1)]) for n in range(1, 11)]
    trees = [Multigraph(n, [(v, rng.randrange(v)) for v in range(1, n)]) for n in range(2, 13)]
    for g in paths + trees:
        t = Toughness.zero_pairs(g.n)
        del max_flows[:], backward_passes[:]
        value, argmin = rho_graph(g, params, t)
        assert value > 0
        assert (value, tuple(sorted(argmin))) == _rho_oracle(g, params, t), g
        assert len(max_flows) == 1 + g.n
        # the greatest minimizer is read off the unforced cut and the winning forced cut alone
        assert len(backward_passes) == 2
        # every forced cut starts from the unforced cut's residual
        assert [warm for _, _, warm in max_flows] == [False] + [True] * g.n


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rho_vertex(DefectParams(0, 1), Toughness.zero(2), 2), "vertex 2 out of range [0, 2)"),
        (
            lambda: rho_set(Multigraph(2, ()), DefectParams(0, 1), Toughness.zero(2), [0, 2]),
            "vertex 2 out of range [0, 2)",
        ),
        (lambda: rho_graph(Multigraph(0, ()), DefectParams(0, 1)), "potential of the empty graph is undefined"),
        (lambda: edge_bound(DefectParams(0, 1), 0), "need at least one vertex"),
    ],
    ids=["rho-vertex", "rho-set", "rho-graph-empty", "edge-bound-n"],
)
def test_each_bad_argument_is_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
