from __future__ import annotations

import math
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import defect_params, every_small_multigraph, multigraphs, seeded_multigraphs, tied_graphs
from dpcolor import (
    BudgetError,
    DefectParams,
    Multigraph,
    Regime,
    build_equal,
    build_iplusone,
    build_large,
    build_mid,
    build_zeroj,
    is_colorable,
    regime,
    sparsity_guarantee,
    violating_subset,
)

P01 = DefectParams(0, 1)

# Each regime's inequality on (|V(H)|, |E(H)|), written out independently of the package.
WITHIN = {
    Regime.ZERO_J: lambda i, j, nv, ne: ne <= nv + j - 1,
    Regime.LARGE: lambda i, j, nv, ne: (i + 1) * ne <= (2 * i + 1) * nv - (2 * i - j + 2),
    Regime.MID: lambda i, j, nv, ne: (j + 1) * ne <= 2 * j * nv + 1,
    Regime.I_PLUS_ONE: lambda i, j, nv, ne: (i * i + 3 * i + 1) * ne <= (2 * i * i + 4 * i + 1) * nv,
    Regime.EQUAL: lambda i, j, nv, ne: (i + 2) * ne <= (2 * i + 2) * nv - 1,
}


class TestGuarantee:
    def test_single_edge(self):
        assert sparsity_guarantee(Multigraph(2, [(0, 1)]), P01)

    def test_triple_edge_violates(self):
        g = Multigraph(2, [(0, 1)] * 3)
        assert not sparsity_guarantee(g, P01)
        assert violating_subset(g, P01) == frozenset({0, 1})

    def test_every_family_violates_its_guarantee(self):
        for inst in (
            build_zeroj(1, 2),
            build_large(1, 3, 0),
            build_mid(2, 4, 1),
            build_iplusone(1, 0),
            build_equal(1, 2),
        ):
            assert not sparsity_guarantee(inst.graph, inst.params)

    def test_zero_zero_unsupported(self):
        with pytest.raises(ValueError):
            sparsity_guarantee(Multigraph(1, ()), DefectParams(0, 0))

    def test_size_limit(self):
        message = "^graph has 193 vertices, limit is 192$"
        with pytest.raises(BudgetError, match=message):
            sparsity_guarantee(Multigraph(193, ()), P01)
        with pytest.raises(BudgetError, match=message):
            violating_subset(Multigraph(193, ()), DefectParams(1, 2))


class TestGuaranteeImpliesColorable:
    def test_vacuous_when_guarantee_fails(self):
        g = Multigraph(2, [(0, 1)] * 3)
        assert not sparsity_guarantee(g, P01)

    def test_families_are_vacuous_cases(self):
        for inst in (build_zeroj(1, 1), build_equal(1, 1)):
            assert not sparsity_guarantee(inst.graph, inst.params)

    def test_sparse_graph_must_be_colorable(self):
        path = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
        assert sparsity_guarantee(path, P01)
        assert is_colorable(path, P01)[0]


@given(multigraphs(max_n=6, max_edges=7), defect_params(include_zero_zero=False))
def test_guarantee_is_monotone_under_subgraphs(g, params):
    if not sparsity_guarantee(g, params):
        return
    for e in range(len(g.edges)):
        assert sparsity_guarantee(g.delete_edge(e), params)
    if g.n > 1:
        sub, _ = g.induced_subgraph(range(g.n - 1))
        assert sparsity_guarantee(sub, params)


@given(multigraphs(max_n=5, max_edges=6), defect_params(include_zero_zero=False), st.none())
def test_guarantee_oracle_holds_on_small_random_graphs(g, params, _):
    assert not sparsity_guarantee(g, params) or is_colorable(g, params)[0]


SPARSITY_IJ = [(0, 1), (0, 3), (1, 3), (2, 6), (2, 4), (3, 5), (1, 2), (2, 3), (1, 1), (2, 2)]


def _first_violation(g: Multigraph, params: DefectParams) -> tuple[int, ...] | None:
    within = partial(WITHIN[regime(params)], params.i, params.j)
    return oracles.first_violating_subset(g.n, list(g.edges), within)


@pytest.mark.parametrize("ij", SPARSITY_IJ)
@given(g=multigraphs(max_n=7, max_edges=14))
# A 5-cycle with two chords: 7|V| - 5|E| is 0 on the whole graph and positive on every proper
# subset, so (1, 2) holds with equality, a boundary that random draws almost never reach.
@example(g=Multigraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3))))
def test_violating_subset_matches_oracle(g, ij):
    params = DefectParams(*ij)
    got = violating_subset(g, params)
    assert (None if got is None else tuple(sorted(got))) == _first_violation(g, params)


def test_violating_subset_matches_oracle_on_every_small_multiset():
    for g in every_small_multigraph():
        for ij in SPARSITY_IJ:
            params = DefectParams(*ij)
            got = violating_subset(g, params)
            assert (None if got is None else tuple(sorted(got))) == _first_violation(g, params)


def test_violating_subset_matches_oracle_on_seeded_larger_graphs():
    """n = 10..13 makes the forcing walk long, beyond the hypothesis suites' n <= 7."""
    for k, g in enumerate(seeded_multigraphs(seed=9, count=20, min_n=10, max_n=13)):
        params = DefectParams(*SPARSITY_IJ[k % len(SPARSITY_IJ)])
        got = violating_subset(g, params)
        expect = _first_violation(g, params)
        assert (None if got is None else tuple(sorted(got))) == expect, (g, params)


def test_violating_subset_matches_oracle_with_tied_violations():
    for g in tied_graphs():
        for ij in SPARSITY_IJ:
            params = DefectParams(*ij)
            got = violating_subset(g, params)
            expect = _first_violation(g, params)
            assert (None if got is None else tuple(sorted(got))) == expect, (g, ij)


def test_violating_subset_takes_one_max_flow_under_the_guarantee(max_flows):
    graphs = [Multigraph(n, [(v, v + 1) for v in range(n - 1)]) for n in range(1, 30)]
    graphs += [Multigraph(n, [(v, (v + 1) % n) for v in range(n)]) for n in range(3, 30)]
    for g in graphs:
        for ij in ((0, 1), (1, 3), (2, 4), (1, 2)):
            del max_flows[:]
            assert violating_subset(g, DefectParams(*ij)) is None
            assert len(max_flows) == 1


def test_violating_subset_finds_its_top_vertex_by_binary_search(max_flows):
    """Cuts with no forced-in vertex locate the top vertex: at most ceil(log2 n) + 1 of them."""
    for k, g in enumerate(seeded_multigraphs(seed=13, count=30, min_n=2, max_n=40)):
        params = DefectParams(*SPARSITY_IJ[k % len(SPARSITY_IJ)])
        del max_flows[:]
        violating_subset(g, params)
        unforced = [outs for ins, outs, _ in max_flows if not ins]
        assert len(unforced) <= math.ceil(math.log2(g.n)) + 1


def test_violating_subset_warm_starts_every_cut_after_the_first(max_flows, backward_passes):
    """gen --family large --i 1 --j 3 --m 1: the first cut starts from zero flow, and each of
    the six probes after it from the residual of the last cut that found a violation. Only
    least minimizers are read, so no cut makes the backward pass."""
    inst = build_large(1, 3, 1)
    assert sorted(violating_subset(inst.graph, inst.params)) == [2, 3, 4, 5]
    assert [warm for _, _, warm in max_flows] == [False] + [True] * 6
    assert not backward_passes


def test_sparsity_guarantee_takes_one_max_flow(max_flows, backward_passes):
    """One cut grants or refuses the guarantee, where violating_subset goes on to find the set."""
    refused = 0
    for k, g in enumerate(seeded_multigraphs(seed=3, count=20, min_n=14, max_n=18)):
        params = DefectParams(*SPARSITY_IJ[k % len(SPARSITY_IJ)])
        expect = violating_subset(g, params) is None
        del max_flows[:]
        assert sparsity_guarantee(g, params) == expect
        assert len(max_flows) == 1
        refused += not expect
    assert refused
    assert not backward_passes
