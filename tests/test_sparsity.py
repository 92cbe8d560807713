from __future__ import annotations

from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import defect_params, multigraphs
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
    guarantee_implies_colorable,
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
        with pytest.raises(BudgetError):
            sparsity_guarantee(Multigraph(25, ()), P01)


class TestGuaranteeImpliesColorable:
    def test_vacuous_when_guarantee_fails(self):
        g = Multigraph(2, [(0, 1)] * 3)
        assert guarantee_implies_colorable(g, P01)

    def test_families_are_vacuous_cases(self):
        for inst in (build_zeroj(1, 1), build_equal(1, 1)):
            assert guarantee_implies_colorable(inst.graph, inst.params)

    def test_sparse_graph_must_be_colorable(self):
        path = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
        assert sparsity_guarantee(path, P01)
        assert guarantee_implies_colorable(path, P01)


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
    assert guarantee_implies_colorable(g, params)


@pytest.mark.parametrize(
    "ij", [(0, 1), (0, 3), (1, 3), (2, 6), (2, 4), (3, 5), (1, 2), (2, 3), (1, 1), (2, 2)]
)
@given(g=multigraphs(max_n=7, max_edges=14))
# A 5-cycle with two chords: 7|V| - 5|E| is 0 on the whole graph and positive on every proper
# subset, so (1, 2) holds with equality, a boundary that random draws almost never reach.
@example(g=Multigraph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3))))
def test_violating_subset_matches_oracle(g, ij):
    params = DefectParams(*ij)
    within = partial(WITHIN[regime(params)], *ij)
    expect = oracles.first_violating_subset(g.n, list(g.edges), within)
    got = violating_subset(g, params)
    assert (None if got is None else tuple(sorted(got))) == expect
