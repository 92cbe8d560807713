from __future__ import annotations

from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from conftest import defect_params, every_small_multigraph, multigraphs, seeded_multigraphs
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
        message = "^graph has 25 vertices, limit is 24$"
        with pytest.raises(BudgetError, match=message):
            sparsity_guarantee(Multigraph(25, ()), P01)
        with pytest.raises(BudgetError, match=message):
            violating_subset(Multigraph(25, ()), DefectParams(1, 2))


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
