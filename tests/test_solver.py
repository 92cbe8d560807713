from __future__ import annotations

import random
import sys
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    bounded_degree_graphs,
    defect_params,
    flagged_multigraphs,
    graph_cover_pairs,
    multigraphs,
    toughness_for,
)
from dpcolor import (
    BudgetError,
    Cover,
    DefectParams,
    Multigraph,
    Parity,
    PhiMap,
    Side,
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
    solver,
)

E, O = Parity.EVEN, Parity.ODD
TRIPLE = Multigraph(2, [(0, 1)] * 3)


class TestExhaustive:
    def test_edgeless_returns_all_rich(self):
        g = Multigraph(4, ())
        phi = exhaustive_color(g, Cover(()), DefectParams(0, 0))
        assert phi == PhiMap((Side.RICH,) * 4)

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


@given(flagged_multigraphs(), defect_params(), st.data())
def test_exhaustive_folds_flags_and_keeps_the_witness(g, params, data):
    # existence is decided on the core without its flags; the witness is
    # still the first map of the branch-and-bound on g itself
    parities = data.draw(st.lists(st.sampled_from((E, O)), min_size=len(g.edges), max_size=len(g.edges)))
    t = data.draw(st.one_of(st.just(Toughness.zero(g.n)), toughness_for(g.n, params)))
    c = Cover(tuple(parities))
    fast = exhaustive_color(g, c, params, t)
    bits = [int(p) for p in parities]
    assert (fast is not None) == oracles.cover_colorable(
        g.n, list(g.edges), bits, params.i, params.j, t.poor, t.rich
    )
    sides = solver._Search(g).run(bits, solver._caps(params, t))
    assert (fast and [int(s) for s in fast.sides]) == sides


def test_search_does_not_recurse_per_vertex():
    # a 1200-vertex path under the all-even cover: every vertex is one level
    # of the branch-and-bound, far deeper than the stack left to it here
    n = 1200
    g = Multigraph(n, [(v, v + 1) for v in range(n - 1)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        phi = exhaustive_color(g, Cover((E,) * (n - 1)), DefectParams(0, 0), max_vertices=n)
    finally:
        sys.setrecursionlimit(limit)
    assert phi is not None and is_valid_coloring(g, Cover((E,) * (n - 1)), phi, DefectParams(0, 0))


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
        assert phi == PhiMap((Side.RICH,) * 4)

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


# the kernel fixture holds for a whole test, so it may span hypothesis examples
KERNEL_SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def sort_bundles(edges: list[tuple[int, int]], fixed: list, bits: list[int]) -> list[int]:
    """bits with E before O along each bundle: the free edges (past fixed's end,
    or fixed at None) with the same two ends."""
    bundles: dict[frozenset[int], list[int]] = {}
    for e, edge in enumerate(edges):
        if e >= len(fixed) or fixed[e] is None:
            bundles.setdefault(frozenset(edge), []).append(e)
    out = list(bits)
    for bundle in bundles.values():
        for e, bit in zip(bundle, sorted(bits[e] for e in bundle)):
            out[e] = bit
    return out


def assert_kernel_contract(
    g: Multigraph, params: DefectParams, t: Toughness, fixed: list
) -> None:
    # _kernel yields exactly the oracle's bad covers that extend fixed and sort
    # each free bundle, in lex order; sorting any bad cover's bundles gives one
    bad = [list(bits) for bits in solver._kernel(g, solver._caps(params, t), fixed=fixed)[0]]
    edges = list(g.edges)
    every = oracles.bad_covers(g.n, edges, params.i, params.j, list(t.poor), list(t.rich))
    extending = [bits for bits in every if all(f is None or f == b for f, b in zip(fixed, bits))]
    assert bad == [bits for bits in extending if sort_bundles(edges, fixed, bits) == bits]
    assert all(sort_bundles(edges, fixed, bits) in bad for bits in extending)


@KERNEL_SETTINGS
@given(multigraphs(max_n=7, max_edges=12), defect_params(), st.data())
def test_bad_covers_match_oracle(kernel, g, params, data):
    assert_kernel_contract(g, params, data.draw(toughness_for(g.n, params)), [])


@KERNEL_SETTINGS
@given(multigraphs(max_n=7, max_edges=10), defect_params(), st.data())
def test_fixed_parities_keep_the_bad_covers_they_allow(kernel, g, params, data):
    t = data.draw(toughness_for(g.n, params))
    fixed = data.draw(st.lists(st.sampled_from((None, 0, 1)), max_size=len(g.edges)))
    assert_kernel_contract(g, params, t, fixed)


def test_a_bundle_takes_e_before_o(kernel):
    # (0, 1) on a triple edge: the bad covers are the three with two Es, and
    # of those only EEO sorts the bundle; with edge 1 fixed at O, edges 0 and
    # 2 form the bundle, and only EOE sorts it
    bad = solver._kernel(TRIPLE, [(1, 0), (1, 0)])[0]
    assert list(bad) == [(0, 0, 1)]
    bad = solver._kernel(TRIPLE, [(1, 0), (1, 0)], fixed=[None, 1])[0]
    assert list(bad) == [(0, 1, 0)]


def test_every_cover_that_sorts_its_bundles_comes_in_lex_order(kernel):
    # with every cap negative, every cover is bad, so the kernel yields each
    # cover it generates: those that extend fixed and sort each bundle, here
    # three interleaved bundles of which one holds a fixed edge
    g = Multigraph(4, [(0, 1), (1, 2), (1, 0), (2, 3), (2, 1), (0, 1), (3, 2), (1, 2)])
    for fixed in ([], [None, 1], [None, None, None, 0, None, 1]):
        bad = list(solver._kernel(g, [(-1, -1)] * 4, fixed=fixed)[0])
        free = [e >= len(fixed) or fixed[e] is None for e in range(len(g.edges))]
        every = [
            list(bits)
            for bits in product((0, 1), repeat=len(g.edges))
            if all(f or bit == fixed[e] for e, (f, bit) in enumerate(zip(free, bits)))
        ]
        assert [list(bits) for bits in bad] == [
            bits for bits in every if sort_bundles(list(g.edges), fixed, bits) == bits
        ]


@KERNEL_SETTINGS
@given(multigraphs(max_n=6, max_edges=9), defect_params(), st.data())
def test_deletion_check_matches_oracle(kernel, g, params, data):
    t = data.draw(toughness_for(g.n, params))
    edges = list(g.edges)
    bad_covers, deletions_colorable = solver._kernel(g, solver._caps(params, t))
    for bits in bad_covers:
        expect = all(
            oracles.cover_colorable(
                g.n,
                edges[:e] + edges[e + 1 :],
                list(bits[:e] + bits[e + 1 :]),
                params.i,
                params.j,
                list(t.poor),
                list(t.rich),
            )
            for e in range(len(edges))
        )
        assert deletions_colorable(bits) == expect


@KERNEL_SETTINGS
@given(multigraphs(max_n=5, max_edges=7), defect_params(), st.data())
def test_base_relaxation_check_matches_oracle(kernel, g, params, data):
    # bases as the flag fold leaves them: one isolated in the core (each of its
    # edges was a flag's), any others anywhere; toughness reaches i + 1 and
    # j + 1, and one vertex may be drawn to both, leaving it neither side
    g = Multigraph(g.n + 1, g.edges)
    t = data.draw(toughness_for(g.n, params))
    poor, rich = list(t.poor), list(t.rich)
    for v in data.draw(st.lists(st.integers(0, g.n - 1), max_size=1)):
        poor[v], rich[v] = params.i + 1, params.j + 1
    bases = sorted({g.n - 1, *data.draw(st.lists(st.integers(0, g.n - 1)))})
    edges = list(g.edges)
    caps = solver._caps(params, Toughness.pairs(zip(poor, rich)))
    bad_covers, deletions_colorable = solver._kernel(g, caps, bases)
    for bits in bad_covers:
        deletions = all(
            oracles.cover_colorable(
                g.n,
                edges[:e] + edges[e + 1 :],
                list(bits[:e] + bits[e + 1 :]),
                params.i,
                params.j,
                poor,
                rich,
            )
            for e in range(len(edges))
        )
        relaxations = all(
            oracles.cover_colorable(
                g.n,
                edges,
                list(bits),
                params.i,
                params.j,
                [tp - (v == b) for v, tp in enumerate(poor)],
                [tr - (v == b) for v, tr in enumerate(rich)],
            )
            for b in bases
        )
        assert deletions_colorable(bits) == (deletions and relaxations)


def test_deletion_check_matches_oracle_on_every_small_multiset(kernel):
    # random draws rarely reach a bad cover whose deletions all color; this
    # sweep holds about 1,200 of them among about 6,700 bad covers, and with
    # each vertex in turn as the one base, about 4,500 on which the base's
    # relaxation decides the answer
    def expect(n, edges, bits, i, j, bases):
        deletions = all(
            oracles.cover_colorable(
                n, list(edges[:e] + edges[e + 1 :]), list(bits[:e] + bits[e + 1 :]), i, j
            )
            for e in range(len(edges))
        )
        # toughness -1 at a base raises both of its caps by one
        lowered = ([-(v == b) for v in range(n)] for b in bases)
        return deletions and all(
            oracles.cover_colorable(n, list(edges), list(bits), i, j, t, t) for t in lowered
        )

    for n in (2, 3, 4):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for m in range(1, 6):
            for edges in combinations_with_replacement(pairs, m):
                for i, j in ((0, 1), (0, 2), (1, 1), (1, 2)):
                    g = Multigraph(n, edges)
                    caps = solver._caps(DefectParams(i, j), Toughness.zero(n))
                    for bases in [(), *((b,) for b in range(n))]:
                        bad_covers, deletions_colorable = solver._kernel(g, caps, bases)
                        for bits in bad_covers:
                            assert deletions_colorable(bits) == expect(n, edges, bits, i, j, bases)


@pytest.mark.parametrize("ij", [(0, 0), (0, 1), (1, 1)])
def test_isolated_vertices_stay_out_of_the_recursion(ij):
    # 1094 isolated vertices on a 6-vertex path: deeper than the interpreter's
    # recursion limit if each were a level of a recursive search
    path = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    params = DefectParams(*ij)
    assert is_colorable(Multigraph(1100, path), params) == is_colorable(Multigraph(6, path), params)
    # is_colorable drops them; exhaustive_color searches them, each rich after the path
    c = Cover((E,) * 5)
    phi = exhaustive_color(Multigraph(1100, path), c, params, max_vertices=1100)
    assert phi.sides == exhaustive_color(Multigraph(6, path), c, params).sides + (Side.RICH,) * 1094


@st.composite
def graphs_with_isolated_vertices(draw):
    """A multigraph on up to four vertices plus one to three isolated ones, relabeled at random."""
    g = draw(multigraphs(max_n=4, max_edges=6))
    n = g.n + draw(st.integers(1, 3))
    label = draw(st.permutations(range(n)))
    return Multigraph(n, tuple((label[u], label[v]) for u, v in g.edges))


@settings(KERNEL_SETTINGS, max_examples=300)
@given(graphs_with_isolated_vertices(), defect_params(), st.data())
def test_isolated_vertices_change_no_verdict_or_witness(kernel, g, params, data):
    # toughness j + 1 (scalar, above i) or (i + 1, j + 1) leaves a vertex with no side
    t = data.draw(toughness_for(g.n, params))
    args = (g.n, list(g.edges), params.i, params.j, list(t.poor), list(t.rich))
    first = oracles.first_bad_cover(*args)
    ok, witness = is_colorable(g, params, t)
    assert ok == oracles.colorable(*args) == (first is None)
    assert (witness and [int(p) for p in witness.parities]) == first


def test_isolated_vertices_leave_before_the_scan(monkeypatch):
    # a 14-vertex graph plus one isolated vertex: every scan sees the 14,
    # which keeps it on the cover tree
    r = random.Random(5)
    edges = [(v, (v + 1) % 14) for v in range(14)]
    while len(edges) < 20:
        edges.append(tuple(r.sample(range(14), 2)))
    scanned = []
    kernel = solver._kernel

    def counted(g, *args, **kwargs):
        scanned.append(g.n)
        return kernel(g, *args, **kwargs)

    monkeypatch.setattr(solver, "_kernel", counted)
    assert is_colorable(Multigraph(15, edges), DefectParams(1, 2)) == (True, None)
    assert scanned and set(scanned) == {14}


def test_isolated_vertex_without_a_side_rules_out_every_map():
    g = Multigraph(3, [(0, 1)])
    t = Toughness.pairs([(0, 0), (0, 0), (1, 2)])
    assert exhaustive_color(g, Cover((O,)), DefectParams(0, 1), t) is None
    assert is_colorable(g, DefectParams(0, 1), t) == (False, Cover((E,)))


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


@pytest.mark.parametrize(
    "call",
    [
        lambda: greedy_color(Multigraph(2, [(0, 1)]), Cover((Parity.EVEN,)), -1),
        lambda: partition_witness(Multigraph(2, [(0, 1)]), -1, [0]),
    ],
    ids=["greedy_color", "partition_witness"],
)
def test_negative_defect_bound_is_named(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "defect bound i must be non-negative"
