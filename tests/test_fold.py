"""Folding flags into caps and pendant blocks into gadgets: solver._fold,
solver._fold_blocks, the pipeline solver._core and the answers that go
through it.

solver._fold is the one statement of the flag rule, for the verdict, the
witness's prefix scans and exhaustive_color's single cover alike. The
tests pin its output, its min-cap condition and its prefix form against
the oracles. solver._pendant_blocks is checked against the definition of a
pendant block, and a block folds under a prefix only while the prefix
leaves it free. is_colorable, verdict and witness alike, and is_critical
decide G from its core H, G without its flags and with each pendant block
that folds replaced by one gadget edge, so each is checked against the
oracles on graphs that carry flags or pendant blocks, with toughness, on
both scan kernels.
"""

from __future__ import annotations

import random
from functools import cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    PENDANT_BLOCKS,
    defect_params,
    every_small_multigraph,
    flagged_multigraphs,
    hang,
    multigraphs,
    pendant_block_graphs,
    seeded_multigraphs,
    toughness_for,
)
from dpcolor import (
    DefectParams,
    Multigraph,
    Toughness,
    build_family,
    covertree,
    is_colorable,
    is_critical,
    solver,
)
from dpcolor.cover import _caps

CELLS = [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3), (2, 2), (2, 4)]
KERNEL_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@cache
def oracle_answers(
    n: int, edges: tuple, i: int, j: int, t_poor: tuple, t_rich: tuple
) -> tuple[list[int] | None, bool]:
    """The first bad cover and criticality, cached: the kernel fixture asks twice."""
    args = (n, list(edges), i, j, list(t_poor), list(t_rich))
    if oracles.colorable(*args):
        return None, False
    return oracles.first_bad_cover(*args), oracles.critical(*args)


def assert_matches_oracles(g: Multigraph, params: DefectParams, t: Toughness) -> None:
    first_bad, critical = oracle_answers(g.n, g.edges, params.i, params.j, t.poor, t.rich)
    ok, witness = is_colorable(g, params, t)
    assert ok == (first_bad is None)
    assert (witness and [int(p) for p in witness.parities]) == first_bad
    assert is_critical(g, params, t) == critical


class TestFold:
    def test_flags_leave_and_lower_their_base(self):
        # two flags at vertex 1 of an edge 01
        g = Multigraph(4, [(0, 1), (1, 2), (2, 1), (3, 1), (1, 3)])
        h, caps, bases, _ = solver._fold(g, _caps(DefectParams(1, 2), Toughness.zero(4)))
        assert h == Multigraph(2, [(0, 1)])
        assert caps == [(2, 1), (0, -1)]
        assert bases == [1]

    def test_a_prefix_lowers_a_base_only_for_flags_it_leaves_mixed(self):
        # the same graph under the prefix O, E, E, E: flag 2's edges agree,
        # flag 3 has one edge undecided, and H keeps the edge 01's parity
        g = Multigraph(4, [(0, 1), (1, 2), (2, 1), (3, 1), (1, 3)])
        caps = _caps(DefectParams(1, 2), Toughness.zero(4))
        _, h_caps, bases, h_fixed = solver._fold(g, caps, [1, 0, 0, 0])
        assert (h_caps, bases, h_fixed) == ([(2, 1), (1, 0)], [1], [1])

    def test_a_bare_digon_folds_one_end(self):
        g = Multigraph(2, [(0, 1)] * 2)
        h, caps, bases, _ = solver._fold(g, _caps(DefectParams(1, 1), Toughness.zero(2)))
        assert h == Multigraph(1, ())
        assert caps == [(0, 0)] and bases == [0]

    @pytest.mark.parametrize(
        "t",
        [
            Toughness.pairs([(2, 0), (0, 0), (0, 0)]),  # poor cap -1 at vertex 0
            Toughness.pairs([(0, 3), (0, 0), (0, 0)]),  # rich cap -1
            Toughness.pairs([(1, 2), (0, 0), (0, 0)]),  # both caps 0
        ],
    )
    def test_a_flag_needs_both_caps_and_one_above_zero(self, t):
        g = Multigraph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (1, 2)])
        h, _, bases, _ = solver._fold(g, _caps(DefectParams(1, 2), t))
        assert (h, bases) == (g, [])

    def test_g_comes_back_when_nothing_folds(self):
        g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
        caps = _caps(DefectParams(1, 2), Toughness.zero(3))
        h, h_caps, bases, h_fixed = solver._fold(g, caps, [1, None, 0, 1])
        assert h is g
        assert (h_caps, bases, h_fixed) == (list(caps), [], [1, None, 0])

    def test_folding_shrinks_the_families(self):
        inst = build_family("iplusone", 1, None, 1)
        h, _, _, _ = solver._fold(inst.graph, _caps(inst.params, Toughness.zero(inst.graph.n)))
        assert (inst.graph.n, len(inst.graph.edges)) == (17, 24)
        assert (h.n, len(h.edges)) == (9, 8)


@pytest.mark.parametrize(
    "g, params, t",
    [
        # uncolorable: the flag end's poor cap is -1, so an equal-parity
        # cover can put two conflicts on the base; folded, it answers colorable
        (Multigraph(2, [(0, 1)] * 2), DefectParams(0, 2), Toughness.scalar([1, 1])),
        # critical: vertex 1's poor cap is -1; folded, it answers colorable
        (
            Multigraph(3, [(0, 2), (0, 1), (0, 1), (0, 2)]),
            DefectParams(0, 2),
            Toughness.scalar([0, 1, 0]),
        ),
        # two flags at a base whose caps stay negative with one of them dropped
        (
            Multigraph(3, [(0, 1), (0, 1), (0, 2), (0, 2)]),
            DefectParams(0, 1),
            Toughness.pairs([(0, 2), (0, 0), (0, 0)]),
        ),
    ],
)
def test_negative_caps_match_oracles(kernel, g, params, t):
    assert_matches_oracles(g, params, t)


@KERNEL_SETTINGS
@given(flagged_multigraphs(), defect_params(include_zero_zero=False), st.data())
def test_flagged_graphs_match_oracles(kernel, g, params, data):
    t = data.draw(st.one_of(st.just(Toughness.zero(g.n)), toughness_for(g.n, params)))
    assert_matches_oracles(g, params, t)


@settings(KERNEL_SETTINGS, max_examples=150)
@given(flagged_multigraphs(), defect_params(include_zero_zero=False), st.data())
def test_a_prefix_folds_into_the_flags_it_decides(kernel, g, params, data):
    # g has a bad cover extending a partial cover exactly when its core does
    # under _fold's caps for that partial cover
    t = data.draw(st.one_of(st.just(Toughness.zero(g.n)), toughness_for(g.n, params)))
    fixed = data.draw(st.lists(st.sampled_from((None, 0, 1)), max_size=len(g.edges)))
    h, caps, _, h_fixed = solver._fold(g, _caps(params, t), fixed)
    every = oracles.bad_covers(g.n, list(g.edges), params.i, params.j, list(t.poor), list(t.rich))
    expect = any(all(f is None or f == b for f, b in zip(fixed, bits)) for bits in every)
    assert (next(solver._kernel(h, caps, fixed=h_fixed)[0], None) is not None) == expect


EQUAL_CELLS = [DefectParams(0, 0), DefectParams(1, 1), DefectParams(2, 2)]


@settings(KERNEL_SETTINGS, max_examples=200)
@given(
    st.one_of(flagged_multigraphs(), multigraphs(max_n=5, max_edges=8)),
    st.one_of(st.sampled_from(EQUAL_CELLS), defect_params()),
    st.data(),
)
def test_switching_keeps_every_answer(kernel, g, params, data):
    # _core fixes to E a spanning forest of the vertices with equal caps, on
    # top of the prefix: at i = j scalar toughness keeps every vertex among
    # them and flags keep their bases, while pair toughness takes some out
    t = data.draw(st.one_of(st.just(Toughness.zero(g.n)), toughness_for(g.n, params)))
    fixed = data.draw(st.lists(st.sampled_from((None, 0, 1)), max_size=len(g.edges)))
    h, caps, bases, h_fixed = solver._core(g, _caps(params, t), fixed)
    every = oracles.bad_covers(g.n, list(g.edges), params.i, params.j, list(t.poor), list(t.rich))
    expect = any(all(f is None or f == b for f, b in zip(fixed, bits)) for bits in every)
    assert (next(solver._kernel(h, caps, bases, fixed=h_fixed)[0], None) is not None) == expect
    assert_matches_oracles(g, params, t)


def test_switching_fixes_all_but_one_edge_of_a_cycle_with_flags(monkeypatch):
    # equal i = 1, m = 8: a 16-cycle core with equal caps everywhere, so the
    # forest fixes 15 of its edges and the scan decides 2 covers, of 2^32
    runs = []
    run = solver._Search.run

    def counted(self, bits, caps):
        runs.append((bits, caps))
        return run(self, bits, caps)

    inst = build_family("equal", 1, None, 8)
    _, core_caps, _, core_fixed = solver._core(
        inst.graph, _caps(inst.params, Toughness.zero(inst.graph.n))
    )
    assert core_fixed.count(None) == 1
    monkeypatch.setattr(solver._Search, "run", counted)
    assert is_critical(inst.graph, inst.params, max_covers=2**32)
    assert len([bits for bits, caps in runs if 2 not in bits and caps == core_caps]) == 2


def chorded_cycle(seed: int, n: int, e: int) -> Multigraph:
    """An n-cycle plus e - n distinct chords drawn by random.Random(seed)."""
    rng = random.Random(seed)
    chords = [(u, w) for u in range(n) for w in range(u + 2, n) if (u, w) != (0, n - 1)]
    return Multigraph(n, [(v, (v + 1) % n) for v in range(n)] + rng.sample(chords, e - n))


def test_switching_cuts_the_tree_to_one_cover_per_class(monkeypatch):
    # a flagless (1, 1) graph with n = 14 and e = 18: 2^(e - n + 1) classes,
    # where the tree without switching walked all 2^18 - 1 nodes above the
    # last edge (its slack prune ends every path there, so it counts no leaf)
    n, e = 14, 18
    nodes, leaves = [], []
    walk = covertree._CoverTree.walk

    def counted(self, k, valid):
        nodes.append(k)
        if k == len(self.edges):
            leaves.append(k)
        return walk(self, k, valid)

    monkeypatch.setattr(covertree._CoverTree, "walk", counted)
    assert is_colorable(chorded_cycle(1, n, e), DefectParams(1, 1)) == (True, None)
    assert len(leaves) <= 2 ** (e - n + 1)
    assert len(nodes) <= (e + 1) * 2 ** (e - n + 1)


def test_degree_first_order_cuts_the_tree(monkeypatch):
    # colorable (1, 2) graphs of 14 vertices and 17 edges: the degree-first
    # edge order walks 575, 2,077 and 2,109 nodes, where the input order
    # walked 10,239, 32,767 and 24,575
    nodes = []
    walk = covertree._CoverTree.walk

    def counted(self, k, valid):
        nodes.append(k)
        return walk(self, k, valid)

    monkeypatch.setattr(covertree._CoverTree, "walk", counted)
    for seed in (1, 2, 3):
        assert is_colorable(chorded_cycle(seed, 14, 17), DefectParams(1, 2)) == (True, None)
    assert len(nodes) < 10_000


def test_degree_first_hands_back_g_in_degree_first_order():
    # every degree is 2, so the ranks are the ids and the keys (1, 0), (2, 0), (2, 1) ascend
    g = Multigraph(3, [(0, 1), (0, 2), (1, 2)])
    h, position = solver._degree_first(g)
    assert h is g and position == [0, 1, 2]


def test_degree_first_reorders_an_involution():
    # vertex 1 ranks first, so edge 01 comes first; the order [1, 0] is its own inverse
    g = Multigraph(3, [(1, 2), (0, 1)])
    assert solver._degree_first(g) == (Multigraph(3, [(0, 1), (1, 2)]), [1, 0])


@pytest.mark.parametrize("n", range(7))
def test_the_poor_masks_hold_the_maps_with_bit_v(n):
    masks = covertree._poor_masks(n)
    assert type(masks) is tuple and len(masks) == n
    for v, mask in enumerate(masks):
        assert [mask >> x & 1 for x in range(1 << n)] == [x >> v & 1 for x in range(1 << n)]
        assert mask >> (1 << n) == 0


def test_the_witness_takes_no_scan_at_a_flags_first_edge(monkeypatch):
    # iplusone i = 1, m = 1: one verdict scan, then one per core edge (8)
    # and per flag's second edge (8); a flag's first edge changes nothing
    scans = []
    kernel = solver._kernel

    def counted(*args, **kwargs):
        scans.append(args)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(solver, "_kernel", counted)
    inst = build_family("iplusone", 1, None, 1)
    ok, witness = is_colorable(inst.graph, inst.params)
    assert (ok, witness.letters()) == (False, "OEEEEOEOEEEOEOEEEOEOEOEO")
    assert len(scans) == 17


def test_small_cores_with_a_flag_match_oracles(kernel):
    # about 110 of these 3,675 graphs are critical
    for core in every_small_multigraph():
        g = Multigraph(core.n + 1, core.edges + ((0, core.n), (core.n, 0)))
        for i, j in CELLS:
            assert_matches_oracles(g, DefectParams(i, j), Toughness.zero(g.n))


@pytest.fixture()
def fold_small(monkeypatch):
    """Fold pendant blocks in graphs of any size, so small ones reach the probes."""
    monkeypatch.setattr(solver, "_BLOCK_MIN_EDGES", 0)


@pytest.mark.usefixtures("fold_small")
class TestFoldBlocks:
    def test_pendant_sides_of_a_path(self):
        # each bridge of a 4-vertex path gives a side of 2 or 3 vertices
        blocks = solver._pendant_blocks(Multigraph(4, [(0, 1), (1, 2), (2, 3)]))
        assert sorted(blocks) == [
            (2, (0, 1), 1, 2),
            (2, (2, 3), 2, 1),
            (3, (0, 1, 2), 2, 3),
            (3, (1, 2, 3), 1, 0),
        ]

    def test_parallel_edges_are_never_bridges(self):
        g = Multigraph(4, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 3), (2, 3)])
        assert solver._pendant_blocks(g) == []

    def test_pendant_blocks_match_their_definition(self):
        # per edge e and end u: u's component in g - e, if it has 2 to 4
        # vertices and not e's other end; parallel edges and disconnected
        # graphs included
        def component(g, u):
            side, grew = {u}, True
            while grew:
                grew = False
                for a, b in g.edges:
                    if (a in side) != (b in side):
                        side |= {a, b}
                        grew = True
            return side

        for g in [*every_small_multigraph(), *seeded_multigraphs(17, 1000, 2, 14)]:
            expect = []
            for e, edge in enumerate(g.edges):
                for u, v in (edge, edge[::-1]):
                    side = component(g.delete_edge(e), u)
                    if v not in side and 2 <= len(side) <= solver._BLOCK_MAX_VERTICES:
                        expect.append((len(side), tuple(sorted(side)), u, v))
            assert sorted(solver._pendant_blocks(g)) == sorted(expect)

    @pytest.mark.parametrize("j, gadget", [(1, (0, -1)), (2, (1, -1)), (3, (1, -1)), (4, (1, -1))])
    def test_the_zeroj_triangle_probes(self, j, gadget):
        # v = 0, the bridge end u = 1, the triangle's other two vertices 2 and
        # 3, each with caps (j, 0); at j = 1 the cover can forbid one side of v,
        # from j = 2 it can only charge it one conflict
        p = Multigraph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        assert solver._gadget(p, ((j, 0),) * 3, ()) == gadget

    def test_a_block_with_a_redundant_edge_does_not_fold(self):
        # the triangle's far edge doubled: deleting one copy keeps v charged
        p = Multigraph(4, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 3)])
        assert [solver._gadget(p, ((j, 0),) * 3, ()) for j in (1, 2, 3)] == [None] * 3

    @pytest.mark.parametrize("j, m", [(2, 2), (3, 2), (2, 4), (3, 5), (4, 4), (2, 8)])
    def test_zeroj_folds_to_its_cycle_and_one_gadget_per_triangle(self, j, m):
        inst = build_family("zeroj", None, j, m)
        h, caps, bases, _ = solver._fold_blocks(
            *solver._fold(inst.graph, _caps(inst.params, Toughness.zero(inst.graph.n)))
        )
        cycle = [(v, v + 1) for v in range(m)] + [(m, 0)]
        assert h == Multigraph(m + 1 + j, cycle + [(m + 1 + k, 0) for k in range(j)])
        assert caps == [(j, 0)] * (m + 1) + [(1, -1)] * j and bases == []

    def test_blocks_cascade(self):
        # zeroj j = 1: the triangle forbids one side of v0, and then the
        # 4-cycle itself hangs from that gadget and folds in turn
        inst = build_family("zeroj", None, 1, 3)
        h, caps, _, _ = solver._fold_blocks(
            *solver._fold(inst.graph, _caps(inst.params, Toughness.zero(inst.graph.n)))
        )
        assert (h, caps) == (Multigraph(2, [(1, 0)]), [(0, -1), (0, -1)])


def test_small_graphs_skip_the_probes():
    # zeroj j = 1, m = 2 has 7 edges, below _BLOCK_MIN_EDGES: nothing folds
    inst = build_family("zeroj", None, 1, 2)
    folded = solver._fold(inst.graph, _caps(inst.params, Toughness.zero(inst.graph.n)))
    assert solver._fold_blocks(*folded) == folded


BLOCK_CELLS = [(0, 1), (0, 2), (1, 2), (1, 3)]


@pytest.mark.usefixtures("fold_small")
def test_small_cores_with_a_pendant_block_match_oracles(kernel):
    # every core up to 3 vertices and 3 edges with each block hung at vertex
    # 0: 190 of the 600 graphs fold a block and 20 are critical
    for core in every_small_multigraph(max_n=3, max_edges=3):
        for block in PENDANT_BLOCKS.values():
            g = hang(core, 0, block)
            for i, j in BLOCK_CELLS:
                assert_matches_oracles(g, DefectParams(i, j), Toughness.zero(g.n))


@pytest.mark.usefixtures("fold_small")
@settings(KERNEL_SETTINGS, max_examples=150)
@given(pendant_block_graphs(), defect_params(include_zero_zero=False), st.data())
def test_pendant_block_graphs_match_oracles(kernel, g, params, data):
    t = data.draw(st.one_of(st.just(Toughness.zero(g.n)), toughness_for(g.n, params)))
    assert_matches_oracles(g, params, t)


@pytest.mark.usefixtures("fold_small")
@settings(KERNEL_SETTINGS, max_examples=150)
@given(pendant_block_graphs(), st.sampled_from(BLOCK_CELLS), st.data())
def test_a_prefix_folds_only_the_blocks_it_leaves_free(kernel, g, cell, data):
    # g has a bad cover extending a partial cover exactly when its core
    # under that partial cover has one extending the core's part of it; asked
    # of each prefix of one partial cover, as the witness asks, in the cells
    # where blocks fold
    params = DefectParams(*cell)
    t = data.draw(st.one_of(st.just(Toughness.zero(g.n)), toughness_for(g.n, params)))
    fixed = data.draw(st.lists(st.sampled_from((None, 0, 1)), max_size=len(g.edges)))
    every = oracles.bad_covers(g.n, list(g.edges), params.i, params.j, list(t.poor), list(t.rich))
    for k in range(len(fixed) + 1):
        h, caps, _, h_fixed = solver._core(g, _caps(params, t), fixed[:k])
        expect = any(all(f is None or f == b for f, b in zip(fixed[:k], bits)) for bits in every)
        assert (next(solver._kernel(h, caps, fixed=h_fixed)[0], None) is not None) == expect


def test_the_witness_scans_the_folded_blocks(monkeypatch):
    # zeroj j = 4, m = 4 has 17 vertices and no flag; its witness comes from
    # the cores with the triangles the prefix leaves free folded, not from a
    # cover-by-cover scan of G (about a million _Search runs)
    runs = []
    run = solver._Search.run

    def counted(self, bits, caps):
        runs.append(bits)
        return run(self, bits, caps)

    monkeypatch.setattr(solver._Search, "run", counted)
    inst = build_family("zeroj", None, 4, 4)
    ok, witness = is_colorable(inst.graph, inst.params)
    assert (ok, witness.letters()) == (False, "EOOOOEOOEEOOEEOOEEOOE")
    assert len(runs) < 1000


def test_the_witness_probes_each_block_once():
    # the probe memo serves every _core call, so the four triangles of
    # zeroj j = 4, m = 4, all alike, take one _gadget probe, not one per
    # witness step (28)
    solver._gadget.cache_clear()
    inst = build_family("zeroj", None, 4, 4)
    ok, witness = is_colorable(inst.graph, inst.params)
    assert (ok, witness.letters()) == (False, "EOOOOEOOEEOOEEOOEEOOE")
    assert solver._gadget.cache_info().misses == 1


def test_is_critical_shares_its_probes_across_calls():
    # the second call finds every probe of zeroj j = 3, m = 2 in the memo
    solver._gadget.cache_clear()
    inst = build_family("zeroj", None, 3, 2)
    assert is_critical(inst.graph, inst.params)
    misses = solver._gadget.cache_info().misses
    assert misses >= 1
    assert is_critical(inst.graph, inst.params)
    assert solver._gadget.cache_info().misses == misses
