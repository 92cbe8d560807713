from __future__ import annotations

from fractions import Fraction

import pytest

from dpcolor import (
    CountMismatch,
    Multigraph,
    Parity,
    attach_flag,
    attach_weak_flag,
    build_equal,
    build_family,
    build_iplusone,
    build_large,
    build_mid,
    build_zeroj,
    edge_bound,
    exhaustive_color,
)
from dpcolor.constructions import _finish


class TestAttachFlag:
    def test_on_isolated_vertex(self):
        g, u = attach_flag(Multigraph(1, ()), 0)
        assert g.n == 2 and len(g.edges) == 2 and u == 1
        assert g.degree(u) == 2

    def test_base_degree_grows_by_two_per_flag(self):
        g = Multigraph(1, ())
        for k in range(1, 4):
            g, _ = attach_flag(g, 0)
            assert g.degree(0) == 2 * k

    def test_bad_base(self):
        with pytest.raises(ValueError):
            attach_flag(Multigraph(1, ()), 1)


class TestAttachWeakFlag:
    def test_weight_one_counts(self):
        g = attach_weak_flag(Multigraph(1, ()), 0, 1)
        assert g.n == 4 and len(g.edges) == 4

    def test_general_weight_counts(self):
        for w in range(1, 5):
            g = attach_weak_flag(Multigraph(1, ()), 0, w)
            assert g.n == 1 + w + 2
            assert len(g.edges) == 2 * w + 2

    def test_base_degree_grows_by_one(self):
        g = attach_weak_flag(Multigraph(1, ()), 0, 3)
        assert g.degree(0) == 1

    def test_weight_floor(self):
        with pytest.raises(ValueError):
            attach_weak_flag(Multigraph(1, ()), 0, 0)


COUNT_CASES = [
    (build_zeroj, (1, 2), 6, 7),
    (build_zeroj, (2, 1), 8, 10),
    (build_large, (1, 3, 0), 7, 11),
    (build_large, (1, 3, 1), 9, 14),
    (build_mid, (2, 4, 1), 11, 18),
    (build_mid, (3, 5, 1), 13, 22),
    (build_iplusone, (1, 0), 12, 17),
    (build_iplusone, (1, 1), 17, 24),
    (build_equal, (1, 1), 3, 4),
    (build_equal, (1, 2), 6, 8),
]


@pytest.mark.parametrize("builder,args,n,e", COUNT_CASES)
def test_closed_form_counts(builder, args, n, e):
    inst = builder(*args)
    assert (inst.graph.n, len(inst.graph.edges)) == (n, e)
    assert (inst.predicted_n, inst.predicted_e) == (n, e)


@pytest.mark.parametrize("builder,args,n,e", COUNT_CASES)
def test_generated_instances_sit_exactly_on_the_bound(builder, args, n, e):
    inst = builder(*args)
    assert Fraction(e) == edge_bound(inst.params, n)


@pytest.mark.parametrize("builder,args,n,e", COUNT_CASES)
def test_minimum_degree_at_least_two(builder, args, n, e):
    inst = builder(*args)
    assert min(inst.graph.degree(v) for v in range(n)) >= 2


def test_zeroj_is_simple_beyond_the_digon_case():
    for j in (1, 2, 3):
        for m in (2, 3, 4):
            g = build_zeroj(j, m).graph
            pairs = [tuple(sorted(e)) for e in g.edges]
            assert len(pairs) == len(set(pairs))


def test_small_bad_covers_are_refused():
    for inst in (build_zeroj(1, 1), build_equal(1, 1), build_equal(1, 2)):
        assert exhaustive_color(inst.graph, inst.bad_cover, inst.params) is None


def test_larger_bad_covers_are_refused_too():
    # the forcing chains prune these searches immediately despite n up to 20
    for inst in (
        build_iplusone(2, 0),
        build_mid(3, 5, 1),
        build_large(2, 5, 1),
        build_zeroj(3, 4),
        build_equal(2, 3),
    ):
        assert exhaustive_color(inst.graph, inst.bad_cover, inst.params) is None


def test_bad_cover_indexes_every_edge():
    for inst in (build_zeroj(2, 1), build_large(1, 4, 1), build_mid(2, 4, 2), build_iplusone(2, 0), build_equal(2, 3)):
        assert len(inst.bad_cover.parities) == len(inst.graph.edges)


class TestParameterRanges:
    def test_zeroj(self):
        with pytest.raises(ValueError):
            build_zeroj(0, 1)
        with pytest.raises(ValueError):
            build_zeroj(1, 0)

    def test_large(self):
        with pytest.raises(ValueError):
            build_large(0, 1, 0)
        with pytest.raises(ValueError):
            build_large(1, 2, 0)
        with pytest.raises(ValueError):
            build_large(1, 3, -1)

    def test_mid(self):
        with pytest.raises(ValueError):
            build_mid(1, 3, 1)
        with pytest.raises(ValueError):
            build_mid(2, 5, 1)
        with pytest.raises(ValueError):
            build_mid(2, 4, 0)

    def test_iplusone(self):
        with pytest.raises(ValueError):
            build_iplusone(0, 0)
        with pytest.raises(ValueError):
            build_iplusone(1, -1)

    def test_equal(self):
        with pytest.raises(ValueError):
            build_equal(0, 1)
        with pytest.raises(ValueError):
            build_equal(1, 0)


class TestDispatcher:
    def test_families_route(self):
        assert build_family("zeroj", None, 1, 2) == build_zeroj(1, 2)
        assert build_family("large", 1, 3, 0) == build_large(1, 3, 0)
        assert build_family("mid", 2, 4, 1) == build_mid(2, 4, 1)
        assert build_family("iplusone", 1, None, 0) == build_iplusone(1, 0)
        assert build_family("equal", 1, None, 2) == build_equal(1, 2)

    def test_implied_defects_enforced(self):
        with pytest.raises(ValueError):
            build_family("zeroj", 1, 1, 2)
        with pytest.raises(ValueError):
            build_family("iplusone", 1, 3, 0)
        with pytest.raises(ValueError):
            build_family("equal", 1, 2, 1)
        with pytest.raises(ValueError):
            build_family("unknown", 1, 1, 1)

    def test_missing_arguments(self):
        with pytest.raises(ValueError):
            build_family("zeroj", None, None, 2)
        with pytest.raises(ValueError):
            build_family("large", 1, 3, None)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: attach_flag(Multigraph(2, ()), -1), "vertex -1 out of range [0, 2)"),
        (lambda: attach_weak_flag(Multigraph(1, ()), 1, 1), "vertex 1 out of range [0, 1)"),
        (lambda: build_family("large", None, 3, 0), "large needs i and j"),
        (lambda: build_family("large", 1, None, 0), "large needs i and j"),
        (lambda: build_family("mid", None, 4, 1), "mid needs i and j"),
        (lambda: build_family("mid", 2, None, 1), "mid needs i and j"),
        (lambda: build_family("iplusone", None, None, 0), "iplusone needs i"),
        (lambda: build_family("equal", None, None, 1), "equal needs i"),
    ],
    ids=[
        "flag-base", "weak-flag-base", "large-i", "large-j", "mid-i", "mid-j", "iplusone-i", "equal-i"
    ],
)
def test_each_bad_argument_is_named(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_finish_refuses_counts_off_the_closed_forms():
    g = Multigraph(2, [(0, 1)])
    with pytest.raises(CountMismatch) as exc:
        _finish("zeroj", 0, 1, 1, g, [Parity.EVEN], 2, 2)
    assert str(exc.value) == (
        "zeroj(i=0, j=1, m=1) built n=2, e=1 but the closed forms predict n=2, e=2"
    )
    with pytest.raises(CountMismatch) as exc:
        _finish("zeroj", 0, 1, 1, g, [], 2, 1)
    assert str(exc.value) == "zeroj: cover indexes 0 of 1 edges"
