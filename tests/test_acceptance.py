"""End-to-end acceptance: exact identities, refusals, criticality, mining,
thresholds, randomized property suites, and CLI determinism.

Run with ``pytest -s tests/test_acceptance.py`` to see one line per criterion.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import bounded_degree_graphs, multigraphs
from dpcolor import (
    DefectParams,
    Multigraph,
    Toughness,
    build_equal,
    build_iplusone,
    build_large,
    build_mid,
    build_zeroj,
    edge_bound,
    exhaustive_color,
    fdp_search,
    greedy_color,
    is_colorable,
    is_critical,
    is_valid_coloring,
    partition_witness,
    rho_graph,
    sparsity_guarantee,
)
from dpcolor.cli import main as cli_main

TRIPLE = Multigraph(2, [(0, 1)] * 3)

SUITE = settings(
    max_examples=1000,
    derandomize=True,
    deadline=None,
    suppress_health_check=list(HealthCheck),
)


def _criterion(name: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"CRITERION {name}: FAIL")
        raise
    print(f"CRITERION {name}: PASS")


# --- criterion 1: construction count identities and sharpness ---------------

def _counts_zeroj(j, m):
    n = 3 * j + m + 1
    return n, n + j


def _counts_large(i, j, m):
    return (i + 1) * (m + 1) + 2 + j, (2 * i + 1) * (m + 1) + 2 + 2 * j


def _counts_mid(i, j, m):
    return (j + 1) * m + 2 + j, 2 * j * m + 2 * j + 2


def _counts_iplusone(i, m):
    return (m + 1) * i * i + (3 * m + 4) * i + i + m + 6, 2 * (m + 1) * i * i + 4 * (m + 2) * i + m + 7


def _counts_equal(i, m):
    return (i + 2) * m, 2 * m + 2 * i * m


def test_criterion_1_count_identities():
    def body():
        grid = []
        for j in (1, 2, 3):
            for m in (1, 2, 3, 4):
                grid.append((build_zeroj(j, m), _counts_zeroj(j, m)))
        for i, j in ((1, 3), (1, 4), (2, 5)):
            for m in (0, 1, 2):
                grid.append((build_large(i, j, m), _counts_large(i, j, m)))
        for i, j in ((2, 4), (3, 5)):
            for m in (1, 2):
                grid.append((build_mid(i, j, m), _counts_mid(i, j, m)))
        for i in (1, 2):
            for m in (0, 1):
                grid.append((build_iplusone(i, m), _counts_iplusone(i, m)))
        for i in (1, 2):
            for m in (1, 2, 3):
                grid.append((build_equal(i, m), _counts_equal(i, m)))
        for inst, (n, e) in grid:
            built = (inst.graph.n, len(inst.graph.edges))
            assert built == (n, e), (
                f"{inst.family}(i={inst.i}, j={inst.j}, m={inst.m}): built {built}, "
                f"closed forms say {(n, e)}"
            )
            bound = edge_bound(inst.params, n)
            assert Fraction(e) == bound, (
                f"{inst.family}(i={inst.i}, j={inst.j}, m={inst.m}): e={e} "
                f"but the bound is {bound}; sharpness fails"
            )

    _criterion("1 count identities", body)


# --- criterion 2: bad-cover non-colorability ---------------------------------

def test_criterion_2_bad_covers_refused():
    def body():
        cases = [
            build_zeroj(1, 2),
            build_zeroj(2, 1),
            build_large(1, 3, 0),
            build_equal(1, 1),
            build_equal(1, 2),
            build_iplusone(1, 0),
            build_mid(2, 4, 1),
        ]
        for inst in cases:
            phi = exhaustive_color(inst.graph, inst.bad_cover, inst.params)
            assert phi is None, f"{inst.family}(i={inst.i}, j={inst.j}, m={inst.m})"

    _criterion("2 bad covers refused", body)


# --- criterion 3: full criticality -------------------------------------------

CRITICAL_CASES = [
    ("triple edge", TRIPLE, DefectParams(0, 1)),
    ("zeroj(1,1)", build_zeroj(1, 1).graph, DefectParams(0, 1)),
    ("zeroj(1,2)", build_zeroj(1, 2).graph, DefectParams(0, 1)),
    ("equal(1,1)", build_equal(1, 1).graph, DefectParams(1, 1)),
    ("equal(1,2)", build_equal(1, 2).graph, DefectParams(1, 1)),
    ("large(1,3,0)", build_large(1, 3, 0).graph, DefectParams(1, 3)),
]


def test_criterion_3_criticality():
    def body():
        for name, g, params in CRITICAL_CASES:
            assert is_critical(g, params), name

    _criterion("3 criticality", body)


# --- criterion 4: f_DP mining -------------------------------------------------

def test_criterion_4_fdp_mining():
    def body():
        found = fdp_search(DefectParams(0, 1), 2)
        assert found is not None
        e, witness = found
        assert e == 3 and witness == TRIPLE
        assert edge_bound(DefectParams(0, 1), 2) == 3  # met with equality
        assert fdp_search(DefectParams(0, 1), 2, max_edges=2) is None

    _criterion("4 fdp mining", body)


# --- criterion 5: potential thresholds ----------------------------------------

def test_criterion_5_potential_thresholds():
    def body():
        z = build_zeroj(1, 2)
        val, _ = rho_graph(z.graph, z.params, Toughness.zero(z.graph.n))
        assert val == -1 and val <= -z.params.j

        l = build_large(1, 3, 0)
        val, _ = rho_graph(l.graph, l.params, Toughness.zero(l.graph.n))
        assert val <= 2 * l.params.i - l.params.j == -1

        m = build_mid(2, 4, 1)
        val, _ = rho_graph(m.graph, m.params, Toughness.zero(m.graph.n))
        assert val <= -2

        ip = build_iplusone(1, 0)
        val, _ = rho_graph(ip.graph, ip.params, Toughness.zero_pairs(ip.graph.n))
        assert val <= -1

    _criterion("5 potential thresholds", body)


# --- criterion 6: randomized property suites ----------------------------------

def test_criterion_6a_monotonicity():
    @SUITE
    @given(
        multigraphs(max_n=5, max_edges=5),
        st.sampled_from([(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)]),
    )
    def prop(g, ij):
        params = DefectParams(*ij)
        ok, _ = is_colorable(g, params)
        if not ok:
            return
        for e in range(len(g.edges)):
            assert is_colorable(g.delete_edge(e), params)[0]

    _criterion("6a monotonicity", prop)


def test_criterion_6b_greedy_completeness():
    @SUITE
    @given(st.integers(0, 2), st.data())
    def prop(i, data):
        g = data.draw(bounded_degree_graphs(degree_cap=2 * i + 1, max_n=7, max_edges=9))
        from dpcolor import Cover, Parity

        parities = data.draw(
            st.lists(
                st.sampled_from((Parity.EVEN, Parity.ODD)),
                min_size=len(g.edges),
                max_size=len(g.edges),
            )
        )
        cover = Cover(tuple(parities))
        phi = greedy_color(g, cover, i)
        assert phi is not None, "greedy must succeed when every degree <= 2i+1"
        assert is_valid_coloring(g, cover, phi, DefectParams(i, i))

    _criterion("6b greedy completeness", prop)


def test_criterion_6c_oracle_equivalence():
    @SUITE
    @given(multigraphs(max_n=8, max_edges=8), st.data())
    def prop(g, data):
        from dpcolor import Cover, Parity

        parities = data.draw(
            st.lists(
                st.sampled_from((Parity.EVEN, Parity.ODD)),
                min_size=len(g.edges),
                max_size=len(g.edges),
            )
        )
        i, j = data.draw(st.sampled_from([(0, 0), (0, 1), (1, 1), (1, 2), (1, 3)]))
        cover = Cover(tuple(parities))
        fast = exhaustive_color(g, cover, DefectParams(i, j))
        slow = oracles.cover_colorable(
            g.n, list(g.edges), [int(p) for p in parities], i, j
        )
        assert (fast is not None) == slow
        if fast is not None:
            assert is_valid_coloring(g, cover, fast, DefectParams(i, j))

    _criterion("6c oracle equivalence", prop)


def test_criterion_6d_sparsity_guarantee():
    @SUITE
    @given(
        multigraphs(max_n=7, max_edges=8),
        st.sampled_from([(0, 1), (0, 2), (1, 2), (1, 3), (1, 1), (2, 4), (2, 2)]),
    )
    def prop(g, ij):
        params = DefectParams(*ij)
        assert not sparsity_guarantee(g, params) or is_colorable(g, params)[0]

    _criterion("6d sparsity guarantee", prop)


def test_criterion_6e_partition_property():
    mined = fdp_search(DefectParams(0, 1), 2)
    assert mined is not None
    graphs = [(g, params.i) for _, g, params in CRITICAL_CASES] + [(mined[1], 0)]

    @SUITE
    @given(st.integers(0, len(graphs) - 1), st.data())
    def prop(which, data):
        g, i = graphs[which]
        mask = data.draw(st.integers(1, (1 << g.n) - 2))
        a_set = {v for v in range(g.n) if mask >> v & 1}
        assert partition_witness(g, i, a_set) is not None

    _criterion("6e partition property", prop)


# --- criterion 7: CLI determinism across thread counts -------------------------

def _cli_stdout(argv: list[str]) -> tuple[int, bytes]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(argv)
    return code, buf.getvalue().encode()


def test_criterion_7_thread_determinism(tmp_path):
    def body():
        zg, zc = str(tmp_path / "z.g"), str(tmp_path / "z.c")
        eg = str(tmp_path / "e.g")
        code, _ = _cli_stdout(["gen", "--family", "zeroj", "--j", "1", "--m", "2",
                               "--graph", zg, "--cover", zc])
        assert code == 0
        code, _ = _cli_stdout(["gen", "--family", "equal", "--i", "1", "--m", "1",
                               "--graph", eg])
        assert code == 0

        commands = [
            ["gen", "--family", "zeroj", "--j", "1", "--m", "2", "--graph", zg, "--cover", zc],
            ["color", "--graph", zg, "--cover", zc, "--i", "0", "--j", "1"],
            ["colorable", "--graph", zg, "--i", "0", "--j", "1"],
            ["critical", "--graph", eg, "--i", "1", "--j", "1"],
            ["potential", "--graph", zg, "--i", "0", "--j", "1"],
            ["fdp", "--i", "0", "--j", "1", "--n", "2"],
            ["sparsity", "--graph", zg, "--i", "0", "--j", "1"],
            ["verify", "--family", "equal", "--i", "1", "--m", "1,2"],
        ]
        for argv in commands:
            outputs = []
            for threads in ("1", "2", "8"):
                code, out = _cli_stdout(argv + ["--threads", threads])
                assert code == 0, argv
                outputs.append(out)
            assert outputs[0] == outputs[1] == outputs[2], argv

    _criterion("7 thread determinism", body)
