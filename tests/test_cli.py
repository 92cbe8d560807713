from __future__ import annotations

import re

import pytest

from dpcolor import (
    Cover,
    Multigraph,
    DefectParams,
    Parity,
    PhiMap,
    Side,
    build_zeroj,
    is_valid_coloring,
    load_cover,
    load_graph,
    save_cover,
    save_graph,
)
from dpcolor.cli import _build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_zeroj_counts_and_files(self, capsys, tmp_path):
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        code, out, _ = run(
            capsys, "gen", "--family", "zeroj", "--j", "1", "--m", "2",
            "--graph", gpath, "--cover", cpath,
        )
        assert code == 0
        assert "predicted n=6 e=7" in out and "actual n=6 e=7" in out
        g, t = load_graph(gpath)
        inst = build_zeroj(1, 2)
        assert g == inst.graph and t is None
        assert load_cover(cpath) == inst.bad_cover

    def test_equal_counts(self, capsys):
        code, out, _ = run(capsys, "gen", "--family", "equal", "--i", "1", "--m", "2")
        assert code == 0
        assert "actual n=6 e=8" in out

    def test_mid_range_error(self, capsys):
        code, _, err = run(capsys, "gen", "--family", "mid", "--i", "1", "--j", "3", "--m", "1")
        assert code == 2
        assert "i+2 <= j <= 2i" in err


class TestColor:
    def test_edgeless_graph_gets_all_rich(self, capsys, tmp_path):
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        save_graph(gpath, Multigraph(3, ()))
        save_cover(cpath, Cover(()))
        code, out, _ = run(capsys, "color", "--graph", gpath, "--cover", cpath, "--i", "0", "--j", "0")
        assert code == 0
        assert out.splitlines() == ["v 0 R", "v 1 R", "v 2 R"]

    def test_bad_cover_uncolorable(self, capsys, tmp_path):
        inst = build_zeroj(1, 2)
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        save_graph(gpath, inst.graph)
        save_cover(cpath, inst.bad_cover)
        code, out, _ = run(capsys, "color", "--graph", gpath, "--cover", cpath, "--i", "0", "--j", "1")
        assert code == 0 and out.strip() == "UNCOLORABLE"

    def test_all_even_cover_yields_valid_map(self, capsys, tmp_path):
        inst = build_zeroj(1, 2)
        cover = Cover((Parity.EVEN,) * len(inst.graph.edges))
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        save_graph(gpath, inst.graph)
        save_cover(cpath, cover)
        code, out, _ = run(capsys, "color", "--graph", gpath, "--cover", cpath, "--i", "0", "--j", "1")
        assert code == 0
        sides = []
        for line in out.splitlines():
            _, v, letter = line.split()
            sides.append(Side.POOR if letter == "P" else Side.RICH)
        assert is_valid_coloring(inst.graph, cover, PhiMap(tuple(sides)), DefectParams(0, 1))

    def test_greedy_requires_symmetric_defects(self, capsys, tmp_path):
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        save_graph(gpath, Multigraph(2, [(0, 1)]))
        save_cover(cpath, Cover((Parity.EVEN,)))
        code, _, err = run(
            capsys, "color", "--graph", gpath, "--cover", cpath,
            "--i", "0", "--j", "1", "--solver", "greedy",
        )
        assert code == 2 and "symmetric" in err

    def test_greedy_prints_its_map(self, capsys, tmp_path):
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        save_graph(gpath, Multigraph(4, [(0, 1), (2, 3)]))
        save_cover(cpath, Cover((Parity.ODD, Parity.ODD)))
        code, out, _ = run(
            capsys, "color", "--graph", gpath, "--cover", cpath,
            "--i", "1", "--j", "1", "--solver", "greedy",
        )
        assert code == 0
        assert out.splitlines() == ["v 0 R", "v 1 R", "v 2 R", "v 3 R"]

    def test_greedy_reports_its_failure(self, capsys, tmp_path):
        # the triple edge under EEO beats the flip repair at i = 0
        gpath, cpath = str(tmp_path / "g"), str(tmp_path / "c")
        save_graph(gpath, Multigraph(2, [(0, 1)] * 3))
        save_cover(cpath, Cover((Parity.EVEN, Parity.EVEN, Parity.ODD)))
        code, out, _ = run(
            capsys, "color", "--graph", gpath, "--cover", cpath,
            "--i", "0", "--j", "0", "--solver", "greedy",
        )
        assert code == 0 and out.splitlines() == ["GREEDY FAILED"]

    def test_greedy_refuses_toughness(self, capsys, tmp_path):
        gpath, cpath = tmp_path / "g", str(tmp_path / "c")
        gpath.write_text("graph 2\ne 0 1\nt 0 1\n")
        save_cover(cpath, Cover((Parity.EVEN,)))
        code, out, err = run(
            capsys, "color", "--graph", str(gpath), "--cover", cpath,
            "--i", "1", "--j", "1", "--solver", "greedy",
        )
        assert (code, out) == (2, "") and "zero toughness" in err

    def test_parse_error_names_line(self, capsys, tmp_path):
        gpath = tmp_path / "g"
        gpath.write_text("graph 2\ne 0 5\n")
        cpath = str(tmp_path / "c")
        save_cover(cpath, Cover(()))
        code, _, err = run(capsys, "color", "--graph", str(gpath), "--cover", cpath, "--i", "0", "--j", "0")
        assert code == 2 and err.startswith("error: line 2: ")

    def test_cover_parse_error_names_line(self, capsys, tmp_path):
        gpath = str(tmp_path / "g")
        save_graph(gpath, Multigraph(2, [(0, 1)]))
        cpath = tmp_path / "c"
        cpath.write_text("cover 1\n\np 0 E\np 1 O\n")
        code, out, err = run(capsys, "color", "--graph", gpath, "--cover", str(cpath), "--i", "0", "--j", "0")
        assert (code, out) == (2, "") and err.startswith("error: line 4: ")


class TestDecisionCommands:
    @pytest.fixture()
    def zeroj_file(self, tmp_path):
        path = str(tmp_path / "g")
        save_graph(path, build_zeroj(1, 2).graph)
        return path

    def test_colorable(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "colorable", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0
        assert out.splitlines()[0] == "NOT COLORABLE"
        assert out.splitlines()[1].startswith("witness ")

    def test_colorable_prints_colorable(self, capsys, tmp_path):
        path = str(tmp_path / "g")
        save_graph(path, Multigraph(2, [(0, 1)]))
        code, out, _ = run(capsys, "colorable", "--graph", path, "--i", "0", "--j", "0")
        assert code == 0 and out.splitlines() == ["COLORABLE"]

    def test_critical(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "critical", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0 and out.strip() == "CRITICAL"

    def test_critical_folds_flags_under_the_default_budget(self, capsys, tmp_path):
        # n = 17, e = 24: 2^24 covers, exactly the default budget; its flags
        # fold to a core of 9 vertices and 8 edges, so this answers at once
        path = str(tmp_path / "g")
        run(capsys, "gen", "--family", "iplusone", "--i", "1", "--m", "1", "--graph", path)
        code, out, _ = run(capsys, "critical", "--graph", path, "--i", "1", "--j", "2")
        assert code == 0 and out.strip() == "CRITICAL"

    def test_colorable_finds_the_witness_through_the_fold(self, capsys, tmp_path):
        # the lex-first bad cover of all 24 edges, from at most 24 scans of the
        # 9-vertex, 8-edge core instead of one scan of the graph as given
        path = str(tmp_path / "g")
        run(capsys, "gen", "--family", "iplusone", "--i", "1", "--m", "1", "--graph", path)
        code, out, _ = run(capsys, "colorable", "--graph", path, "--i", "1", "--j", "2")
        assert code == 0
        assert out.splitlines() == ["NOT COLORABLE", "witness OEEEEOEOEEEOEOEEEOEOEOEO"]

    def test_critical_folds_pendant_blocks_under_the_default_budget(self, capsys, tmp_path):
        # n = 17, above the cover tree's 14 vertices; its four triangles fold
        # to one-edge gadgets, so the scan walks a core of 9 vertices
        path = str(tmp_path / "g")
        run(capsys, "gen", "--family", "zeroj", "--j", "4", "--m", "4", "--graph", path)
        code, out, _ = run(capsys, "critical", "--graph", path, "--i", "0", "--j", "4")
        assert code == 0 and out.strip() == "CRITICAL"

    def test_potential(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "potential", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0
        assert out.splitlines() == ["regime zero_j", "rho -1", "argmin 0 1 2 3 4 5"]

    def test_sparsity(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "sparsity", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0 and out.splitlines()[0] == "NO GUARANTEE"

    def test_sparsity_guarantee(self, capsys, tmp_path):
        path = str(tmp_path / "g")
        save_graph(path, Multigraph(3, [(0, 1), (1, 2)]))
        code, out, _ = run(capsys, "sparsity", "--graph", path, "--i", "0", "--j", "1")
        assert code == 0 and out.splitlines() == ["GUARANTEE"]

    def test_fdp(self, capsys):
        code, out, _ = run(capsys, "fdp", "--i", "0", "--j", "1", "--n", "2")
        assert code == 0
        assert out.splitlines()[0] == "fdp 3"
        assert out.count("e 0 1") == 3

    def test_fdp_none(self, capsys):
        code, out, _ = run(capsys, "fdp", "--i", "0", "--j", "1", "--n", "2", "--max-edges", "2")
        assert code == 0 and out.strip() == "NONE"


class TestVerify:
    def test_zeroj_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "zeroj", "--j", "1,2", "--m", "1,2")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert lines[-1].startswith("VERIFY PASS")
        assert all("counts=PASS" in line and "sharp=PASS" in line for line in lines[:-1])

    def test_large_grid_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "large", "--i", "1", "--j", "3", "--m", "0,1")
        assert code == 0
        assert "VERIFY PASS" in out

    def test_budget_skips_are_reported(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "mid", "--i", "2", "--j", "4", "--m", "1",
        )
        assert code == 0
        assert "critical=SKIP" in out  # 2^18 covers exceed the verify default budget

    def test_budget_counts_the_edges_before_the_fold(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "iplusone", "--i", "1", "--m", "1")
        assert code == 0
        assert "e=24" in out and "critical=SKIP" in out  # the core's 8 edges would fit

    def test_potential_skips_above_the_vertex_limit(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "iplusone", "--i", "2", "--m", "16")
        assert code == 0
        assert "n=196" in out and "potential=SKIP" in out  # over the 192-vertex default

    def test_each_column_keeps_its_own_vertex_limit(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "iplusone", "--i", "2", "--m", "2")
        assert code == 0
        assert "n=42" in out and "badcover=SKIP" in out and "potential=PASS" in out

    def test_badcover_uses_the_solver_vertex_limit(self, capsys):
        # n = 27: between the old 24-vertex verify limit and the solver's 32
        code, out, _ = run(capsys, "verify", "--family", "iplusone", "--i", "1", "--m", "3")
        assert code == 0
        assert "n=27" in out and "badcover=PASS" in out

    def test_critical_ignores_the_vertex_limit(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--family", "iplusone", "--i", "2", "--m", "0",
            "--max-covers", "2147483648", "--max-n", "10",
        )
        assert code == 0
        assert out.splitlines()[0].endswith("badcover=SKIP critical=PASS potential=SKIP")

    def test_missing_grid_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "zeroj", "--j", "1")
        assert code == 2 and "--m" in err

    @pytest.mark.parametrize("m", ["", ",", "1,x"])
    def test_a_grid_with_no_integer_is_refused(self, capsys, m):
        # an empty grid would verify no row and pass; a non-integer is refused the same way
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--family", "equal", "--i", "1", "--m", m])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument --m: expected comma-separated integers, got {m!r}" in err


def test_successive_calls_share_no_state(capsys, tmp_path):
    # the parser is built once per process, so every call after the first
    # parses with the same object; nothing one call sets may reach the next
    path = str(tmp_path / "g")
    assert _build_parser() is _build_parser()
    code, out, _ = run(capsys, "gen", "--family", "zeroj", "--j", "1", "--m", "2", "--graph", path)
    assert code == 0 and f"wrote graph {path}" in out
    code, _, err = run(capsys, "critical", "--graph", path, "--i", "0", "--j", "1", "--max-covers", "2")
    assert code == 2 and "exceed the limit of 2" in err
    with pytest.raises(SystemExit) as exc:
        main(["colorable", "--graph", path, "--i", "zero", "--j", "1"])
    assert exc.value.code == 2 and "invalid int value: 'zero'" in capsys.readouterr().err
    assert run(capsys, "critical", "--graph", path, "--i", "0", "--j", "1") == (0, "CRITICAL\n", "")
    code, out, _ = run(capsys, "gen", "--family", "zeroj", "--j", "1", "--m", "2")
    assert code == 0 and "wrote" not in out


# per command, one flag that its handler does not read
UNREAD_FLAGS = [
    ("gen", ["--family", "zeroj", "--j", "1", "--m", "1"], ["--max-n", "3"]),
    ("color", ["--graph", "g", "--cover", "c", "--i", "0", "--j", "0"], ["--max-covers", "8"]),
    ("colorable", ["--graph", "g", "--i", "0", "--j", "1"], ["--max-n", "3"]),
    ("critical", ["--graph", "g", "--i", "0", "--j", "1"], ["--max-n", "3"]),
    ("potential", ["--graph", "g", "--i", "0", "--j", "1"], ["--cover", "c"]),
    ("fdp", ["--n", "2", "--i", "0", "--j", "1"], ["--graph", "g"]),
    ("sparsity", ["--graph", "g", "--i", "0", "--j", "1"], ["--max-covers", "8"]),
    ("verify", ["--family", "zeroj", "--j", "1", "--m", "1"], ["--cover", "c"]),
]


@pytest.mark.parametrize("command, argv, unread", UNREAD_FLAGS, ids=[c for c, _, _ in UNREAD_FLAGS])
def test_commands_reject_flags_they_do_not_read(capsys, command, argv, unread):
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, *unread])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(unread)}" in capsys.readouterr().err


COMMAND_FLAGS = {
    "gen": {"--family", "--i", "--j", "--m", "--graph", "--cover"},
    "color": {"--solver", "--i", "--j", "--graph", "--cover", "--max-n"},
    "colorable": {"--i", "--j", "--graph", "--max-covers"},
    "critical": {"--i", "--j", "--graph", "--max-covers"},
    "potential": {"--i", "--j", "--graph", "--max-n"},
    "fdp": {"--n", "--max-edges", "--i", "--j", "--max-covers", "--max-n"},
    "sparsity": {"--i", "--j", "--graph", "--max-n"},
    "verify": {"--family", "--i", "--j", "--m", "--max-covers", "--max-n"},
}


@pytest.mark.parametrize("command", COMMAND_FLAGS)
def test_help_lists_the_flags_the_handler_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert listed == COMMAND_FLAGS[command] | {"--help", "--threads"}


class TestRoundTrip:
    def test_generated_files_parse_back_identically(self, capsys, tmp_path):
        for family, argv in [
            ("zeroj", ["--j", "2", "--m", "1"]),
            ("large", ["--i", "1", "--j", "3", "--m", "1"]),
            ("equal", ["--i", "2", "--m", "2"]),
        ]:
            gpath, cpath = str(tmp_path / f"{family}.g"), str(tmp_path / f"{family}.c")
            code, _, _ = run(
                capsys, "gen", "--family", family, *argv, "--graph", gpath, "--cover", cpath
            )
            assert code == 0
            g, _ = load_graph(gpath)
            c = load_cover(cpath)
            from dpcolor import build_family

            i = int(argv[1]) if argv[0] == "--i" else None
            j = int(argv[argv.index("--j") + 1]) if "--j" in argv else None
            m = int(argv[argv.index("--m") + 1])
            inst = build_family(family, i, j, m)
            assert g == inst.graph
            assert c == inst.bad_cover
