from __future__ import annotations

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
from dpcolor.cli import main


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

    def test_parse_error_names_line(self, capsys, tmp_path):
        gpath = tmp_path / "g"
        gpath.write_text("graph 2\ne 0 5\n")
        cpath = str(tmp_path / "c")
        save_cover(cpath, Cover(()))
        code, _, err = run(capsys, "color", "--graph", str(gpath), "--cover", cpath, "--i", "0", "--j", "0")
        assert code == 2 and "line 2" in err


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

    def test_critical(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "critical", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0 and out.strip() == "CRITICAL"

    def test_potential(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "potential", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0
        assert out.splitlines() == ["regime zero_j", "rho -1", "argmin 0 1 2 3 4 5"]

    def test_sparsity(self, capsys, zeroj_file):
        code, out, _ = run(capsys, "sparsity", "--graph", zeroj_file, "--i", "0", "--j", "1")
        assert code == 0 and out.splitlines()[0] == "NO GUARANTEE"

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

    def test_potential_skips_above_the_vertex_limit(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "iplusone", "--i", "2", "--m", "2")
        assert code == 0
        assert "n=42" in out and "potential=SKIP" in out  # over the 24-vertex default

    def test_missing_grid_flag(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "zeroj", "--j", "1")
        assert code == 2 and "--m" in err


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
