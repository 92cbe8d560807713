"""Command-line driver: generate families, color instances, verify grids.

Exit codes: 0 = query answered (either way), 1 = verification failure in
``verify``, 2 = usage, parse, or budget error. All reports are line-oriented
and deterministic. Every computation runs on one thread; ``--threads`` is
accepted for compatibility with older scripts and changes nothing.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import Callable

from .constructions import FAMILIES, CountMismatch, build_family
from .cover import DEFAULT_MAX_COVERS, _check_covers, load_cover, save_cover
from .critical import (
    DEFAULT_MAX_SEARCH_EDGES,
    DEFAULT_MAX_SEARCH_VERTICES as SEARCH_MAX_VERTICES,
    fdp_search,
    is_critical,
)
from .graph import (
    BudgetError,
    DefectParams,
    FormatError,
    Multigraph,
    Toughness,
    load_graph,
    save_graph,
)
from .potential import (
    _POTENTIAL_REGIMES,
    DEFAULT_MAX_VERTICES as POTENTIAL_MAX_VERTICES,
    edge_bound,
    potential_threshold,
    regime,
    rho_graph,
)
from .solver import (
    DEFAULT_MAX_VERTICES as SOLVER_MAX_VERTICES,
    exhaustive_color,
    greedy_color,
    is_colorable,
)
from .sparsity import violating_subset

VERIFY_MAX_COVERS = 2**12


def _add_flags(sp: argparse.ArgumentParser, *names: str, lists: bool = False) -> None:
    """Declare the named flags on one subcommand, then --threads, which all take."""
    kind = _int_list if lists else int
    specs = {
        "--i": dict(type=kind, help="poor defect bound"),
        "--j": dict(type=kind, help="rich defect bound"),
        "--m": dict(type=kind, help="family size parameter"),
        "--graph": dict(help="graph file path"),
        "--cover": dict(help="cover file path"),
        "--max-covers": dict(type=int, help="refuse enumerations beyond this many covers"),
        "--max-n": dict(
            type=int,
            help="refuse per-vertex enumerations beyond this many vertices "
            "(defaults to each operation's own limit)",
        ),
    }
    for name in names:
        sp.add_argument(name, default=None, **specs[name])
    sp.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility; dpcolor computes on one thread",
    )


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        values = []
    if not values:  # an empty grid would verify nothing and pass
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state in it."""
    ap = argparse.ArgumentParser(
        prog="dpcolor",
        description="Defective DP-colorings of multigraphs at desk scale.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a critical family instance")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    _add_flags(gen, "--i", "--j", "--m", "--graph", "--cover")

    color = sub.add_parser("color", help="color one graph under one cover")
    color.add_argument(
        "--solver",
        choices=("exhaustive", "greedy"),
        default="exhaustive",
        help="greedy targets the symmetric (i, i) problem with zero toughness",
    )
    _add_flags(color, "--i", "--j", "--graph", "--cover", "--max-n")

    colorable = sub.add_parser("colorable", help="decide colorability over all covers")
    _add_flags(colorable, "--i", "--j", "--graph", "--max-covers")
    critical = sub.add_parser("critical", help="decide criticality")
    _add_flags(critical, "--i", "--j", "--graph", "--max-covers")
    potential = sub.add_parser("potential", help="minimum potential and its argmin")
    _add_flags(potential, "--i", "--j", "--graph", "--max-n")

    fdp = sub.add_parser("fdp", help="mine the minimum critical edge count")
    fdp.add_argument("--n", type=int, required=True, help="vertex count")
    fdp.add_argument("--max-edges", type=int, default=DEFAULT_MAX_SEARCH_EDGES)
    _add_flags(fdp, "--i", "--j", "--max-covers", "--max-n")

    sparsity = sub.add_parser("sparsity", help="check the colorability guarantee")
    _add_flags(sparsity, "--i", "--j", "--graph", "--max-n")

    verify = sub.add_parser("verify", help="verify a family grid against the bounds")
    verify.add_argument("--family", required=True, choices=FAMILIES)
    _add_flags(verify, "--i", "--j", "--m", "--max-covers", "--max-n", lists=True)
    return ap


def _require(value, flag: str):
    if value is None:
        raise ValueError(f"missing required flag {flag}")
    return value


def _params(args) -> DefectParams:
    return DefectParams(_require(args.i, "--i"), _require(args.j, "--j"))


def _load(args) -> tuple[Multigraph, Toughness | None]:
    return load_graph(_require(args.graph, "--graph"))


def _max_covers(args, default: int = DEFAULT_MAX_COVERS) -> int:
    return default if args.max_covers is None else args.max_covers


def _max_n(args, default: int) -> int:
    return default if args.max_n is None else args.max_n


def _cmd_gen(args) -> int:
    inst = build_family(args.family, args.i, args.j, args.m)
    print(f"family {inst.family} i={inst.i} j={inst.j} m={inst.m}")
    print(f"predicted n={inst.predicted_n} e={inst.predicted_e}")
    print(f"actual n={inst.graph.n} e={len(inst.graph.edges)}")
    if args.graph:
        save_graph(args.graph, inst.graph)
        print(f"wrote graph {args.graph}")
    if args.cover:
        save_cover(args.cover, inst.bad_cover)
        print(f"wrote cover {args.cover}")
    return 0


def _cmd_color(args) -> int:
    g, t = _load(args)
    c = load_cover(_require(args.cover, "--cover"))
    params = _params(args)
    if args.solver == "greedy":
        if params.i != params.j:
            raise ValueError("greedy targets the symmetric (i, i) problem")
        if t is not None:
            raise ValueError("greedy requires zero toughness; strip t lines")
        phi = greedy_color(g, c, params.i)
        if phi is None:
            print("GREEDY FAILED")
            return 0
    else:
        phi = exhaustive_color(g, c, params, t, max_vertices=_max_n(args, SOLVER_MAX_VERTICES))
        if phi is None:
            print("UNCOLORABLE")
            return 0
    for v, side in enumerate(phi.sides):
        print(f"v {v} {side.letter}")
    return 0


def _cmd_colorable(args) -> int:
    g, t = _load(args)
    ok, witness = is_colorable(g, _params(args), t, max_covers=_max_covers(args))
    if ok:
        print("COLORABLE")
    else:
        print("NOT COLORABLE")
        print(f"witness {witness.letters()}")
    return 0


def _cmd_critical(args) -> int:
    g, t = _load(args)
    ok = is_critical(g, _params(args), t, max_covers=_max_covers(args))
    print("CRITICAL" if ok else "NOT CRITICAL")
    return 0


def _cmd_potential(args) -> int:
    g, t = _load(args)
    params = _params(args)
    value, argmin = rho_graph(g, params, t, max_vertices=_max_n(args, POTENTIAL_MAX_VERTICES))
    print(f"regime {regime(params).value}")
    print(f"rho {value}")
    print(f"argmin {' '.join(str(v) for v in sorted(argmin))}")
    return 0


def _cmd_fdp(args) -> int:
    found = fdp_search(
        _params(args),
        args.n,
        args.max_edges,
        max_vertices=_max_n(args, SEARCH_MAX_VERTICES),
        max_covers=_max_covers(args),
    )
    if found is None:
        print("NONE")
        return 0
    e, g = found
    print(f"fdp {e}")
    print(f"graph {g.n}")
    for u, v in g.edges:
        print(f"e {u} {v}")
    return 0


def _cmd_sparsity(args) -> int:
    g, _ = _load(args)
    params = _params(args)
    bad = violating_subset(g, params, max_vertices=_max_n(args, POTENTIAL_MAX_VERTICES))
    if bad is None:
        print("GUARANTEE")
    else:
        print("NO GUARANTEE")
        print(f"violation {' '.join(str(v) for v in sorted(bad))}")
    return 0


def _verdict(check: Callable[[], bool]) -> str:
    """PASS or FAIL by what check answers, SKIP when its operation refuses the budget."""
    try:
        return "PASS" if check() else "FAIL"
    except BudgetError:
        return "SKIP"


def _verify_cell(inst, max_covers: int, badcover_n: int, potential_n: int) -> dict[str, str]:
    params = inst.params
    g = inst.graph
    cells: dict[str, str] = {}
    cells["counts"] = (
        "PASS"
        if (g.n, len(g.edges)) == (inst.predicted_n, inst.predicted_e)
        else "FAIL"
    )
    cells["sharp"] = "PASS" if Fraction(len(g.edges)) == edge_bound(params, g.n) else "FAIL"
    cells["badcover"] = _verdict(
        lambda: exhaustive_color(g, inst.bad_cover, params, max_vertices=badcover_n) is None
    )

    def critical() -> bool:
        # is_critical's own budget check, made before the call as fdp_search
        # makes it: bench/tracer.py records a traced call's work only when it returns
        _check_covers(len(g.edges), max_covers)
        return is_critical(g, params, max_covers=max_covers)

    cells["critical"] = _verdict(critical)
    if regime(params) not in _POTENTIAL_REGIMES:
        cells["potential"] = "-"
    else:
        cells["potential"] = _verdict(
            lambda: rho_graph(g, params, max_vertices=potential_n)[0]
            <= potential_threshold(params)
        )
    return cells


def _cmd_verify(args) -> int:
    family = args.family
    i_list = args.i if args.i is not None else [None]
    j_list = args.j if args.j is not None else [None]
    m_list = _require(args.m, "--m")
    max_covers = _max_covers(args, VERIFY_MAX_COVERS)
    badcover_n = _max_n(args, SOLVER_MAX_VERTICES)
    potential_n = _max_n(args, POTENTIAL_MAX_VERTICES)

    failures = 0
    skips = 0
    rows = 0
    for i in i_list:
        for j in j_list:
            for m in m_list:
                inst = build_family(family, i, j, m)
                cells = _verify_cell(inst, max_covers, badcover_n, potential_n)
                rows += 1
                failures += sum(1 for v in cells.values() if v == "FAIL")
                skips += sum(1 for v in cells.values() if v == "SKIP")
                detail = " ".join(f"{k}={v}" for k, v in cells.items())
                print(
                    f"{inst.family} i={inst.i} j={inst.j} m={inst.m} "
                    f"n={inst.graph.n} e={len(inst.graph.edges)} {detail}"
                )
    verdict = "PASS" if failures == 0 else "FAIL"
    print(f"VERIFY {verdict} rows={rows} failures={failures} skips={skips}")
    return 0 if failures == 0 else 1


_COMMANDS = {
    "gen": _cmd_gen,
    "color": _cmd_color,
    "colorable": _cmd_colorable,
    "critical": _cmd_critical,
    "potential": _cmd_potential,
    "fdp": _cmd_fdp,
    "sparsity": _cmd_sparsity,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (FormatError, CountMismatch, BudgetError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
