"""Show that each workload's check accepts the right answer and rejects wrong ones.

Usage (from the repository root)::

    python3 bench/selfcheck.py

For every workload, a right answer (taken from a quick real ``dpcolor`` run or
written from the stored references) must pass its check, and each corrupted
copy must be refused: a flipped CRITICAL, an ``fdp`` value off by one, a
witness with an edge missing, a rho off by one, a changed argmin, a
non-violating "violation", a FAIL cell in ``verify``. Prints one line per case
and exits 1 if any case goes the wrong way. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import sys
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
from workloads import load_refs, parse_edges  # noqa: E402

from dpcolor import cli  # noqa: E402
from dpcolor.constructions import build_family  # noqa: E402


def dpcolor_stdout(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        if cli.main(list(argv)) != 0:
            raise RuntimeError(f"dpcolor {' '.join(argv)} failed")
    return buf.getvalue()


def cases():
    """(workload, description, check, output, should_pass) for every case."""
    inst = build_family("equal", 2, None, 2)
    g = inst.graph
    bad = [int(p) for p in inst.bad_cover.parities]
    crit = partial(checks.check_critical_instance, i=2, j=2, n=g.n, edges=list(g.edges))
    yield "critical_families", "family instance CRITICAL", partial(crit, bad_parities=bad), "CRITICAL\n", True
    yield "critical_families", "flipped to NOT CRITICAL", partial(crit, bad_parities=bad), "NOT CRITICAL\n", False
    yield "critical_families", "bad cover that has a coloring", partial(crit, bad_parities=[0] * len(bad)), "CRITICAL\n", False
    yield "critical_families", "edge-deleted NOT CRITICAL", checks.check_not_critical, "NOT CRITICAL\n", True
    yield "critical_families", "edge-deleted flipped to CRITICAL", checks.check_not_critical, "CRITICAL\n", False

    fdp = partial(checks.check_fdp, i=0, j=1, n=5)
    out = dpcolor_stdout("fdp", "--n", "5", "--i", "0", "--j", "1")
    head, *edge_lines = out.splitlines(keepends=True)
    value = int(head.split()[1])
    yield "fdp_mine", "mined value and witness", fdp, out, True
    yield "fdp_mine", "value one too high", fdp, f"fdp {value + 1}\n" + "".join(edge_lines), False
    yield "fdp_mine", "value one too low", fdp, f"fdp {value - 1}\n" + "".join(edge_lines), False
    yield "fdp_mine", "witness missing its last edge", fdp, f"fdp {value}\n" + "".join(edge_lines[:-1]), False

    refs = load_refs()
    fam = refs["families"][0]
    verify = partial(checks.check_verify, n=fam["n"], e=fam["e"], i=fam["i"], j=fam["i"] + 1)
    out = dpcolor_stdout("verify", "--family", "iplusone", "--i", str(fam["i"]), "--m", str(fam["m"]))
    yield "potential_scan", "verify row", partial(verify, rho=fam["rho"]), out, True
    yield "potential_scan", "verify potential=FAIL", partial(verify, rho=fam["rho"]), out.replace("potential=PASS", "potential=FAIL"), False
    yield "potential_scan", "verify PASS above the threshold", partial(verify, rho=fam["rho"] + 1), out, False

    for slot in refs["slots"]:
        ref = slot["pool"][0]
        i, j, name = slot["i"], slot["j"], slot["name"]
        edges = parse_edges(ref["edges"])
        argmin = " ".join(map(str, ref["argmin"]))
        pot = partial(checks.check_potential, rho=ref["rho"], argmin=ref["argmin"])
        yield "potential_scan", f"{name} rho", pot, f"regime r\nrho {ref['rho']}\nargmin {argmin}\n", True
        yield "potential_scan", f"{name} rho off by one", pot, f"regime r\nrho {ref['rho'] - 1}\nargmin {argmin}\n", False
        other = ref["argmin"][:-1] or [v for v in range(slot["n"]) if v not in ref["argmin"]][:1]
        yield "potential_scan", f"{name} argmin changed", pot, f"regime r\nrho {ref['rho']}\nargmin {' '.join(map(str, other))}\n", False

        sparsity = partial(checks.check_sparsity, i=i, j=j, edges=edges, violation=ref["violation"])
        lone = "NO GUARANTEE\nviolation 0\n"
        if ref["violation"] is None:
            yield "potential_scan", f"{name} GUARANTEE", sparsity, "GUARANTEE\n", True
            yield "potential_scan", f"{name} non-violating violation", sparsity, lone, False
        else:
            members = " ".join(map(str, checks.mask_members(ref["violation"])))
            yield "potential_scan", f"{name} first violation", sparsity, f"NO GUARANTEE\nviolation {members}\n", True
            yield "potential_scan", f"{name} GUARANTEE instead", sparsity, "GUARANTEE\n", False
            yield "potential_scan", f"{name} non-violating violation", sparsity, lone, False


def main() -> int:
    wrong = 0
    for workload, what, check, out, should_pass in cases():
        reason = check(out)
        ok = (reason is None) == should_pass
        wrong += not ok
        verdict = "accepted" if reason is None else f"rejected ({reason})"
        print(f"{'ok ' if ok else 'BAD'} {workload:17s} {what}: {verdict}")
    print(f"{wrong} case(s) went the wrong way")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
