"""The benchmark's three workloads: inputs made from a seed, commands, checks.

Each ``prepare_*`` function builds one workload's inputs with the dpcolor
modules it is given, writes the graph files under ``workdir`` and returns the
jobs: one ``dpcolor`` command line each, with the check its output must pass.
The seed only picks among inputs of equal cost (which edge a deletion drops,
which stored random graph fills a slot) and orders the jobs, so two seeds
measure the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import checks

REFS_PATH = Path(__file__).with_name("refs.json")

# Critical families (family, i, j, m). The first three have parallel-edge
# bundles (large always; equal is the i = j case), the zeroj ones are simple.
CRITICAL_INSTANCES = [
    ("large", 1, 3, 1),
    ("equal", 2, None, 2),
    ("equal", 1, None, 3),
    ("zeroj", None, 3, 2),
    ("zeroj", None, 2, 4),
]

# fdp cells (i, j) mined at n = 5; in each the minimum is ceil(edge_bound).
FDP_CELLS = [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]
FDP_N = 5

# iplusone cells (i, m) for ``verify``: n = 12, 17 and 20.
VERIFY_CELLS = [(1, 0), (1, 1), (2, 0)]


@dataclass(frozen=True)
class Job:
    """One dpcolor command and the check its stdout must pass."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[str], str | None]


def _no_isolated(n: int, edges: tuple[tuple[int, int], ...]) -> bool:
    touched = {v for edge in edges for v in edge}
    return len(touched) == n


def prepare_critical_families(dp: SimpleNamespace, rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for family, i, j, m in CRITICAL_INSTANCES:
        inst = dp.constructions.build_family(family, i, j, m)
        g = inst.graph
        label = f"{family} i={inst.i} j={inst.j} m={inst.m}"
        path = workdir / f"{family}-{inst.i}-{inst.j}-{inst.m}.g"
        dp.graph.save_graph(str(path), g)
        flags = ("--i", str(inst.i), "--j", str(inst.j))
        check = partial(
            checks.check_critical_instance,
            i=inst.i,
            j=inst.j,
            n=g.n,
            edges=list(g.edges),
            bad_parities=[int(p) for p in inst.bad_cover.parities],
        )
        jobs.append(Job(f"critical {label}", ("critical", "--graph", str(path), *flags), check))

        # Drop an edge that leaves no vertex isolated, so the answer comes
        # from one full all-colorable scan rather than the isolated-vertex test.
        keep = [k for k in range(len(g.edges)) if _no_isolated(g.n, g.delete_edge(k).edges)]
        k = rng.choice(keep)
        cut = workdir / f"{family}-{inst.i}-{inst.j}-{inst.m}-minus.g"
        dp.graph.save_graph(str(cut), g.delete_edge(k))
        jobs.append(
            Job(
                f"critical {label} minus edge",
                ("critical", "--graph", str(cut), *flags),
                checks.check_not_critical,
            )
        )
    rng.shuffle(jobs)
    return jobs


def prepare_fdp_mine(dp: SimpleNamespace, rng: random.Random, workdir: Path) -> list[Job]:
    jobs = [
        Job(
            f"fdp i={i} j={j} n={FDP_N}",
            ("fdp", "--n", str(FDP_N), "--i", str(i), "--j", str(j)),
            partial(checks.check_fdp, i=i, j=j, n=FDP_N),
        )
        for i, j in FDP_CELLS
    ]
    rng.shuffle(jobs)
    return jobs


def parse_edges(text: str) -> list[tuple[int, int]]:
    """Edges stored in ``refs.json`` as ``"u-v u-v ..."``."""
    return [tuple(int(x) for x in pair.split("-")) for pair in text.split()]


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def prepare_potential_scan(dp: SimpleNamespace, rng: random.Random, workdir: Path) -> list[Job]:
    refs = load_refs()
    jobs = []
    for fam in refs["families"]:
        i, m = fam["i"], fam["m"]
        jobs.append(
            Job(
                f"verify iplusone i={i} m={m}",
                ("verify", "--family", "iplusone", "--i", str(i), "--m", str(m)),
                partial(checks.check_verify, n=fam["n"], e=fam["e"], rho=fam["rho"], i=i, j=i + 1),
            )
        )
    for slot in refs["slots"]:
        pick = rng.randrange(len(slot["pool"]))
        ref = slot["pool"][pick]
        i, j, n = slot["i"], slot["j"], slot["n"]
        edges = parse_edges(ref["edges"])
        path = workdir / f"{slot['name']}-{pick}.g"
        dp.graph.save_graph(str(path), dp.graph.Multigraph(n, edges))
        flags = ("--graph", str(path), "--i", str(i), "--j", str(j))
        jobs.append(
            Job(
                f"potential {slot['name']} n={n}",
                ("potential", *flags),
                partial(checks.check_potential, rho=ref["rho"], argmin=ref["argmin"]),
            )
        )
        jobs.append(
            Job(
                f"sparsity {slot['name']} n={n}",
                ("sparsity", *flags),
                partial(checks.check_sparsity, i=i, j=j, edges=edges, violation=ref["violation"]),
            )
        )
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "critical_families": prepare_critical_families,
    "fdp_mine": prepare_fdp_mine,
    "potential_scan": prepare_potential_scan,
}
