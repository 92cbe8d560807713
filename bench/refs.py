"""Recompute ``bench/refs.json``, the reference answers of ``potential_scan``.

Usage (from the repository root)::

    python3 bench/refs.py

The random graphs are drawn from fixed generator seeds, one pool per slot;
``potential_scan`` picks one graph of each pool by its ``--seed``. Every
answer here comes from a scan apart from dpcolor's: the minimum potential and
its argmin from ``tests/oracles.subset_potential_minimum``, the first
violating subset from ``checks.first_violation``. dpcolor is used only to
build the three iplusone family graphs whose potential ``verify`` checks.
Takes about 20 seconds; the output is deterministic, so regenerating it on
unchanged code leaves the file byte-identical.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]

import checks  # noqa: E402
import oracles  # noqa: E402
from workloads import REFS_PATH, VERIFY_CELLS  # noqa: E402

POOL_SIZE = 5

# (name, i, j, n, sparse). Sparse graphs pass the guarantee, so ``sparsity``
# scans all 2^n masks; dense ones fail it early. One slot per regime with a
# potential: zero_j, large, mid and i + 1.
SLOTS = [
    ("zeroj-sparse", 0, 1, 16, True),
    ("large-dense", 1, 3, 17, False),
    ("mid-dense", 2, 4, 16, False),
    ("iplusone-sparse", 1, 2, 17, True),
]

# Sparse graphs take 4 edges fewer than the most the whole graph may have and
# still pass; about half the draws then pass. Dense graphs take 2 edges a vertex.
SPARSE_SLACK = 4
DENSE_EDGES_PER_VERTEX = 2


def edge_count(i: int, j: int, n: int, sparse: bool) -> int:
    if not sparse:
        return DENSE_EDGES_PER_VERTEX * n
    most = max(e for e in range(4 * n) if checks.within_bound(i, j, n, e))
    return most - SPARSE_SLACK


def draw(name: str, k: int, i: int, j: int, n: int, e: int, sparse: bool):
    """The first random multigraph from seed ``name/k`` on the wanted side of the guarantee."""
    rng = random.Random(f"{name}/{k}")
    while True:
        edges = [tuple(sorted(rng.sample(range(n), 2))) for _ in range(e)]
        violation = checks.first_violation(n, edges, i, j)
        if (violation is None) == sparse:
            return edges, violation


def format_edges(edges) -> str:
    return " ".join(f"{u}-{v}" for u, v in edges)


def minimum_potential(i: int, j: int, n: int, edges) -> tuple[int, list[int]]:
    vertex, coeff = checks.potential_constants(i, j)
    rho, argmin = oracles.subset_potential_minimum(n, list(edges), [vertex] * n, coeff)
    return rho, list(argmin)


def main() -> int:
    from dpcolor.constructions import build_family

    families = []
    for i, m in VERIFY_CELLS:
        g = build_family("iplusone", i, None, m).graph
        rho, _ = minimum_potential(i, i + 1, g.n, g.edges)
        families.append({"i": i, "m": m, "n": g.n, "e": len(g.edges), "rho": rho})
        print(f"iplusone i={i} m={m} n={g.n} rho={rho}", file=sys.stderr)

    slots = []
    for name, i, j, n, sparse in SLOTS:
        e = edge_count(i, j, n, sparse)
        pool = []
        for k in range(POOL_SIZE):
            edges, violation = draw(name, k, i, j, n, e, sparse)
            rho, argmin = minimum_potential(i, j, n, edges)
            pool.append(
                {"edges": format_edges(edges), "rho": rho, "argmin": argmin, "violation": violation}
            )
            print(f"{name}/{k} rho={rho} violation={violation}", file=sys.stderr)
        slots.append({"name": name, "i": i, "j": j, "n": n, "e": e, "sparse": sparse, "pool": pool})

    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump({"families": families, "slots": slots}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
