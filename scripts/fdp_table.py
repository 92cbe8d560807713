#!/usr/bin/env python3
"""Print the README's f_DP table: f_DP(i, j, n) against its lower bound.

f_DP(i, j, n) is the least edge count of an n-vertex (i, j)-critical
multigraph. Each column n is mined by fdp_search under its own edge cap
(CAPS); a cell reads "f_DP / ceil(edge_bound)", bold where the bound is met,
and "> cap" where no critical multigraph has at most cap edges. Run from the
repository root:

    PYTHONPATH=src python3 scripts/fdp_table.py

The n = 7 column takes about a minute on a 2-vCPU host.
"""

from __future__ import annotations

import math

from dpcolor import DefectParams, edge_bound, fdp_search

CELLS = [(0, j) for j in range(1, 6)] + [(1, j) for j in range(1, 6)] + [(2, j) for j in range(2, 6)]
# the edge cap of each column: fdp's default of 10, raised at n = 6 and 7
# until every cell there answers
CAPS = {1: 10, 2: 10, 3: 10, 4: 10, 5: 10, 6: 12, 7: 13}


def fdp_table(caps: dict[int, int]) -> dict[tuple[int, int], list[int | None]]:
    """f_DP(i, j, n) per cell, one entry per column n of caps, None where no
    n-vertex critical multigraph has at most caps[n] edges."""
    table = {}
    for i, j in CELLS:
        found = [fdp_search(DefectParams(i, j), n, cap, max_vertices=n) for n, cap in caps.items()]
        table[i, j] = [f and f[0] for f in found]
    return table


def markdown(table: dict[tuple[int, int], list[int | None]], caps: dict[int, int]) -> str:
    """The table in Markdown; one vertex has no edge, so n = 1 reads "—"."""
    lines = [
        "| (i, j) | " + " | ".join(f"n = {n}" for n in caps) + " |",
        "| --- |" + " --- |" * len(caps),
    ]
    for (i, j), row in table.items():
        cells = []
        for (n, cap), value in zip(caps.items(), row):
            bound = math.ceil(edge_bound(DefectParams(i, j), n))
            if n == 1:
                cells.append("—")
            elif value is None:
                cells.append(f"> {cap} / {bound}")
            elif value == bound:
                cells.append(f"**{value}** / {bound}")
            else:
                cells.append(f"{value} / {bound}")
        lines.append(f"| ({i},{j}) | " + " | ".join(cells) + " |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(markdown(fdp_table(CAPS), CAPS))
