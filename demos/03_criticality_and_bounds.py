#!/usr/bin/env python3
"""Criticality checks and the exact edge-count bounds.

A graph is critical when it refuses some cover but every single-edge deletion
restores colorability. Criticality is what makes the lower bounds bite, and
the generated families achieve them with equality.
"""

from dpcolor import (
    DefectParams,
    Multigraph,
    build_equal,
    build_large,
    build_zeroj,
    check_bounds,
    is_critical,
)

cases = [
    ("triple edge", Multigraph(2, [(0, 1)] * 3), DefectParams(0, 1)),
    ("double edge", Multigraph(2, [(0, 1)] * 2), DefectParams(0, 1)),
    ("zeroj(1,2)", build_zeroj(1, 2).graph, DefectParams(0, 1)),
    ("equal(1,1)", build_equal(1, 1).graph, DefectParams(1, 1)),
    ("large(1,3,0)", build_large(1, 3, 0).graph, DefectParams(1, 3)),
]

for name, g, params in cases:
    crit = is_critical(g, params)
    print(f"{name:14} ({params.i},{params.j})-critical: {crit}")

# check_bounds compares a (presumed critical) graph against its regime bound
# and, where the regime has one, the potential threshold.
print()
for name, g, params in cases:
    if name == "double edge":
        continue
    r = check_bounds(g, params)
    rho = "-" if r.rho is None else f"rho={r.rho} <= {r.rho_threshold}: {r.rho_ok}"
    print(f"{name:14} e={r.e} bound={r.bound} holds={r.holds} sharp={r.sharp}  {rho}")

# Deleting any edge from a critical graph must restore colorability; the
# criticality checker verifies exactly that, one deletion at a time.
g = build_zeroj(1, 1).graph
from dpcolor import is_colorable

print("\nzeroj(1,1) deletions all colorable:",
      all(is_colorable(g.delete_edge(e), DefectParams(0, 1))[0] for e in range(len(g.edges))))
