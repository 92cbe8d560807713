#!/usr/bin/env python3
"""Covers, conflict degrees, and coloring one instance.

Walks the smallest interesting example: two vertices joined by three parallel
edges. Each edge instance carries a matching parity; a map picks one side
(poor or rich) per vertex, and an instance conflicts when its matching joins
the two chosen sides.
"""

from dpcolor import (
    Cover,
    DefectParams,
    Multigraph,
    Parity,
    PhiMap,
    Side,
    all_covers,
    conflict_degrees,
    exhaustive_color,
    greedy_color,
    is_colorable,
    is_valid_coloring,
)

E, O = Parity.EVEN, Parity.ODD

triple = Multigraph(2, [(0, 1)] * 3)
print(f"triple edge: n={triple.n}, e={len(triple.edges)}, degrees="
      f"{[triple.degree(v) for v in range(2)]}")

# One cover: two even matchings and one odd. Whatever sides we pick, at least
# two instances conflict at each endpoint.
cover = Cover((E, E, O))
for sides in [(Side.RICH, Side.RICH), (Side.RICH, Side.POOR),
              (Side.POOR, Side.RICH), (Side.POOR, Side.POOR)]:
    phi = PhiMap(sides)
    conf = conflict_degrees(triple, cover, phi)
    ok = is_valid_coloring(triple, cover, phi, DefectParams(0, 1))
    print(f"  map {phi.letters()}: conflicts {conf}, valid for (0,1): {ok}")

# The solver agrees: no map works for this cover.
print("exhaustive:", exhaustive_color(triple, cover, DefectParams(0, 1)))

# Colorability quantifies over every cover. The triple edge fails at (0,1):
# the witness is the lexicographically first refusing parity vector.
ok, witness = is_colorable(triple, DefectParams(0, 1))
print(f"(0,1)-colorable over all {sum(1 for _ in all_covers(triple))} covers:",
      ok, "witness:", witness.letters())

# At (0,2) the rich side absorbs all three conflicts and every cover passes.
print("(0,2)-colorable:", is_colorable(triple, DefectParams(0, 2))[0])

# The greedy repair handles the symmetric problem whenever degrees stay below
# 2(i+1): start all-rich, flip any overloaded vertex while it helps.
star = Multigraph(3, [(0, 1), (0, 2)])
phi = greedy_color(star, Cover((E, E)), 1)
print("greedy on K_{1,2}, all-even cover, i=1:", phi.letters(),
      "valid:", is_valid_coloring(star, Cover((E, E)), phi, DefectParams(1, 1)))
