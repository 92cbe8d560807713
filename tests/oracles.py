"""Independent reference implementations used to derive expected values.

Everything here recomputes results from the definitions on plain data
(edge lists, parity ints, side ints) without touching the package's search
code, so tests can cross-check the fast paths against a second route.
"""

from __future__ import annotations

from itertools import product
from typing import Callable


def conflict_counts(
    n: int,
    edges: list[tuple[int, int]],
    parities: list[int],
    sides: list[int],
) -> list[int]:
    """Per-vertex conflicts: even (0) matchings join equal sides, odd different."""
    conf = [0] * n
    for (u, v), parity in zip(edges, parities):
        same = sides[u] == sides[v]
        if (parity == 0 and same) or (parity == 1 and not same):
            conf[u] += 1
            conf[v] += 1
    return conf


def valid(
    n: int,
    edges: list[tuple[int, int]],
    parities: list[int],
    sides: list[int],
    i: int,
    j: int,
    t_poor: list[int] | None = None,
    t_rich: list[int] | None = None,
) -> bool:
    """Validity from the definition: poor (side 1) caps at i - t_p, rich at j - t_r."""
    t_poor = t_poor or [0] * n
    t_rich = t_rich or [0] * n
    conf = conflict_counts(n, edges, parities, sides)
    for v in range(n):
        cap = i - t_poor[v] if sides[v] == 1 else j - t_rich[v]
        if conf[v] > cap:
            return False
    return True


def cover_colorable(
    n: int,
    edges: list[tuple[int, int]],
    parities: list[int],
    i: int,
    j: int,
    t_poor: list[int] | None = None,
    t_rich: list[int] | None = None,
) -> bool:
    """Existence by scanning all 2^n side vectors."""
    for sides in product((0, 1), repeat=n):
        if valid(n, edges, parities, list(sides), i, j, t_poor, t_rich):
            return True
    return False


def colorable(
    n: int,
    edges: list[tuple[int, int]],
    i: int,
    j: int,
    t_poor: list[int] | None = None,
    t_rich: list[int] | None = None,
) -> bool:
    """Existence over every cover by scanning all 2^|E| parity vectors."""
    for parities in product((0, 1), repeat=len(edges)):
        if not cover_colorable(n, edges, list(parities), i, j, t_poor, t_rich):
            return False
    return True


def critical(
    n: int,
    edges: list[tuple[int, int]],
    i: int,
    j: int,
    t_poor: list[int] | None = None,
    t_rich: list[int] | None = None,
) -> bool:
    """No isolated vertex, not colorable, and colorable after every single deletion."""
    if any(all(v not in edge for edge in edges) for v in range(n)):
        return False
    if colorable(n, edges, i, j, t_poor, t_rich):
        return False
    return all(
        colorable(n, edges[:e] + edges[e + 1 :], i, j, t_poor, t_rich) for e in range(len(edges))
    )


def first_bad_cover(n: int, edges: list[tuple[int, int]], i: int, j: int) -> list[int] | None:
    """Lexicographically first parity vector with no coloring (0 = even < 1 = odd)."""
    for parities in product((0, 1), repeat=len(edges)):
        if not cover_colorable(n, edges, list(parities), i, j):
            return list(parities)
    return None


def subset_potential_minimum(
    n: int,
    edges: list[tuple[int, int]],
    vertex_rho: list[int],
    edge_coeff: int,
) -> tuple[int, tuple[int, ...]]:
    """Brute-force minimum of sum(rho) - coeff * internal edges over nonempty subsets."""
    best_val: int | None = None
    best_set: tuple[int, ...] = ()
    for picks in product((False, True), repeat=n):
        members = tuple(v for v in range(n) if picks[v])
        if not members:
            continue
        chosen = set(members)
        val = sum(vertex_rho[v] for v in members)
        val -= edge_coeff * sum(1 for u, w in edges if u in chosen and w in chosen)
        if best_val is None or val < best_val or (val == best_val and members < best_set):
            best_val = val
            best_set = members
    assert best_val is not None
    return best_val, best_set


def first_violating_subset(
    n: int,
    edges: list[tuple[int, int]],
    within: Callable[[int, int], bool],
) -> tuple[int, ...] | None:
    """First vertex set, in numeric mask order, whose (|V|, |E|) counts fail within."""
    for mask in range(1, 1 << n):
        members = tuple(v for v in range(n) if mask >> v & 1)
        ne = sum(1 for u, w in edges if u in members and w in members)
        if not within(len(members), ne):
            return members
    return None
