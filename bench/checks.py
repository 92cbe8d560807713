"""Answer checks for the benchmark, computed apart from dpcolor.

The formulas below restate the paper's bounds from the definitions, and the
colorability checks call the brute-force scans in ``tests/oracles.py``. No
function here imports dpcolor, so a wrong answer from the package cannot be
confirmed by the same code that produced it. Every ``check_*`` function takes
the captured stdout of one ``dpcolor`` command and returns ``None`` when the
answer is right, otherwise a one-line reason.
"""

from __future__ import annotations

import math
from fractions import Fraction

import oracles


def edge_bound(i: int, j: int, n: int) -> Fraction:
    """The paper's lower bound on the edges of an n-vertex (i, j)-critical graph."""
    if i == 0:
        return Fraction(n + j)
    if j == i:
        return Fraction((2 * i + 2) * n, i + 2)
    if j == i + 1:
        return Fraction((2 * i * i + 4 * i + 1) * n + 1, i * i + 3 * i + 1)
    if j >= 2 * i + 1:
        return Fraction((2 * i + 1) * n - (2 * i - j), i + 1)
    return Fraction(2 * j * n + 2, j + 1)


def potential_constants(i: int, j: int) -> tuple[int, int]:
    """(potential of an untoughened vertex, coefficient of each edge)."""
    if i == 0:
        return 1, 1
    if j == i + 1:
        return 2 * i * i + 4 * i + 1, i * i + 3 * i + 1
    if j >= 2 * i + 1:
        return 2 * i + 1, i + 1
    if j >= i + 2:
        return 2 * j, j + 1
    raise ValueError(f"({i}, {j}) has no potential")


def potential_threshold(i: int, j: int) -> int:
    """The potential every critical graph reaches or undercuts."""
    if i > 0 and j == i + 1:
        return -1
    a, b = potential_constants(i, j)
    return a + (j + 1) * (a - 2 * b)


def within_bound(i: int, j: int, nv: int, ne: int) -> bool:
    """The sparsity guarantee's inequality for one subgraph with nv vertices, ne edges."""
    if i == 0:
        return ne <= nv + j - 1
    if j == i:
        return (i + 2) * ne <= (2 * i + 2) * nv - 1
    if j == i + 1:
        return (i * i + 3 * i + 1) * ne <= (2 * i * i + 4 * i + 1) * nv
    if j >= 2 * i + 1:
        return (i + 1) * ne <= (2 * i + 1) * nv - (2 * i - j + 2)
    return (j + 1) * ne <= 2 * j * nv + 1


def internal_edges(edges: list[tuple[int, int]], members: set[int]) -> int:
    return sum(1 for u, v in edges if u in members and v in members)


def first_violation(n: int, edges: list[tuple[int, int]], i: int, j: int) -> int | None:
    """The smallest vertex mask whose induced subgraph breaks ``within_bound``.

    Masks are scanned in numeric order, as the guarantee's definition allows
    any order but dpcolor reports the first. The induced edge count of a mask
    is that of the mask without its lowest vertex plus that vertex's edges
    into the rest, so the scan costs O(2^n * n) instead of O(2^n * |E|).
    """
    mult = [[0] * n for _ in range(n)]
    for u, v in edges:
        mult[u][v] += 1
        mult[v][u] += 1
    ne = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        row = mult[low]
        count = ne[rest]
        r = rest
        while r:
            bit = r & -r
            count += row[bit.bit_length() - 1]
            r ^= bit
        ne[mask] = count
        if not within_bound(i, j, mask.bit_count(), count):
            return mask
    return None


def mask_members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _parse_graph_lines(lines: list[str]) -> tuple[int, list[tuple[int, int]]] | str:
    if not lines or not lines[0].startswith("graph "):
        return "missing graph header"
    n = int(lines[0].split()[1])
    edges = []
    for line in lines[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "e":
            return f"bad edge line {line!r}"
        u, v = int(parts[1]), int(parts[2])
        if not (0 <= u < n and 0 <= v < n and u != v):
            return f"edge {line!r} is a loop or out of range"
        edges.append((u, v))
    return n, edges


def check_critical_instance(
    out: str, i: int, j: int, n: int, edges: list[tuple[int, int]], bad_parities: list[int]
) -> str | None:
    """A generated family instance: CRITICAL, sharp, and its bad cover refused."""
    if out != "CRITICAL\n":
        return f"expected CRITICAL, got {out.strip()!r}"
    if Fraction(len(edges)) != edge_bound(i, j, n):
        return f"e = {len(edges)} is not the edge bound {edge_bound(i, j, n)} at n = {n}"
    if oracles.cover_colorable(n, edges, bad_parities, i, j):
        return "the family's bad cover has a coloring"
    return None


def check_not_critical(out: str) -> str | None:
    """A critical graph minus one edge is colorable, so never critical."""
    return None if out == "NOT CRITICAL\n" else f"expected NOT CRITICAL, got {out.strip()!r}"


def check_fdp(out: str, i: int, j: int, n: int) -> str | None:
    """The mined minimum equals the paper's bound, with a critical witness."""
    lines = out.splitlines()
    if not lines or not lines[0].startswith("fdp "):
        return f"expected an fdp line, got {out.strip()[:40]!r}"
    value = int(lines[0].split()[1])
    want = math.ceil(edge_bound(i, j, n))
    if value != want:
        return f"fdp {value} differs from ceil(edge bound) = {want}"
    parsed = _parse_graph_lines(lines[1:])
    if isinstance(parsed, str):
        return parsed
    wn, edges = parsed
    if wn != n or len(edges) != value:
        return f"witness has {wn} vertices and {len(edges)} edges, expected {n} and {value}"
    if any(all(v not in edge for edge in edges) for v in range(n)):
        return "witness has an isolated vertex"
    if oracles.colorable(n, edges, i, j):
        return "witness is colorable"
    for k in range(len(edges)):
        if not oracles.colorable(n, edges[:k] + edges[k + 1 :], i, j):
            return f"witness minus edge {k} is still not colorable"
    return None


def check_verify(out: str, n: int, e: int, rho: int, i: int, j: int) -> str | None:
    """One ``verify`` cell of a family with a stored reference potential."""
    lines = out.splitlines()
    if len(lines) != 2 or lines[1] != "VERIFY PASS rows=1 failures=0 skips=1":
        return f"unexpected verify summary {lines[-1:]!r}"
    fields = dict(f.split("=", 1) for f in lines[0].split()[1:])
    if (int(fields["n"]), int(fields["e"])) != (n, e):
        return f"row has n={fields['n']} e={fields['e']}, expected n={n} e={e}"
    if Fraction(e) != edge_bound(i, j, n):
        return f"e = {e} is not the edge bound at n = {n}"
    for cell in ("counts", "sharp", "badcover", "potential"):
        if fields.get(cell) != "PASS":
            return f"cell {cell}={fields.get(cell)}"
    if fields.get("critical") != "SKIP":
        return f"criticality cell should be SKIP over the 4096-cover budget, got {fields.get('critical')}"
    if rho > potential_threshold(i, j):
        return f"reference rho {rho} is above the threshold, yet the cell says PASS"
    return None


def check_potential(out: str, rho: int, argmin: list[int]) -> str | None:
    """``potential`` on a random graph against the oracle's minimum and argmin."""
    lines = out.splitlines()
    if len(lines) != 3 or not lines[1].startswith("rho ") or not lines[2].startswith("argmin"):
        return f"unexpected potential output {out.strip()[:60]!r}"
    got_rho = int(lines[1].split()[1])
    got_set = [int(v) for v in lines[2].split()[1:]]
    if got_rho != rho:
        return f"rho {got_rho} differs from the reference {rho}"
    if got_set != argmin:
        return f"argmin {got_set} differs from the reference {argmin}"
    return None


def check_sparsity(
    out: str, i: int, j: int, edges: list[tuple[int, int]], violation: int | None
) -> str | None:
    """``sparsity`` against the reference scan, recounting any reported violation."""
    lines = out.splitlines()
    if violation is None:
        return None if lines == ["GUARANTEE"] else f"expected GUARANTEE, got {out.strip()!r}"
    if len(lines) != 2 or lines[0] != "NO GUARANTEE" or not lines[1].startswith("violation "):
        return f"expected NO GUARANTEE with a violation, got {out.strip()!r}"
    members = {int(v) for v in lines[1].split()[1:]}
    if within_bound(i, j, len(members), internal_edges(edges, members)):
        return f"reported violation {sorted(members)} satisfies the inequality"
    if sorted(members) != mask_members(violation):
        return f"violation {sorted(members)} is not the first, {mask_members(violation)}"
    return None
