"""Generators for the five critical families and their non-colorable covers.

Numbering convention: path/cycle vertices come first in index order, then
attachment vertices in attachment order, so edge ids (and hence the cover's
parity indexing) are reproducible. Every flag contributes one even and one odd
matching, first edge even; whichever side its base picks, exactly one of the
two instances conflicts, which is what drives all five non-colorability
arguments. Each builder recounts the graph it made and refuses to return an
instance whose (n, e) disagree with the closed-form predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import Cover, Parity
from .graph import DefectParams, Multigraph, _check_vertex

FAMILIES = ("zeroj", "large", "mid", "iplusone", "equal")

_E = Parity.EVEN
_O = Parity.ODD


@dataclass(frozen=True)
class FamilyInstance:
    """A generated critical graph, its bad cover, and the predicted counts."""

    family: str
    i: int
    j: int
    m: int
    graph: Multigraph
    bad_cover: Cover
    predicted_n: int
    predicted_e: int

    @property
    def params(self) -> DefectParams:
        return DefectParams(self.i, self.j)


class CountMismatch(RuntimeError):
    """A builder produced counts that contradict the closed-form predictions."""


def attach_flag(g: Multigraph, base: int) -> tuple[Multigraph, int]:
    """Add a flag at base: one new vertex joined to base by two parallel edges."""
    _check_vertex(base, g.n)
    u = g.n
    return Multigraph(g.n + 1, g.edges + ((base, u), (base, u))), u


def attach_weak_flag(g: Multigraph, base: int, weight: int) -> Multigraph:
    """Add a weak flag of the given weight at base.

    New vertices: a hub x carrying ``weight`` flags, and a degree-2 vertex y
    joined to x and to base by single edges. Edge order: (x, y), (y, base),
    then the flag digons. Adds weight + 2 vertices and 2*weight + 2 edges.
    """
    _check_vertex(base, g.n)
    if weight < 1:
        raise ValueError("weak flag weight must be at least 1")
    x, y = g.n, g.n + 1
    g = Multigraph(g.n + 2, g.edges + ((x, y), (y, base)))
    for _ in range(weight):
        g, _ = attach_flag(g, x)
    return g


def _flags(g: Multigraph, parities: list[Parity], counts: list[tuple[int, int]]) -> Multigraph:
    """g with count flags at base for each (base, count) of counts, in order,
    and each flag's parities appended to parities, first edge even: the one
    statement of the convention above."""
    for base, count in counts:
        for _ in range(count):
            g, _ = attach_flag(g, base)
            parities += [_E, _O]
    return g


def _finish(
    family: str,
    i: int,
    j: int,
    m: int,
    g: Multigraph,
    parities: list[Parity],
    predicted_n: int,
    predicted_e: int,
) -> FamilyInstance:
    if (g.n, len(g.edges)) != (predicted_n, predicted_e):
        raise CountMismatch(
            f"{family}(i={i}, j={j}, m={m}) built n={g.n}, e={len(g.edges)} "
            f"but the closed forms predict n={predicted_n}, e={predicted_e}"
        )
    if len(parities) != len(g.edges):
        raise CountMismatch(f"{family}: cover indexes {len(parities)} of {len(g.edges)} edges")
    return FamilyInstance(family, i, j, m, g, Cover(tuple(parities)), predicted_n, predicted_e)


def build_zeroj(j: int, m: int) -> FamilyInstance:
    """(0, j)-critical: an (m+1)-cycle at v0 plus j triangles hung off v0.

    Simple for m >= 2 (the m = 1 cycle degenerates to a digon). Bad cover:
    triangle edges u-x and u-y odd, x-y even, cycle edges v_g v_{g+1} odd
    except the closing edge, everything else even.
    """
    if j < 1:
        raise ValueError("zeroj needs j >= 1")
    if m < 1:
        raise ValueError("zeroj needs m >= 1")
    cycle = [(v, v + 1) for v in range(m)] + [(m, 0)]
    g = Multigraph(m + 1, tuple(cycle))
    parities = [_O] * m + [_E]
    for _ in range(j):
        x, y, u = g.n, g.n + 1, g.n + 2
        g = Multigraph(g.n + 3, g.edges + ((x, y), (u, x), (u, y), (u, 0)))
        parities += [_E, _O, _O, _E]
    return _finish("zeroj", 0, j, m, g, parities, 3 * j + m + 1, 3 * j + m + 1 + j)


def build_large(i: int, j: int, m: int) -> FamilyInstance:
    """(i, j)-critical for j >= 2i+1: a path v0..vm,v with flags everywhere.

    j flags at the far end v, i+1 at v0, i at each interior vertex. Bad cover:
    path edges odd except the last one into v, flags one even one odd.
    """
    if i < 1:
        raise ValueError("large needs i >= 1")
    if j < 2 * i + 1:
        raise ValueError("large needs j >= 2i+1")
    if m < 0:
        raise ValueError("large needs m >= 0")
    g = Multigraph(m + 2, tuple([(v, v + 1) for v in range(m + 1)]))
    parities = [_O] * m + [_E]
    g = _flags(g, parities, [(m + 1, j), (0, i + 1)] + [(h, i) for h in range(1, m + 1)])
    n = (i + 1) * (m + 1) + 2 + j
    return _finish("large", i, j, m, g, parities, n, (2 * i + 1) * (m + 1) + 2 + 2 * j)


def build_mid(i: int, j: int, m: int) -> FamilyInstance:
    """(i, j)-critical for i+2 <= j <= 2i: a path v0..v_{2m} flagged at even spots.

    j flags at both ends, j-1 at each even interior vertex. Bad cover: path
    edges alternate even/odd starting even, flags one even one odd.
    """
    if i < 1 or not i + 2 <= j <= 2 * i:
        raise ValueError("mid needs i+2 <= j <= 2i (so i >= 2)")
    if m < 1:
        raise ValueError("mid needs m >= 1")
    g = Multigraph(2 * m + 1, tuple([(v, v + 1) for v in range(2 * m)]))
    parities = [_E if h % 2 == 0 else _O for h in range(2 * m)]
    g = _flags(g, parities, [(0, j)] + [(2 * h, j - 1) for h in range(1, m)] + [(2 * m, j)])
    return _finish("mid", i, j, m, g, parities, (j + 1) * m + 2 + j, 2 * j * m + 2 * j + 2)


def build_iplusone(i: int, m: int) -> FamilyInstance:
    """(i, i+1)-critical: a path dressed with weight-(i+1) weak flags.

    i+1 weak flags at v0, i at each of v1..vm, and i+1 plain flags at the far
    end v_{m+1}. Bad cover: digons one even one odd, the remaining weak-flag
    edges even, path edges odd except the last one.
    """
    if i < 1:
        raise ValueError("iplusone needs i >= 1")
    if m < 0:
        raise ValueError("iplusone needs m >= 0")
    g = Multigraph(m + 2, tuple([(v, v + 1) for v in range(m + 1)]))
    parities = [_O] * m + [_E]
    for base, count in [(0, i + 1)] + [(h, i) for h in range(1, m + 1)]:
        for _ in range(count):
            g = attach_weak_flag(g, base, i + 1)
            parities += [_E, _E] + [_E, _O] * (i + 1)
    g = _flags(g, parities, [(m + 1, i + 1)])
    n = (m + 1) * i * i + (3 * m + 4) * i + i + m + 6
    e = 2 * (m + 1) * i * i + 4 * (m + 2) * i + m + 7
    return _finish("iplusone", i, i + 1, m, g, parities, n, e)


def build_equal(i: int, m: int) -> FamilyInstance:
    """(i, i)-critical: a 2m-cycle with i flags at every even vertex.

    For m = 1 the cycle is a digon. Bad cover: the closing cycle edge odd,
    every other cycle edge even, flags one even one odd.
    """
    if i < 1:
        raise ValueError("equal needs i >= 1")
    if m < 1:
        raise ValueError("equal needs m >= 1")
    cycle = [(v, v + 1) for v in range(2 * m - 1)] + [(2 * m - 1, 0)]
    g = Multigraph(2 * m, tuple(cycle))
    parities = [_E] * (2 * m - 1) + [_O]
    g = _flags(g, parities, [(2 * h, i) for h in range(m)])
    return _finish("equal", i, i, m, g, parities, (i + 2) * m, 2 * m + 2 * i * m)


def build_family(family: str, i: int | None, j: int | None, m: int | None) -> FamilyInstance:
    """Dispatch on the family tag, filling in the defect pair it implies."""
    if m is None:
        raise ValueError("every family needs m")
    if family == "zeroj":
        if j is None:
            raise ValueError("zeroj needs j")
        if i not in (None, 0):
            raise ValueError("zeroj fixes i = 0")
        return build_zeroj(j, m)
    if family == "large":
        if i is None or j is None:
            raise ValueError("large needs i and j")
        return build_large(i, j, m)
    if family == "mid":
        if i is None or j is None:
            raise ValueError("mid needs i and j")
        return build_mid(i, j, m)
    if family == "iplusone":
        if i is None:
            raise ValueError("iplusone needs i")
        if j not in (None, i + 1):
            raise ValueError("iplusone fixes j = i + 1")
        return build_iplusone(i, m)
    if family == "equal":
        if i is None:
            raise ValueError("equal needs i")
        if j not in (None, i):
            raise ValueError("equal fixes j = i")
        return build_equal(i, m)
    raise ValueError(f"unknown family {family!r}; choose from {', '.join(FAMILIES)}")
