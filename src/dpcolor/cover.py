"""Two-fold covers as per-edge parity vectors, vertex side choices, validity.

Each vertex owns a two-element list {poor, rich}; each edge instance carries a
perfect matching between the endpoint lists, fully determined by its parity:
an even matching joins equal sides (poor-poor and rich-rich), an odd one joins
opposite sides. The cover graph itself is never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from itertools import product
from typing import Iterator, Sequence

from .graph import BudgetError, DefectParams, FormatError, Multigraph, Toughness, _int_field, _lines

DEFAULT_MAX_COVERS = 2**24


class Parity(IntEnum):
    EVEN = 0
    ODD = 1

    @property
    def letter(self) -> str:
        return "E" if self is Parity.EVEN else "O"


class Side(IntEnum):
    RICH = 0
    POOR = 1

    @property
    def letter(self) -> str:
        return "R" if self is Side.RICH else "P"


# caps[v][side]: the most conflicts v may take on a side, indexed by the Side
# integer (RICH = 0, POOR = 1); a negative cap rules that side out
Caps = Sequence[tuple[int, int]]


_PARITY_FROM_LETTER = {"E": Parity.EVEN, "O": Parity.ODD}


@dataclass(frozen=True)
class Cover:
    """One parity per edge instance, indexed by edge id of the covered graph."""

    parities: tuple[Parity, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parities", tuple([Parity(p) for p in self.parities]))

    def letters(self) -> str:
        return "".join(p.letter for p in self.parities)


@dataclass(frozen=True)
class PhiMap:
    """One chosen side per vertex: the representative picked from each list."""

    sides: tuple[Side, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sides", tuple([Side(s) for s in self.sides]))

    def letters(self) -> str:
        return "".join(s.letter for s in self.sides)


def edge_conflicts(parity: Parity, side_u: Side, side_v: Side) -> bool:
    """Whether the matching joins the two chosen vertices.

    Even joins equal sides, odd joins opposite sides, so the instance
    conflicts exactly when parity XOR side_u XOR side_v vanishes.
    """
    return (int(parity) ^ int(side_u) ^ int(side_v)) == 0


def _check_cover(g: Multigraph, c: Cover) -> None:
    if len(c.parities) != len(g.edges):
        raise ValueError(f"cover indexes {len(c.parities)} edges, graph has {len(g.edges)}")


def _check_phi(g: Multigraph, phi: PhiMap) -> None:
    if len(phi.sides) != g.n:
        raise ValueError(f"map covers {len(phi.sides)} vertices, graph has {g.n}")


def conflict_degrees(g: Multigraph, c: Cover, phi: PhiMap) -> list[int]:
    """Per-vertex count of incident edge instances whose matching joins the chosen pair."""
    _check_cover(g, c)
    _check_phi(g, phi)
    conf = [0] * g.n
    for e, (u, v) in enumerate(g.edges):
        if edge_conflicts(c.parities[e], phi.sides[u], phi.sides[v]):
            conf[u] += 1
            conf[v] += 1
    return conf


def _checked(g: Multigraph, params: DefectParams, t: Toughness | None) -> list[tuple[int, int]]:
    """g's caps (_caps) under t, zero where t is None, once t is checked against g."""
    if t is None:
        t = Toughness.zero(g.n)
    t.check(params, g.n)
    return _caps(params, t)


def _caps(params: DefectParams, t: Toughness) -> list[tuple[int, int]]:
    """Per vertex v, (j - t_r(v), i - t_p(v)): its rich and poor caps, the one
    statement of the (i, j, t) cap rule."""
    return [(params.j - tr, params.i - tp) for tp, tr in zip(t.poor, t.rich)]


def is_valid_coloring(
    g: Multigraph,
    c: Cover,
    phi: PhiMap,
    params: DefectParams,
    t: Toughness | None = None,
) -> bool:
    """Whether phi is an (i, j, t)-coloring for this cover: every vertex takes
    at most its cap (_caps) on its chosen side, so a negative cap means that
    side is never valid."""
    caps = _checked(g, params, t)
    conf = conflict_degrees(g, c, phi)
    return all(k <= cap[side] for k, cap, side in zip(conf, caps, phi.sides))


def cover_from_index(num_edges: int, index: int) -> Cover:
    """The index-th cover in lexicographic order (edge 0 most significant, E < O)."""
    if not 0 <= index < (1 << num_edges):
        raise ValueError(f"cover index {index} out of range for {num_edges} edges")
    return Cover(tuple([(index >> (num_edges - 1 - e)) & 1 for e in range(num_edges)]))


def cover_index(c: Cover) -> int:
    k = 0
    for p in c.parities:
        k = (k << 1) | int(p)
    return k


def _check_covers(m: int, max_covers: int) -> None:
    """Refuse the 2^m covers of m edges beyond max_covers: the one statement of the budget."""
    if (1 << m) > max_covers:
        raise BudgetError(f"2^{m} covers exceed the limit of {max_covers}")


def all_covers(g: Multigraph, max_covers: int = DEFAULT_MAX_COVERS) -> Iterator[Cover]:
    """All 2^|E| covers in lexicographic parity order; refuses oversized graphs."""
    _check_covers(len(g.edges), max_covers)
    for bits in product((0, 1), repeat=len(g.edges)):
        yield Cover(bits)


def parse_cover(text: str) -> Cover:
    """Parse the cover format: the ``cover <m>`` header (_lines), then one
    ``p <edgeId> E|O`` line per edge."""
    m, rows = _lines(text, "cover", "m", "edge count")
    seen: dict[int, Parity] = {}
    for lineno, parts in rows:
        if parts[0] != "p" or len(parts) != 3:
            raise FormatError(f"line {lineno}: expected 'p <edgeId> E|O'")
        e = _int_field(parts[1], lineno, "edge id")
        if not 0 <= e < m:
            raise FormatError(f"line {lineno}: edge id out of range [0, {m})")
        if e in seen:
            raise FormatError(f"line {lineno}: duplicate parity for edge {e}")
        if parts[2] not in _PARITY_FROM_LETTER:
            raise FormatError(f"line {lineno}: parity must be 'E' or 'O', got {parts[2]!r}")
        seen[e] = _PARITY_FROM_LETTER[parts[2]]
    missing = [e for e in range(m) if e not in seen]
    if missing:
        raise FormatError(f"missing parity for edge(s) {missing}")
    return Cover(tuple([seen[e] for e in range(m)]))


def format_cover(c: Cover) -> str:
    lines = [f"cover {len(c.parities)}"]
    lines.extend(f"p {e} {p.letter}" for e, p in enumerate(c.parities))
    return "\n".join(lines) + "\n"


def load_cover(path: str) -> Cover:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_cover(fh.read())


def save_cover(path: str, c: Cover) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_cover(c))
