"""Loop-free multigraphs with stable edge ids, toughness maps, and text I/O.

Vertices are dense 0-based integers. Parallel edges are distinct instances;
an edge's id is its position in the edge list, so a file defines ids by line
order and every instance can carry its own matching parity. All values here
are immutable: structural edits return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Iterator


class FormatError(ValueError):
    """Malformed graph or cover text; the message carries a 1-based line number."""


class BudgetError(RuntimeError):
    """An enumeration would exceed the configured size limit."""


def _check_vertices(n: int, max_vertices: int) -> None:
    """Refuse a graph of n vertices beyond max_vertices: the one statement of the vertex budget."""
    if n > max_vertices:
        raise BudgetError(f"graph has {n} vertices, limit is {max_vertices}")


def _check_vertex(v: int, n: int) -> None:
    """Refuse a vertex id outside 0..n-1: the one statement of the range rule."""
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range [0, {n})")


@dataclass(frozen=True)
class DefectParams:
    """The defect bounds (i, j): poor vertices tolerate i conflicts, rich ones j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        # index() refuses what is not an integer, as for Toughness and Multigraph
        if not 0 <= index(self.i) <= index(self.j):
            raise ValueError(f"need 0 <= i <= j, got ({self.i}, {self.j})")


@dataclass(frozen=True)
class Toughness:
    """Per-vertex cap tightening, scalar t(v) or refined pairs (t_p(v), t_r(v)).

    ``poor[v]`` is subtracted from the poor-side cap i, ``rich[v]`` from the
    rich-side cap j. A scalar map stores the same value on both sides; the
    ``is_refined`` flag records which kind was constructed, because the
    potential formulas accept only one kind per regime.
    """

    poor: tuple[int, ...]
    rich: tuple[int, ...]
    is_refined: bool = False

    def __post_init__(self) -> None:
        # index() refuses non-integers. tuple() of a list allocates the final size
        # at once; of a generator it resizes, and the freed tuples pile up in
        # CPython's per-size free lists
        object.__setattr__(self, "poor", tuple([index(x) for x in self.poor]))
        object.__setattr__(self, "rich", tuple([index(x) for x in self.rich]))
        if len(self.poor) != len(self.rich):
            raise ValueError("poor and rich vectors must have equal length")
        if any(x < 0 for x in self.poor + self.rich):
            raise ValueError("toughness values must be non-negative")
        if not self.is_refined and self.poor != self.rich:
            raise ValueError("scalar toughness must agree on both sides")

    @classmethod
    def scalar(cls, values: Iterable[int]) -> Toughness:
        vals = tuple(values)
        return cls(vals, vals, False)

    @classmethod
    def pairs(cls, pairs: Iterable[tuple[int, int]]) -> Toughness:
        ps = tuple(pairs)
        return cls([p for p, _ in ps], [r for _, r in ps], True)

    @classmethod
    def zero(cls, n: int) -> Toughness:
        return cls.scalar((0,) * n)

    @classmethod
    def zero_pairs(cls, n: int) -> Toughness:
        return cls((0,) * n, (0,) * n, True)

    @property
    def n(self) -> int:
        return len(self.poor)

    def check(self, params: DefectParams, n: int) -> None:
        """Validate length and the per-kind value ranges for use with (i, j)."""
        if self.n != n:
            raise ValueError(f"toughness covers {self.n} vertices, graph has {n}")
        if self.is_refined:
            if any(tp > params.i + 1 for tp in self.poor):
                raise ValueError(f"refined poor toughness must be <= i+1 = {params.i + 1}")
            if any(tr > params.j + 1 for tr in self.rich):
                raise ValueError(f"refined rich toughness must be <= j+1 = {params.j + 1}")
        elif any(t > params.j + 1 for t in self.rich):
            raise ValueError(f"scalar toughness must be <= j+1 = {params.j + 1}")


@dataclass(frozen=True)
class Multigraph:
    """A loop-free multigraph: vertex count plus an ordered list of edge instances."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # index() and a list, as for Toughness
        object.__setattr__(self, "edges", tuple([(index(u), index(v)) for u, v in self.edges]))
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {e} endpoint out of range [0, {self.n})")
            if u == v:
                raise ValueError(f"edge {e} is a loop at {u}; loops are not allowed")

    def degree(self, v: int) -> int:
        """Number of edge instances incident to v (a digon counts twice)."""
        _check_vertex(v, self.n)
        return sum((u == v) + (w == v) for u, w in self.edges)

    def delete_edge(self, e: int) -> Multigraph:
        """Copy without edge instance e; later ids shift down by one."""
        if not 0 <= e < len(self.edges):
            raise ValueError(f"edge id {e} out of range [0, {len(self.edges)})")
        return Multigraph(self.n, self.edges[:e] + self.edges[e + 1 :])

    def induced_subgraph(self, s: Iterable[int]) -> tuple[Multigraph, tuple[int, ...]]:
        """Subgraph on vertex set s, relabeled densely.

        Returns the subgraph and the mapping: new id k corresponds to old id
        ``mapping[k]``. Vertices are relabeled in ascending old-id order and
        edge instances keep their relative order.
        """
        keep = sorted(set(s))
        for v in keep:
            _check_vertex(v, self.n)
        new = {old: k for k, old in enumerate(keep)}
        edges = [(new[u], new[w]) for u, w in self.edges if u in new and w in new]
        return Multigraph(len(keep), tuple(edges)), tuple(keep)

    def is_connected(self) -> bool:
        """Single component; the empty graph counts as connected."""
        if self.n <= 1:
            return True
        adj = self.incidence()
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for u, _ in adj[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n

    def incidence(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge id) pairs, one entry per instance."""
        inc: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((v, e))
            inc[v].append((u, e))
        return inc


def _is_int(token: str) -> bool:
    """Whether token is an optional sign, then ASCII digits, as format_graph
    and format_cover write integers; int() alone also takes '1_0', spaces
    and other scripts' digits."""
    digits = token[1:] if token.startswith(("+", "-")) else token
    return digits.isascii() and digits.isdigit()


def _int_field(token: str, lineno: int, what: str) -> int:
    if not _is_int(token):
        raise FormatError(f"line {lineno}: {what} is not an integer: {token!r}")
    return int(token)


def _lines(
    text: str, keyword: str, arg: str, what: str
) -> tuple[int, Iterator[tuple[int, list[str]]]]:
    """The rules both line formats share: ``#`` starts a comment, blank lines
    are skipped, and the first line is the one ``<keyword> <arg>`` header,
    whose count (called what in errors) must be >= 0. Returns that count and
    the (1-based line number, fields) of each later line, checked for a
    second header only as they are taken, so errors come in line order."""
    split = [raw.split("#", 1)[0].split() for raw in text.splitlines()]
    lines = [(lineno, fields) for lineno, fields in enumerate(split, start=1) if fields]
    if not lines:
        raise FormatError(f"missing '{keyword} <{arg}>' header")
    lineno, fields = lines[0]
    if fields[0] != keyword:
        raise FormatError(f"line {lineno}: expected '{keyword} <{arg}>' before {fields[0]!r}")
    if len(fields) != 2:
        raise FormatError(f"line {lineno}: expected '{keyword} <{arg}>'")
    count = _int_field(fields[1], lineno, what)
    if count < 0:
        raise FormatError(f"line {lineno}: {what} must be non-negative")

    def rows() -> Iterator[tuple[int, list[str]]]:
        for lineno, fields in lines[1:]:
            if fields[0] == keyword:
                raise FormatError(f"line {lineno}: duplicate {keyword!r} header")
            yield lineno, fields

    return count, rows()


def parse_graph(text: str) -> tuple[Multigraph, Toughness | None]:
    """Parse the line-oriented graph format.

    The ``graph <n>`` header (_lines) is followed by ``e <u> <v>`` per edge
    instance (ids in order of appearance), and optionally ``t <v> <k>``
    (scalar toughness) or ``t2 <v> <tp> <tr>`` (refined) lines, never both
    kinds. Unset toughness defaults to 0.
    """
    n, rows = _lines(text, "graph", "n", "vertex count")
    edges: list[tuple[int, int]] = []
    scalar: dict[int, int] = {}
    refined: dict[int, tuple[int, int]] = {}

    for lineno, parts in rows:
        if parts[0] == "e":
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            u = _int_field(parts[1], lineno, "endpoint")
            v = _int_field(parts[2], lineno, "endpoint")
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"line {lineno}: endpoint out of range [0, {n})")
            if u == v:
                raise FormatError(f"line {lineno}: loop at vertex {u}")
            edges.append((u, v))
        elif parts[0] == "t":
            if refined:
                raise FormatError(f"line {lineno}: 't' after 't2'; one kind per file")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 't <v> <k>'")
            v = _int_field(parts[1], lineno, "vertex")
            k = _int_field(parts[2], lineno, "toughness")
            if not 0 <= v < n:
                raise FormatError(f"line {lineno}: vertex out of range [0, {n})")
            if k < 0:
                raise FormatError(f"line {lineno}: toughness must be non-negative")
            if v in scalar:
                raise FormatError(f"line {lineno}: duplicate toughness for vertex {v}")
            scalar[v] = k
        elif parts[0] == "t2":
            if scalar:
                raise FormatError(f"line {lineno}: 't2' after 't'; one kind per file")
            if len(parts) != 4:
                raise FormatError(f"line {lineno}: expected 't2 <v> <tp> <tr>'")
            v = _int_field(parts[1], lineno, "vertex")
            tp = _int_field(parts[2], lineno, "poor toughness")
            tr = _int_field(parts[3], lineno, "rich toughness")
            if not 0 <= v < n:
                raise FormatError(f"line {lineno}: vertex out of range [0, {n})")
            if tp < 0 or tr < 0:
                raise FormatError(f"line {lineno}: toughness must be non-negative")
            if v in refined:
                raise FormatError(f"line {lineno}: duplicate toughness for vertex {v}")
            refined[v] = (tp, tr)
        else:
            raise FormatError(f"line {lineno}: unknown directive {parts[0]!r}")
    g = Multigraph(n, tuple(edges))
    if refined:
        t: Toughness | None = Toughness.pairs(refined.get(v, (0, 0)) for v in range(n))
    elif scalar:
        t = Toughness.scalar(scalar.get(v, 0) for v in range(n))
    else:
        t = None
    return g, t


def format_graph(g: Multigraph, t: Toughness | None = None) -> str:
    """Render a graph (and optional toughness) in the parse_graph format."""
    lines = [f"graph {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges)
    if t is not None:
        if t.n != g.n:
            raise ValueError(f"toughness covers {t.n} vertices, graph has {g.n}")
        if t.is_refined:
            lines.extend(f"t2 {v} {t.poor[v]} {t.rich[v]}" for v in range(g.n))
        else:
            lines.extend(f"t {v} {t.poor[v]}" for v in range(g.n))
    return "\n".join(lines) + "\n"


def load_graph(path: str) -> tuple[Multigraph, Toughness | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def save_graph(path: str, g: Multigraph, t: Toughness | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g, t))
