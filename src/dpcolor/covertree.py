"""The bit-parallel cover tree behind solver._kernel's all-cover scans of
graphs with up to solver._TREE_MAX_VERTICES vertices."""

from __future__ import annotations

from typing import Iterator, Sequence

from .cover import Caps
from .graph import Multigraph


class _CoverTree:
    """Every side map of g at once, over a depth-first tree of parity vectors.

    Map x puts vertex v on its poor side when bit v of x is set; a set of maps
    is one 2^n-bit int. Depth k decides edge k, E before O, so leaves come in
    lex order; it takes only the parity choices[k] fixes, if any, and only O
    where tie[k], the last earlier edge of its bundle (solver._kernel), took
    O. T[v][c] holds the maps with at least c conflicts at v over the
    decided edges, up to c = max cap + 2. Edge uw conflicts exactly on the
    maps where s_u XOR s_w equals its parity, so a node costs a few big-int
    operations per endpoint. While bad_covers is paused at a bad cover,
    deletions_colorable reads that leaf's masks.
    """

    def bad_covers(
        self,
        g: Multigraph,
        caps: Caps,
        bases: Sequence[int],
        choices: Sequence[Sequence[int]],
        tie: Sequence[int | None],
    ) -> Iterator[tuple[int, ...]]:
        n, self.edges, self.choices, self.tie = g.n, g.edges, choices, tie
        self.full = full = (1 << (1 << n)) - 1
        poor = []
        for v in range(n):
            half = 1 << v  # bit v of a map index: 2^v zeros, then 2^v ones, repeated
            poor.append(full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half))
        self.diff = [poor[u] ^ poor[w] for u, w in g.edges]
        # per vertex: poor maps, rich maps and the conflict count that breaks
        # each side's cap (0 for a side whose cap is negative)
        self.sides = [
            (p, full ^ p, max(cp + 1, 0), max(cr + 1, 0)) for p, (cr, cp) in zip(poor, caps)
        ]
        # per base, the counts that break its caps raised by one; a cap below
        # -1 stays negative, so its count stays 0 and is not a + 1
        self.raised = [(v, max(caps[v][1] + 2, 0), max(caps[v][0] + 2, 0)) for v in bases]
        self.T = [[full] + [0] * (max(kp, kr) + 1) for _, _, kp, kr in self.sides]
        self.start = full
        for ok in self._allowed():
            self.start &= ok
        self.bits = [0] * len(g.edges)
        # rest[k]: each vertex with d > 0 undecided edges at depth k, with its
        # masks and the counts that break its caps once d more conflicts come
        self.rest: list[list[tuple[int, int, int, int, int]]] = [[]]
        deg = [0] * n
        for u, w in reversed(g.edges):
            deg[u] += 1
            deg[w] += 1
            sides = zip(range(n), deg, self.sides)
            self.rest.insert(
                0, [(p, r, v, max(a - d, 0), max(b - d, 0)) for v, d, (p, r, a, b) in sides if d]
            )
        yield from self.walk(0, self.start)

    def _allowed(self) -> list[int]:
        """Per vertex, the maps within its caps over the decided edges."""
        T = self.T
        return [
            ~(p & T[v][a] | r & T[v][b]) & self.full for v, (p, r, a, b) in enumerate(self.sides)
        ]

    def walk(self, k: int, valid: int) -> Iterator[tuple[int, ...]]:
        if k == len(self.bits):
            if not valid:
                yield tuple(self.bits)
            return
        T = self.T
        if valid:
            # slack prune: a map within every cap with all of the remaining
            # edges counted as conflicts colors every cover of the subtree
            fits = valid
            for p, r, v, a, b in self.rest[k]:
                fits &= ~(p & T[v][a] | r & T[v][b])
                if not fits:
                    break
            else:
                return
        u, w = self.edges[k]
        (pu, ru, au, bu), (pw, rw, aw, bw) = self.sides[u], self.sides[w]
        tu, tw = T[u], T[w]
        masks = (self.full ^ self.diff[k], self.diff[k])
        tie = self.tie[k]
        for bit in (1,) if tie is not None and self.bits[tie] else self.choices[k]:
            c = masks[bit]
            T[u] = nu = [tu[0]] + [x | y & c for x, y in zip(tu[1:], tu)]
            T[w] = nw = [tw[0]] + [x | y & c for x, y in zip(tw[1:], tw)]
            self.bits[k] = bit
            over = pu & nu[au] | ru & nu[bu] | pw & nw[aw] | rw & nw[bw]
            yield from self.walk(k + 1, valid & ~over)
        T[u], T[w] = tu, tw

    def deletions_colorable(self, bits: tuple[int, ...]) -> bool:
        """Whether each g - e, and g with each base's caps raised by one, is
        colorable under the leaf's cover restricted to it.

        Deleting e = uw lowers the counts at u and w by one on e's conflict
        mask c; raising a base's caps reads its masks one count higher. Every
        other vertex keeps the maps it allows at the leaf.
        """
        T, allowed = self.T, self._allowed()
        for e, (u, w) in enumerate(self.edges):
            c = self.diff[e] if bits[e] else self.full ^ self.diff[e]
            maps = self.start
            for v, ok in enumerate(allowed):
                if v == u or v == w:
                    p, r, a, b = self.sides[v]
                    ok = ~(p & (T[v][a + 1] | T[v][a] & ~c) | r & (T[v][b + 1] | T[v][b] & ~c))
                maps &= ok
            if not maps:
                return False
        for base, a, b in self.raised:
            # not self.start, which holds the base's caps before they are raised
            p, r, _, _ = self.sides[base]
            maps = ~(p & T[base][a] | r & T[base][b]) & self.full
            for v, ok in enumerate(allowed):
                if v != base:
                    maps &= ok
            if not maps:
                return False
        return True
