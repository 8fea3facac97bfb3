"""Component extraction and the structural characterizations of stability.

Threshold-2: a configuration is stable iff
  1. every state-1 monochromatic component and every chessboard component is a
     rectangle, and no monochromatic component is an almost-wraparound
     rectangle (a rectangle spanning a cyclic dimension of length >= 3 minus
     one cell);
  2. every cell outside those components has state 0;
  3. distinct components are at distance >= 2, and >= 3 whenever either one is
     monochromatic;
  4. no cell outside all components is adjacent to two state-0 chessboard
     cells (which toggle to 1 in unison and would activate it).

Majority: a configuration is stable iff its cells split into fixed state-0
cells (P0), fixed state-1 cells (P1), toggling chessboard cells (P2) and
toggling width-2 zebra wraparound bands (P3), subject to local adjacency
requirements R1-R5.  Such a split exists on every configuration with no
unstable cell, so `majority_structure_check` tests only that and does not
build the partition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from .grid import (
    MAJORITY,
    Cell,
    TorusConfig,
    is_stable,
    neighbor_sum,
    shifted,
    von_neumann,
    von_neumann_offsets,
)

MONO = "mono"
CHESS = "chess"


@dataclass(frozen=True)
class Rect:
    """A torus rectangle given by cyclic coordinate intervals.

    `row0`/`col0` are the interval starts; `height`/`width` their lengths.
    A full-cycle projection is stored as starting at 0 with full length.
    """

    m: int
    n: int
    row0: int
    height: int
    col0: int
    width: int

    @property
    def almost_wraparound(self) -> bool:
        # One coordinate interval is the full cycle minus a single element.
        # On a 2-cycle that element's two neighbors are one cell, so the
        # uncovered line never activates and the clause does not apply.
        return (self.m >= 3 and self.height == self.m - 1) or (
            self.n >= 3 and self.width == self.n - 1
        )

    def rows(self) -> list[int]:
        return [(self.row0 + i) % self.m for i in range(self.height)]

    def cols(self) -> list[int]:
        return [(self.col0 + j) % self.n for j in range(self.width)]

    def __contains__(self, cell: Cell) -> bool:
        i = (cell[0] - self.row0) % self.m
        j = (cell[1] - self.col0) % self.n
        return i < self.height and j < self.width

    def size(self) -> int:
        return self.height * self.width


@dataclass
class Component:
    """A connected cell set with a kind tag and optional rectangle metadata."""

    kind: str  # MONO or CHESS
    cells: set[Cell]
    rect: Optional[Rect] = field(default=None)
    # True when the set contains an adjacent same-state pair, which violates
    # the alternation requirement of chessboard components.
    conflicted: bool = False


def _components(cells: set[Cell], neighbors: Callable[[Cell], list[Cell]]) -> list[set[Cell]]:
    """Connected components of a cell set under a neighbor relation.

    Seeds are popped from a copy of the set and each component is walked
    breadth-first, so the list order follows the set's iteration order.
    """
    remaining = set(cells)
    out = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        queue = deque([seed])
        while queue:
            c = queue.popleft()
            for nb in neighbors(c):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    queue.append(nb)
        out.append(comp)
    return out


def _cyclic_interval(values: set[int], size: int) -> Optional[tuple[int, int]]:
    """Recognize a set of residues as a cyclic interval; returns (start, length).

    A full cycle is reported as (0, size).  Returns None if the set is not an
    interval.
    """
    if not values:
        return None
    if len(values) == size:
        return (0, size)
    # An interval has exactly one value whose predecessor is absent: its start.
    starts = [v for v in values if (v - 1) % size not in values]
    if len(starts) != 1:
        return None
    return (starts[0], len(values))


def as_rect(m: int, n: int, cells: set[Cell]) -> Optional[Rect]:
    """The cell set as a Rect, or None if it is not a torus rectangle."""
    rows = {i for i, _ in cells}
    cols = {j for _, j in cells}
    ri = _cyclic_interval(rows, m)
    ci = _cyclic_interval(cols, n)
    if ri is None or ci is None:
        return None
    if len(cells) != len(rows) * len(cols):
        return None
    return Rect(m, n, ri[0], ri[1], ci[0], ci[1])


def mono_components(cfg: TorusConfig) -> list[Component]:
    """Connected components of state-1 cells having at least 2 cells."""
    m, n = cfg.shape
    cells = {(int(i), int(j)) for i, j in zip(*np.nonzero(cfg.a))}
    out = []
    for comp in _components(cells, partial(von_neumann, m, n)):
        if len(comp) >= 2:
            out.append(Component(MONO, comp, rect=as_rect(m, n, comp)))
    return out


def chess_components(cfg: TorusConfig) -> list[Component]:
    """Maximal chessboard components: the 2-core of the alternation graph
    (edges between adjacent cells of differing state), split into its
    connected pieces.

    The core is what is left after repeatedly peeling cells with fewer than
    two alternation edges.  Every piece keeps all alternation edges of its
    cells, so no piece peels further.  The pieces are listed in the reverse
    of the order in which they are found, and they are found by popping
    seeds from the set of core cells; that set is built as the set of all
    cells with the peeled cells discarded one by one, so the list order
    follows its iteration order.
    """
    m, n = cfg.shape
    a = cfg.a
    offsets = von_neumann_offsets(m, n)
    degree = np.zeros((m, n), dtype=np.uint8)
    for di, dj in offsets:
        degree += a != shifted(a, di, dj)
    # Peel on flat indices; the neighbor of cell i * n + j at an offset is
    # row_base[i] + col[j].  A cell without alternation edges changes no
    # degree when peeled, so those go at once and the queue visits the rest.
    states = a.tobytes()
    deg = bytearray(degree.tobytes())
    peeled = bytearray((degree == 0).tobytes())
    tables = [
        ([(i + di) % m * n for i in range(m)], [(j + dj) % n for j in range(n)])
        for di, dj in offsets
    ]
    queue = np.flatnonzero(degree == 1).tolist()
    while queue:
        c = queue.pop()
        if peeled[c]:
            continue
        peeled[c] = 1
        i, j = divmod(c, n)
        for row_base, col in tables:
            nb = row_base[i] + col[j]
            if not peeled[nb] and states[nb] != states[c]:
                deg[nb] -= 1
                if deg[nb] < 2:
                    queue.append(nb)
    if 0 not in peeled:
        return []

    # The list order follows this set's table layout, which the
    # comprehension, the copy and the one-by-one discards fix (`-=` may not).
    core = set({(i, j) for i in range(m) for j in range(n)})
    for c in np.flatnonzero(np.frombuffer(peeled, dtype=np.uint8)).tolist():
        core.discard(divmod(c, n))
    state = a.tolist()
    nbrs = {c: von_neumann(m, n, c) for c in core}

    def alt_neighbors(c: Cell) -> list[Cell]:
        s = state[c[0]][c[1]]
        return [nb for nb in nbrs[c] if state[nb[0]][nb[1]] != s]

    final: list[Component] = []
    for piece in reversed(_components(core, alt_neighbors)):
        conflict = any(
            state[p][q] == state[i][j]
            for i, j in piece
            for p, q in nbrs[i, j]
            if (p, q) in piece
        )
        final.append(Component(CHESS, piece, rect=as_rect(m, n, piece), conflicted=conflict))
    return final


def component_distance(m: int, n: int, a: Iterable[Cell], b: Iterable[Cell]) -> int:
    """Torus Manhattan distance between two cell sets (multi-source BFS)."""
    aset = set(a)
    bset = set(b)
    if aset & bset:
        return 0
    dist = dict.fromkeys(aset, 0)
    queue = deque(aset)
    while queue:
        c = queue.popleft()
        for nb in von_neumann(m, n, c):
            if nb in bset:
                return dist[c] + 1
            if nb not in dist:
                dist[nb] = dist[c] + 1
                queue.append(nb)
    raise ValueError("disconnected torus? unreachable")


def _interval_gap(a0: int, alen: int, b0: int, blen: int, size: int) -> int:
    """Cyclic distance between two coordinate intervals (0 when they meet,
    as they always do when one is the full cycle)."""
    if (b0 - a0) % size < alen or (a0 - b0) % size < blen:
        return 0
    fwd = (b0 - (a0 + alen)) % size
    bwd = (a0 - (b0 + blen)) % size
    return min(fwd, bwd) + 1


def rect_distance(a: Rect, b: Rect) -> int:
    """Torus Manhattan distance between two rectangles (0 when they
    overlap): the sum of the per-axis cyclic interval gaps, equal to
    `component_distance` on their cell sets."""
    return _interval_gap(a.row0, a.height, b.row0, b.height, a.m) + _interval_gap(
        a.col0, a.width, b.col0, b.width, a.n
    )


@dataclass
class Verdict:
    """Outcome of `thr2_structure_check`, with a concrete witness on failure."""

    ok: bool
    witness_kind: Optional[str] = None
    witness_cells: list[Cell] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "check": "thr2-structure",
            "result": "StableStructured" if self.ok else "Violation",
            "witness_cells": [list(c) for c in sorted(self.witness_cells)],
            "witness_kind": self.witness_kind,
        }


def thr2_structure_check(cfg: TorusConfig) -> Verdict:
    """Check the Threshold-2 structural requirements; witness on violation."""
    m, n = cfg.shape
    xs = mono_components(cfg)
    for comp in xs:
        if comp.rect is None:
            return Verdict(False, "non-rectangle-mono", sorted(comp.cells)[:8])
        if comp.rect.almost_wraparound:
            return Verdict(False, "almost-wraparound-mono", sorted(comp.cells)[:8])
    ys = chess_components(cfg)
    for comp in ys:
        if comp.conflicted:
            return Verdict(False, "non-alternating-chess", sorted(comp.cells)[:8])
        if comp.rect is None:
            return Verdict(False, "non-rectangle-chess", sorted(comp.cells)[:8])

    comps = xs + ys
    covered = np.zeros((m, n), dtype=bool)
    chess_zero = np.zeros((m, n), dtype=np.uint8)
    for comp in comps:
        rows, cols = zip(*comp.cells)
        covered[rows, cols] = True
        if comp.kind == CHESS:
            chess_zero[rows, cols] = cfg.a[rows, cols] == 0
    stray = np.argwhere((cfg.a == 1) & ~covered)[:8].tolist()
    if stray:
        return Verdict(False, "state-1-in-Z", [tuple(c) for c in stray])

    # Phase requirement: a cell outside all components must not be adjacent to
    # two state-0 chessboard cells; those toggle to 1 in unison and would
    # activate it two steps later.  The witness is the first such cell in
    # row-major order and its first two such neighbors in von Neumann order.
    hot_count = neighbor_sum(chess_zero, von_neumann_offsets(m, n))
    in_phase = np.flatnonzero((hot_count >= 2) & ~covered)
    if len(in_phase):
        cell = divmod(int(in_phase[0]), n)
        hot = [nb for nb in von_neumann(m, n, cell) if chess_zero[nb]]
        return Verdict(False, "in-phase-chess-neighbors", [cell] + hot[:2])

    # Every component is a rectangle here, so distances are rectangle gaps.
    for i, ci in enumerate(comps):
        for cj in comps[i + 1 :]:
            need = 3 if MONO in (ci.kind, cj.kind) else 2
            if rect_distance(ci.rect, cj.rect) < need:
                w = sorted(ci.cells)[:2] + sorted(cj.cells)[:2]
                return Verdict(False, "components-too-close", w)
    return Verdict(True)


def majority_structure_check(cfg: TorusConfig) -> bool:
    """True iff the configuration is Majority stable.

    The characterization of the module docstring holds on every
    configuration with no unstable cell, so only that test can reject.
    """
    return is_stable(cfg, MAJORITY)
