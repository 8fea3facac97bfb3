"""Component extraction and the structural characterizations of stability.

Threshold-2: a configuration is stable iff
  1. every state-1 monochromatic component and every chessboard component is a
     rectangle, and no monochromatic component is an almost-wraparound
     rectangle (a rectangle spanning a full cyclic dimension minus one cell);
  2. every cell outside those components has state 0;
  3. distinct components are at distance >= 2, and >= 3 whenever either one is
     monochromatic;
  4. no cell outside all components is adjacent to two state-0 chessboard
     cells (which toggle to 1 in unison and would activate it).

Majority: a configuration is stable iff its cells admit a partition into
0-monochromatic fixed sets, 1-monochromatic fixed sets, toggling chessboard
sets and toggling width-2 zebra wraparound bands, subject to the local
adjacency requirements checked by `majority_structure_check`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .grid import (
    MAJORITY,
    Cell,
    TorusConfig,
    classify_cells,
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
    def full_rows(self) -> bool:
        return self.height == self.m

    @property
    def full_cols(self) -> bool:
        return self.width == self.n

    @property
    def almost_wraparound(self) -> bool:
        # One coordinate interval is the full cycle minus a single element.
        return self.height == self.m - 1 or self.width == self.n - 1

    def rows(self) -> list[int]:
        return [(self.row0 + i) % self.m for i in range(self.height)]

    def cols(self) -> list[int]:
        return [(self.col0 + j) % self.n for j in range(self.width)]

    def cells(self) -> set[Cell]:
        return {(i, j) for i in self.rows() for j in self.cols()}

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
    state: Optional[int] = None  # for MONO components
    rect: Optional[Rect] = field(default=None)
    # True when the set contains an adjacent same-state pair, which violates
    # the alternation requirement of chessboard components.
    conflicted: bool = False


def _components(m: int, n: int, cells: set[Cell]) -> list[set[Cell]]:
    """4-connected components of a cell set on the torus."""
    remaining = set(cells)
    out = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        queue = deque([seed])
        while queue:
            c = queue.popleft()
            for nb in von_neumann(m, n, c):
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
    present = [v in values for v in range(size)]
    # Count maximal runs of present values, treating the array cyclically.
    transitions = sum(1 for v in range(size) if present[v] and not present[(v - 1) % size])
    if transitions != 1:
        return None
    start = next(v for v in range(size) if present[v] and not present[(v - 1) % size])
    return (start, len(values))


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


def mono_components(cfg: TorusConfig, beta: int) -> list[Component]:
    """Connected components of state-beta cells having at least 2 cells."""
    m, n = cfg.shape
    cells = {(int(i), int(j)) for i, j in zip(*np.nonzero(cfg.a == beta))}
    out = []
    for comp in _components(m, n, cells):
        if len(comp) >= 2:
            out.append(Component(MONO, comp, state=beta, rect=as_rect(m, n, comp)))
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

    def alt_neighbors(cells: set[Cell], c: Cell) -> list[Cell]:
        s = state[c[0]][c[1]]
        return [nb for nb in nbrs[c] if nb in cells and state[nb[0]][nb[1]] != s]

    def alt_pieces(cells: set[Cell]) -> list[set[Cell]]:
        remaining = set(cells)
        out = []
        while remaining:
            seed = remaining.pop()
            piece = {seed}
            queue = deque([seed])
            while queue:
                c = queue.popleft()
                for nb in alt_neighbors(remaining, c):
                    remaining.discard(nb)
                    piece.add(nb)
                    queue.append(nb)
            out.append(piece)
        return out

    final: list[Component] = []
    for piece in reversed(alt_pieces(core)):
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
    """Outcome of a structure check, with a concrete witness on failure."""

    ok: bool
    check: str
    witness_kind: Optional[str] = None
    witness_cells: list[Cell] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "check": self.check,
            "result": "StableStructured" if self.ok else "Violation",
            "witness_cells": [list(c) for c in sorted(self.witness_cells)],
            "witness_kind": self.witness_kind,
        }


def thr2_structure_check(cfg: TorusConfig) -> Verdict:
    """Check the Threshold-2 structural requirements; witness on violation."""
    m, n = cfg.shape
    xs = mono_components(cfg, 1)
    for comp in xs:
        if comp.rect is None:
            return Verdict(False, "thr2-structure", "non-rectangle-mono", sorted(comp.cells)[:8])
        if comp.rect.almost_wraparound:
            return Verdict(
                False, "thr2-structure", "almost-wraparound-mono", sorted(comp.cells)[:8]
            )
    ys = chess_components(cfg)
    for comp in ys:
        if comp.conflicted:
            return Verdict(
                False, "thr2-structure", "non-alternating-chess", sorted(comp.cells)[:8]
            )
        if comp.rect is None:
            return Verdict(False, "thr2-structure", "non-rectangle-chess", sorted(comp.cells)[:8])

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
        return Verdict(False, "thr2-structure", "state-1-in-Z", [tuple(c) for c in stray])

    # Phase requirement: a cell outside all components must not be adjacent to
    # two state-0 chessboard cells; those toggle to 1 in unison and would
    # activate it two steps later.  The witness is the first such cell in
    # row-major order and its first two such neighbors in von Neumann order.
    hot_count = neighbor_sum(chess_zero, von_neumann_offsets(m, n))
    in_phase = np.flatnonzero((hot_count >= 2) & ~covered)
    if len(in_phase):
        cell = divmod(int(in_phase[0]), n)
        hot = [nb for nb in von_neumann(m, n, cell) if chess_zero[nb]]
        return Verdict(False, "thr2-structure", "in-phase-chess-neighbors", [cell] + hot[:2])

    # Every component is a rectangle here, so distances are rectangle gaps.
    for i, ci in enumerate(comps):
        for cj in comps[i + 1 :]:
            need = 3 if MONO in (ci.kind, cj.kind) else 2
            if rect_distance(ci.rect, cj.rect) < need:
                w = sorted(ci.cells)[:2] + sorted(cj.cells)[:2]
                return Verdict(False, "thr2-structure", "components-too-close", w)
    return Verdict(True, "thr2-structure")


def detect_zebras(cfg: TorusConfig, width: int = 2) -> list[Rect]:
    """All width-k zebra wraparound rectangles, in both orientations.

    A zebra band wraps a full cyclic dimension; along the wrapping direction
    each line is monochromatic, and across it each line alternates.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    m, n = cfg.shape
    a = cfg.a
    out: list[Rect] = []
    seen: set[frozenset[Cell]] = set()

    def emit(rect: Rect) -> None:
        key = frozenset(rect.cells())
        if key not in seen:
            seen.add(key)
            out.append(rect)

    # m x width bands: columns c..c+width-1; each row of the band monochromatic,
    # each column a chessboard set (requires even m for the vertical cycle).
    if m % 2 == 0 and width <= n:
        for c in range(n):
            cols = [(c + d) % n for d in range(width)]
            band = a[:, cols]
            if (band == band[:, :1]).all() and (band[1:] != band[:-1]).all() and band[0, 0] != band[-1, 0]:
                emit(Rect(m, n, 0, m, c, width))
    # width x n bands, transposed reading.
    if n % 2 == 0 and width <= m:
        for r in range(m):
            rows = [(r + d) % m for d in range(width)]
            band = a[rows, :]
            if (band == band[:1, :]).all() and (band[:, 1:] != band[:, :-1]).all() and band[0, 0] != band[0, -1]:
                emit(Rect(m, n, r, width, 0, n))
    return out


@dataclass
class MajorityPartition:
    """The four-part partition underlying Majority stability."""

    p0: list[set[Cell]]
    p1: list[set[Cell]]
    p2: list[set[Cell]]
    p3: list[set[Cell]]

    def parts(self) -> list[tuple[int, set[Cell]]]:
        out = []
        for beta, group in enumerate((self.p0, self.p1, self.p2, self.p3)):
            out.extend((beta, c) for c in group)
        return out


def majority_partition(cfg: TorusConfig) -> Optional[MajorityPartition]:
    """Build the canonical partition, or None if any cell is unstable.

    P0/P1 are the maximal connected fixed monochromatic sets, P3 the toggling
    width-2 zebras, and P2 the maximal connected toggling sets outside P3.
    """
    m, n = cfg.shape
    kinds = classify_cells(cfg, MAJORITY)
    if (kinds == 2).any():
        return None
    fixed = kinds == 0

    p0: list[set[Cell]] = []
    p1: list[set[Cell]] = []
    for beta in (0, 1):
        cells = {
            (int(i), int(j)) for i, j in zip(*np.nonzero(fixed & (cfg.a == beta)))
        }
        (p0 if beta == 0 else p1).extend(_components(m, n, cells))

    toggling = {(int(i), int(j)) for i, j in zip(*np.nonzero(kinds == 1))}
    p3: list[set[Cell]] = []
    p3_cells: set[Cell] = set()
    for rect in detect_zebras(cfg, width=2):
        cells = rect.cells()
        if cells <= toggling and not (cells & p3_cells):
            p3.append(cells)
            p3_cells |= cells
    p2 = _components(m, n, toggling - p3_cells)
    return MajorityPartition(p0, p1, p2, p3)


def majority_structure_check(cfg: TorusConfig) -> bool:
    """True iff the canonical partition exists and satisfies requirements 1-5."""
    m, n = cfg.shape
    a = cfg.a
    part = majority_partition(cfg)
    if part is None:
        return False

    owner: dict[Cell, tuple[int, int]] = {}
    groups = [part.p0, part.p1, part.p2, part.p3]
    for beta, group in enumerate(groups):
        for idx, cells in enumerate(group):
            for c in cells:
                owner[c] = (beta, idx)
    if len(owner) != m * n:
        return False

    def is_chessboard_set(cells: set[Cell]) -> bool:
        if len(cells) < 2:
            return False
        for c in cells:
            for nb in von_neumann(m, n, c):
                if nb in cells and a[nb] == a[c]:
                    return False
        return True

    # Requirement 1: part kinds.
    for cells in part.p0:
        if any(a[c] != 0 for c in cells):
            return False
    for cells in part.p1:
        if any(a[c] != 1 for c in cells):
            return False
    for cells in part.p2:
        if not is_chessboard_set(cells):
            return False
    # P3 members come from detect_zebras, so requirement 1 holds for them.

    # Requirement 2: for beta in {0,1,2}, no two same-collection sets adjacent.
    for beta in (0, 1, 2):
        for idx, cells in enumerate(groups[beta]):
            for c in cells:
                for nb in von_neumann(m, n, c):
                    ob, oi = owner[nb]
                    if ob == beta and oi != idx:
                        return False

    p2_union = set().union(*part.p2) if part.p2 else set()
    p0_union = set().union(*part.p0) if part.p0 else set()
    p1_union = set().union(*part.p1) if part.p1 else set()

    # Requirement 3: monochromatic cells with 3 (4) outside neighbors see
    # both (exactly two of each) chessboard states among them.
    for group in (part.p0, part.p1):
        for cells in group:
            for c in cells:
                outside = [nb for nb in von_neumann(m, n, c) if nb not in cells]
                if len(outside) < 3:
                    continue
                in_p2 = [nb for nb in outside if nb in p2_union]
                zeros = sum(1 for nb in in_p2 if a[nb] == 0)
                ones = sum(1 for nb in in_p2 if a[nb] == 1)
                if len(outside) == 3:
                    if zeros < 1 or ones < 1:
                        return False
                else:
                    if zeros != 2 or ones != 2:
                        return False

    # Requirement 4: chessboard cells adjacent to at most one P0 cell and at
    # most one P1 cell.
    for cells in part.p2:
        for c in cells:
            nbs = von_neumann(m, n, c)
            if sum(1 for nb in nbs if nb in p0_union) > 1:
                return False
            if sum(1 for nb in nbs if nb in p1_union) > 1:
                return False

    # Requirement 5: every zebra cell has an opposite-state neighbor in some
    # other toggling set (union reading of P2 and P3).
    for idx, cells in enumerate(part.p3):
        for c in cells:
            ok = False
            for nb in von_neumann(m, n, c):
                ob, oi = owner[nb]
                if ob in (2, 3) and (ob, oi) != (3, idx) and a[nb] != a[c]:
                    ok = True
                    break
            if not ok:
                return False
    return True
