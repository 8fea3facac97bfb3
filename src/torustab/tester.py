"""Query-counted testing of Threshold-2 stability.

Provides the query oracle with distinct-read accounting, the rectangulation
view sigma#, wraparound-consistency classification (per cell, the parity class
of the chessboard wraparound its row and its column can extend to, if any),
cross-shaped regions with their bounding boxes, interior/perimeter violation
predicates, the sublinear tester and the naive sampling baseline.

The tester is one-sided: it never rejects a stable configuration, and every
rejection carries a witness that can be re-checked against the configuration
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import (
    THR2,
    Cell,
    Rule,
    TorusConfig,
    classify_cells,
    cyclic_distance,
    double_step_cell,
    moore_offsets,
    threshold_step,
    von_neumann,
)
from .structure import CHESS, MONO, Rect, _interval_gap

# Sampling constants of the analysis, each multiplied by ceil(1/eps): Step 1
# samples A_ROWS rows and A_ROWS columns and A_CELLS cells on each line;
# Step 2 samples A_S cells and A_BOX interior cells of each of their boxes.
A_ROWS = 8
A_CELLS = 8
A_S = 8
A_BOX = 8


class QueryOracle:
    """Query access to a configuration with distinct-cell read accounting.

    Every first read of a cell costs one query; repeat reads are free.  A
    single oracle instance serves one tester run (mutable counter).  Reads
    are logged as integer keys i * n + j: `read` appends its one key to a
    list and `charge` appends an array of keys, so the log grows with the
    reads, never with mn.  The log is deduplicated when counted: `queries`
    sorts the keys logged since its last call and merges them into the
    sorted distinct keys it keeps in their place.

    `read` charges the cell it returns.  `gather` returns the states at index
    arrays without charging them, so a caller that screens many cells at once
    must `charge` exactly the cells its sequential read order would have read.
    """

    def __init__(self, cfg: TorusConfig) -> None:
        self.cfg = cfg
        self.m = cfg.m
        self.n = cfg.n
        self._flat = cfg.a.ravel()
        self._keys = np.empty(0, dtype=np.int64)
        self._log: list[np.ndarray] = []
        self._reads: list[int] = []
        self._all = False

    def _key(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return (rows % self.m) * self.n + cols % self.n

    def read(self, cell: Cell) -> int:
        key = cell[0] % self.m * self.n + cell[1] % self.n
        self._reads.append(key)
        return self._flat.item(key)

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The states at broadcast index arrays, taken mod (m, n); uncharged."""
        return self._flat.take(self._key(rows, cols))

    def charge(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Count the cells at index arrays of one shape, taken mod (m, n), as
        read: their keys join the log as one array."""
        self._log.append(self._key(rows, cols).ravel())

    def read_all(self) -> TorusConfig:
        """Read every cell at once (used by the small-torus fallback);
        counts mn distinct queries."""
        self._all = True
        return self.cfg

    def _distinct(self) -> np.ndarray:
        """The sorted distinct keys read so far.  The keys logged since the
        last call are sorted on their own; a stable sort (timsort) of the two
        sorted runs then merges them in linear time."""
        # Not np.unique: on numpy 2.4.6 (2-core x86 host) it took 11 ms on
        # 83,000 int64 keys where np.sort took 0.5 ms.
        if self._log or self._reads:
            new = np.sort(np.concatenate([*self._log, np.array(self._reads, dtype=np.int64)]))
            keys = np.concatenate([self._keys, new])
            keys.sort(kind="stable")
            keep = np.ones(len(keys), dtype=bool)
            keep[1:] = keys[1:] != keys[:-1]
            self._keys, self._log, self._reads = keys[keep], [], []
        return self._keys

    @property
    def queries(self) -> int:
        return self.m * self.n if self._all else len(self._distinct())


@dataclass(frozen=True)
class TesterParams:
    """Knobs of the tester: eps, the tile constant c1 (k = ceil(c1 / eps))
    and the sampling seed.  The sample sizes are the module constants A_ROWS,
    A_CELLS, A_S and A_BOX times ceil(1/eps)."""

    eps: float
    c1: int = 48
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.c1 < 4:
            raise ValueError("bad tester constants")

    @property
    def k(self) -> int:
        return math.ceil(self.c1 / self.eps)

    @property
    def per_eps(self) -> int:
        return math.ceil(1 / self.eps)


@dataclass(frozen=True)
class Wrap:
    """Wraparound consistency of a cell's row and column: each is the parity
    class of the chessboard wraparound the cell's window extends to (0 puts
    state-1 cells at even positions, 1 at odd ones), or None."""

    row: Optional[int] = None
    col: Optional[int] = None


@dataclass(frozen=True)
class BoundingBox:
    """Bounding box of a cell's distance-k cross-shaped region in sigma#."""

    rect: Rect
    anchor: Cell
    kind: str  # MONO or CHESS


@dataclass
class ViolationReport:
    kind: str  # "unstable-cell" | "wraparound-pair" | "interior" | "perimeter"
    cells: list[Cell]
    step: str

    def to_json_dict(self) -> dict:
        return {
            "check": "tester",
            "result": "Violation",
            "witness_cells": [list(c) for c in self.cells],
            "witness_kind": self.kind,
        }


def edge_distance(coord: int, size: int, k: int) -> int:
    """Distance from a coordinate to the nearest border line of its k-tile
    along one axis; `size` when the axis is a single tile (no borders)."""
    tiles = size // k
    if tiles <= 1:
        return size
    t = min(coord // k, tiles - 1)
    lo = t * k
    hi = lo + k - 1 if t < tiles - 1 else size - 1
    return min(coord - lo, hi - coord)


def _moore_isolated(read, m: int, n: int, cell: Cell) -> bool:
    """Whether every distinct Moore neighbor of the cell reads 0; reads in
    `moore_offsets` order and stops at the first 1."""
    i, j = cell
    return all(read(((i + di) % m, (j + dj) % n)) == 0 for di, dj in moore_offsets(m, n))


class RectView:
    """Query access to sigma#, the k-rectangulation of the oracle's config.

    The torus is partitioned into tiles of k rows by k columns; when k does
    not divide a dimension the last tile absorbs the remainder (sizes in
    [k, 2k)).  Each tile's 1-boundary is zeroed, then every Moore 1-isolated
    cell (in the zeroed configuration) inside a tile's 3-boundary is zeroed.
    A dimension covered by a single tile has no tile borders; `edge_distance`
    returns the side there, so on a side of 1 or 2 every cell is inside the
    3-boundary and its Moore-isolated 1s are zeroed.  Each sigma# read costs
    at most 9 underlying sigma reads.

    sigma# keeps two forms.  This lazy one reads cell by cell, which is what
    holds Step 2 to its query bound; the whole-grid
    `stabilizer.rectangulate_exempt` also leaves exempt rows untouched.
    `TestRectangulation` checks that the two agree.
    """

    def __init__(self, oracle: QueryOracle, k: int) -> None:
        self.oracle = oracle
        self.k = k
        self.m = oracle.m
        self.n = oracle.n
        self._memo: dict[Cell, int] = {}

    def _zeroed(self, cell: Cell) -> int:
        """The configuration after step 2 (all tile 1-boundaries zeroed)."""
        i, j = cell[0] % self.m, cell[1] % self.n
        if edge_distance(i, self.m, self.k) == 0 or edge_distance(j, self.n, self.k) == 0:
            return 0
        return self.oracle.read((i, j))

    def read(self, cell: Cell) -> int:
        i, j = cell[0] % self.m, cell[1] % self.n
        got = self._memo.get((i, j))
        if got is not None:
            return got
        di = edge_distance(i, self.m, self.k)
        dj = edge_distance(j, self.n, self.k)
        if di == 0 or dj == 0:
            value = 0
        else:
            value = self.oracle.read((i, j))
            # 3-boundary: zero the cell if it is Moore 1-isolated in the
            # post-step-2 configuration.
            if value == 1 and min(di, dj) <= 2:
                if _moore_isolated(self._zeroed, self.m, self.n, (i, j)):
                    value = 0
        self._memo[(i, j)] = value
        return value


# The Gamma<=3 window rule of a line through a cell, as (line offset, position
# offset) pairs in read order; a column swaps each pair.  The line alternates
# over positions -3..3; the neighboring lines are all 0 over positions -2..2;
# and no adjacent pair of 1s lies fully inside the window at line offset +-2
# (or straddles offsets +-2 and +-3 at position 0), since the extension
# cannot zero it and it would force a monochromatic component at distance < 3.
_LINE = [(0, d) for d in range(-3, 4)]
_ZERO = [(dline, d) for dline in (-1, 1) for d in range(-2, 3)]
_PAIRS = [
    pair
    for dline, out in ((-2, -3), (2, 3))
    for pair in (((dline, -1), (dline, 0)), ((dline, 0), (dline, 1)), ((dline, 0), (out, 0)))
]


# The window tables as one offset array in read order: 7 line entries, 10
# zero entries, then the pairs' cells, each pair's first and second in turn.
_WINDOW = np.array(_LINE + _ZERO + [cell for pair in _PAIRS for cell in pair])


def _read_mask(one: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which entries of each window the early-exit walk reads, and whether
    every clause holds, for windows of states (one window per row, in
    `_WINDOW` order, True for 1).

    The walk reads the line up to its first repeat, the zero lines up to
    their first 1, and each pair's first cell until a clash, its second cell
    only when the first is 1.  The clauses are prefix ANDs along the window.
    """
    line, zero = one[:, :7], one[:, 7:17]
    first, second = one[:, 17::2], one[:, 18::2]
    alternates = np.logical_and.accumulate(line[:, 1:] != line[:, :-1], axis=1)
    zeros = np.logical_and.accumulate(~zero, axis=1) & alternates[:, -1:]
    clean = np.logical_and.accumulate(~(first & second), axis=1) & zeros[:, -1:]
    read = np.ones_like(one)
    read[:, 2:7] = alternates[:, :-1]
    read[:, 7:8] = alternates[:, -1:]
    read[:, 8:17] = zeros[:, :-1]
    read[:, 17::2] = np.concatenate([zeros[:, -1:], clean[:, :-1]], axis=1)
    read[:, 18::2] = read[:, 17::2] & first
    return read, clean[:, -1]


def _window_parities(
    oracle: QueryOracle, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The row and column wraparound parities of the cells (rows, cols) as two
    int8 arrays: the parity class of the chessboard wraparound that
    sigma[Gamma<=3(cell)] extends the line to, or -1.

    Per axis, every cell's window is gathered at once, uncharged, and the
    entries that a per-cell walk with early exits reads (`_read_mask`) are
    charged.  A line's first window cell fixes the only class that can match.
    An alternating line needs an even length; on a 2-cycle its 0 cell has a
    single distinct 1 neighbor, so shorter lines read nothing.
    """
    rows, cols = rows % oracle.m, cols % oracle.n
    out = []
    # A column swaps each offset: (line, position) is (column, row).
    for length, pos, (dr, dc) in ((oracle.n, cols, _WINDOW.T), (oracle.m, rows, _WINDOW.T[::-1])):
        parity = np.full(len(rows), -1, dtype=np.int8)
        if length % 2 == 0 and length >= 4:
            wr, wc = rows[:, None] + dr, cols[:, None] + dc
            one = oracle.gather(wr, wc) == 1
            read, ok = _read_mask(one)
            oracle.charge(wr[read], wc[read])
            parity[ok] = ((pos + one[:, 0]) % 2)[ok]
        out.append(parity)
    return out[0], out[1]


def _wrap_at(row_par: np.ndarray, col_par: np.ndarray, s: int) -> Wrap:
    """Entry s of two parity arrays as a Wrap (-1 is None)."""
    return Wrap(*(None if p[s] < 0 else int(p[s]) for p in (row_par, col_par)))


def classify_wraparound(oracle, cell: Cell) -> Wrap:
    """Wraparound consistency of a cell: `_window_parities` of that one cell,
    reading only Gamma<=3(cell) through `oracle` (a QueryOracle, or a
    TorusConfig read through a fresh one)."""
    if not isinstance(oracle, QueryOracle):
        oracle = QueryOracle(oracle)
    return _wrap_at(*_window_parities(oracle, np.array([cell[0]]), np.array([cell[1]])), 0)


def _row_wraparound_plane(a: np.ndarray) -> np.ndarray:
    """`_window_parities` along rows for every cell: the parity class, or -1.
    Each offset of the window tables reads one view of the wrapped grid."""
    m, n = a.shape
    plane = np.full((m, n), -1, dtype=np.int8)
    if n % 2 != 0 or n < 4:
        return plane

    # The grid wrapped 3 cells past each side, so every offset is a view.
    one = (a == 1)[np.ix_(np.arange(-3, m + 3) % m, np.arange(-3, n + 3) % n)]

    def at(offset: Cell) -> np.ndarray:
        di, dj = offset
        return one[3 + di : 3 + di + m, 3 + dj : 3 + dj + n]

    ok = np.ones((m, n), dtype=bool)
    for p, q in zip(_LINE, _LINE[1:]):
        ok &= at(p) != at(q)
    for offset in _ZERO:
        ok &= ~at(offset)
    for p, q in _PAIRS:
        ok &= ~(at(p) & at(q))
    parity = (np.arange(n) + at(_LINE[0])) % 2
    plane[ok] = parity[ok]
    return plane


def wraparound_planes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The wraparound parity of every cell as two (m, n) int8 planes, rows
    then columns: the parity class, or -1 where the window is inconsistent.

    Cell (i, j) of each plane equals the same field of
    `classify_wraparound(TorusConfig(a), (i, j))`, its per-cell form, with -1
    for None; a column is a row of the transpose.
    """
    return _row_wraparound_plane(a), _row_wraparound_plane(a.T).T


def is_violating_pair(cell1: Cell, f1: Wrap, cell2: Cell, f2: Wrap) -> bool:
    """The three clauses of a wraparound violating pair."""
    if cell1 == cell2:
        return False
    if cell1[0] == cell2[0] and f1.row != f2.row:
        return True
    if cell1[1] == cell2[1] and f1.col != f2.col:
        return True
    return (f1.row is not None and f2.col is not None) or (
        f1.col is not None and f2.row is not None
    )


def _next_run(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For each position of two parallel sequences, the position where the
    next run of equal (a, b) starts, or len(a)."""
    new = np.ones(len(a), dtype=bool)
    new[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
    return np.append(np.flatnonzero(new)[1:], len(a))[np.cumsum(new) - 1]


def _next_other_key(bucket: np.ndarray, key: np.ndarray) -> np.ndarray:
    """For each entry, the smallest later index in its bucket whose key
    differs from its own, or len(bucket) when there is none.

    Sorted by (bucket, index), that partner is the start of the next run of
    equal (bucket, key), provided the run is still inside the bucket.
    """
    size = len(bucket)
    order = np.argsort(bucket, kind="stable")
    b = bucket[order]
    nxt = _next_run(b, key[order])
    has = nxt < size
    has[has] = b[nxt[has]] == b[has]
    partner = np.full(size, size)
    partner[order[has]] = order[nxt[has]]
    return partner


def _next_other_cell(
    starts: np.ndarray, ends: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """For each entry in the mask `starts`, the smallest later index in the
    mask `ends` at a different cell; len(rows) when there is none, and for
    entries outside `starts`.

    A `searchsorted` over the indices in `ends` finds the first later one;
    when it sits at the entry's own cell, the start of the next run of equal
    cells among those indices is taken instead.
    """
    size = len(rows)
    js = np.flatnonzero(ends)
    jr, jc = rows[js], cols[js]
    skip = _next_run(jr, jc)
    starts = np.flatnonzero(starts)
    t = np.searchsorted(js, starts, side="right")
    here = t < len(js)
    th, sh = t[here], starts[here]
    t[here] = np.where((jr[th] == rows[sh]) & (jc[th] == cols[sh]), skip[th], th)
    partner = np.full(size, size)
    partner[starts] = np.append(js, size)[t]
    return partner


def _first_wrap_pair(
    rows: np.ndarray, cols: np.ndarray, row_par: np.ndarray, col_par: np.ndarray
) -> Optional[tuple[int, int]]:
    """The first (i, j), i < j, in lexicographic order whose cells
    (rows, cols) and parities (-1 for None) form a violating pair, or None;
    O(S log S) for S entries.

    This is the pair a nested ``i < j`` loop over ``is_violating_pair``
    returns.  Entries at equal cells must carry equal parities, as they do
    when all are classified on one configuration.  Each entry's smallest
    partner is the least over the clauses:
    - clauses 1-2: the same row (column) index and another row (column)
      parity; differing parities imply, by the precondition, that the cells
      differ;
    - clause 3: a row parity and a later column parity at another cell, or a
      column parity and a later row parity.
    """
    has_row, has_col = row_par >= 0, col_par >= 0
    partner = np.minimum.reduce(
        [
            _next_other_key(rows, row_par),
            _next_other_key(cols, col_par),
            _next_other_cell(has_row, has_col, rows, cols),
            _next_other_cell(has_col, has_row, rows, cols),
        ]
    )
    hit = np.flatnonzero(partner < len(rows))
    return None if hit.size == 0 else (int(hit[0]), int(partner[hit[0]]))


def classify_plus_kind(view: RectView, cell: Cell) -> Optional[str]:
    """MONO/CHESS kind of a cell in sigma#, or None: MONO for a 1 with a 1
    among its von Neumann neighbors; CHESS for a cell with four distinct
    neighbors all of the other state that, if it is a 1, is not Moore
    isolated."""
    v = view.read(cell)
    nbs = von_neumann(view.m, view.n, cell)
    if v == 1 and any(view.read(nb) == 1 for nb in nbs):
        return MONO
    if len(nbs) < 4 or any(view.read(nb) == v for nb in nbs):
        return None
    if v == 1 and _moore_isolated(view.read, view.m, view.n, cell):
        return None
    return CHESS


def cross_region(view: RectView, cell: Cell, k: int, kind: str) -> BoundingBox:
    """Bounding box of the cell's distance-k cross-shaped region in sigma#.

    The caller supplies the cell's plus-kind, MONO or CHESS, as
    `classify_plus_kind` returned it; cells of neither kind have no region.
    Monochromatic arms extend through contiguous state-1 cells.  Chessboard
    arms extend while the alternating pattern continues, then drop a trailing
    state-0 cell that has fewer than two state-1 neighbors; this recovers the
    exact extent of a chessboard rectangle from any of its cells, which the
    perimeter checks rely on for one-sidedness.
    """
    m, n = view.m, view.n
    cell = (cell[0] % m, cell[1] % n)
    v0 = view.read(cell)

    def arm(di: int, dj: int) -> int:
        """Number of cells the arm covers beyond the anchor."""
        reach = 0
        # Two full wraps certify the pattern is periodic, so longer walks
        # cannot change the (cycle-capped) bounding box.
        steps = min(k, 2 * (m if di != 0 else n))
        for step in range(1, steps + 1):
            c = ((cell[0] + step * di) % m, (cell[1] + step * dj) % n)
            if kind == MONO:
                if view.read(c) != 1:
                    break
            else:
                if view.read(c) != v0 ^ (step % 2):
                    break
            reach = step
        if kind == CHESS and reach > 0:
            last = ((cell[0] + reach * di) % m, (cell[1] + reach * dj) % n)
            if view.read(last) == 0:
                ones = sum(view.read(nb) for nb in von_neumann(m, n, last))
                if ones < 2:
                    reach -= 1
        return reach

    # Deterministic walk order: right, left, down, up.
    right = arm(0, 1)
    left = arm(0, -1)
    down = arm(1, 0)
    up = arm(-1, 0)
    rect = Rect(
        m,
        n,
        (cell[0] - up) % m,
        min(m, up + down + 1),
        (cell[1] - left) % n,
        min(n, left + right + 1),
    )
    return BoundingBox(rect=rect, anchor=cell, kind=kind)


def rect_ring(rect: Rect, r: int) -> list[Cell]:
    """Gamma=r of a rectangle (cells at torus distance exactly r from it),
    sorted.  Built from the rectangle's sides in O(h + w + r): each axis's
    coordinates within r of its interval are grouped by their gap, and a row
    at gap gi pairs with the columns at gap r - gi."""

    def axis(start: int, length: int, size: int) -> dict[int, list[int]]:
        by_gap: dict[int, list[int]] = {}
        for x in range(start - r, start + length + r):
            x %= size
            by_gap.setdefault(_interval_gap(x, 1, start, length, size), []).append(x)
        return by_gap

    rows = axis(rect.row0, rect.height, rect.m)
    cols = axis(rect.col0, rect.width, rect.n)
    return sorted({(i, j) for gi, ii in rows.items() for i in ii for j in cols.get(r - gi, ())})


def box_pattern(box: BoundingBox, anchor_val: int, cell):
    """The state of a cell of the box in its exact pattern: 1 in a mono box;
    in a chessboard box, the anchor's state flipped when the cell's torus
    distance to the anchor is odd.

    `cell` is a pair of coordinates: two ints, or broadcast index arrays such
    as `np.ix_` of the box or one row with its columns, for which a chessboard
    box gives the array of states and a mono box the scalar 1."""
    if box.kind == MONO:
        return 1
    (i, j), rect = box.anchor, box.rect
    odd = (cyclic_distance(i, cell[0], rect.m) + cyclic_distance(j, cell[1], rect.n)) % 2
    return anchor_val ^ odd


def interior_violation(view: RectView, box: BoundingBox, cell: Cell) -> bool:
    """Whether a cell of the box violates its interior pattern in sigma#."""
    cell = (cell[0] % view.m, cell[1] % view.n)
    if cell not in box.rect:
        raise ValueError(f"{cell} is not inside the box")
    return view.read(cell) != box_pattern(box, view.read(box.anchor), cell)


def perimeter_violation(view: RectView, box: BoundingBox, cell: Cell) -> bool:
    """Whether a cell of Gamma=1(box) or Gamma=2(box) violates the perimeter
    rules in sigma#; evaluating the monochromatic clause for Gamma=2 cells
    reads their neighbors (within Gamma=3 of the box)."""
    cell = (cell[0] % view.m, cell[1] % view.n)
    rect = box.rect
    gap = _interval_gap(cell[0], 1, rect.row0, rect.height, view.m) + _interval_gap(
        cell[1], 1, rect.col0, rect.width, view.n
    )
    if gap not in (1, 2):
        raise ValueError(f"{cell} is not on the box perimeter")
    return _perimeter_violation(view, box, cell, gap)


def _perimeter_violation(view: RectView, box: BoundingBox, cell: Cell, gap: int) -> bool:
    """`perimeter_violation` of a cell of Gamma=gap(box), gap 1 or 2, whose
    coordinates are reduced mod (m, n)."""
    if view.read(cell) != 1:
        return False
    if box.kind == MONO:
        return True
    if gap == 1:
        return True
    if box_pattern(box, view.read(box.anchor), cell) == 1:
        return True
    return any(view.read(nb) == 1 for nb in von_neumann(view.m, view.n, cell))


def border_violation(view: RectView, box: BoundingBox) -> Optional[tuple[str, Cell]]:
    """The first violation on the box's border in sigma#, as (kind, cell):
    a "perimeter" cell of Gamma=1 then Gamma=2 in `rect_ring` order, else an
    "interior" cell of the box's 1-boundary; None when the border is clean."""
    for r in (1, 2):
        for p in rect_ring(box.rect, r):
            if _perimeter_violation(view, box, p, r):
                return "perimeter", p
    for p in _rect_inner_boundary(box.rect):
        if interior_violation(view, box, p):
            return "interior", p
    return None


def query_cap(params: TesterParams, m: int, n: int) -> int:
    """A hard cap on distinct queries for one run; independent of m and n
    (aside from the trivial mn ceiling)."""
    k = params.k
    cpe = params.per_eps
    step1 = 2 * A_ROWS * cpe * A_CELLS * cpe * 25
    per_cell = (
        25  # Gamma<=2 in sigma, plus slack
        + 9 * (4 * k + 9)  # cross walk in sigma#
        + 9 * (24 * (k + 1) + 36)  # perimeter rings incl. mono clause reads
        + 9 * (4 * k + 4)  # box 1-boundary
        + 9 * A_BOX * cpe  # interior sample
    )
    step2 = A_S * cpe * per_cell
    return min(m * n, step1 + step2)


@dataclass
class TesterResult:
    accepted: bool
    violation: Optional[ViolationReport]
    queries: int
    fallback: bool = False


def run_tester(oracle: QueryOracle, params: TesterParams) -> TesterResult:
    """The sublinear Threshold-2 stability tester.

    Step 1 hunts for unstable cells and wraparound violating pairs along
    sampled rows and columns.  It draws all S = 2 A_ROWS A_CELLS
    ceil(1/eps)^2 cells up front and screens them for stability in one batch
    (`_first_unstable`); the first unstable cell is the witness.  The row and
    column wraparound parities of the cells before it come from one gather
    per axis, charged through read masks (`_window_parities`; the per-cell
    `classify_wraparound` is the same rule on one cell).  With no unstable
    cell, a search on those arrays (`_first_wrap_pair`) reports the first
    violating pair in sampling order (smallest first index, then smallest
    second), re-checked by `is_violating_pair`.  Step 2 samples A_S
    ceil(1/eps) cells, screens them the same way, classifies each sampled
    cell once (`classify_plus_kind`), finds each monochromatic/chessboard
    cell's bounding box in sigma# from that kind, checks its border
    (`border_violation`) and then A_BOX ceil(1/eps) sampled cells of its
    interior.  The screens and the window gathers charge exactly the cells a
    per-cell loop in sampling order would read, so queries match it.  When
    the torus is too small for the box machinery (min(m, n) < 3k) the whole
    configuration is read instead and the exact answer returned; the read
    count mn < 9k^2 respects the cap.
    """
    m, n = oracle.m, oracle.n
    k = params.k
    rng = np.random.default_rng(params.seed)

    if min(m, n) < 3 * k:
        bad = np.argwhere(classify_cells(oracle.read_all(), THR2) == 2)
        if len(bad) == 0:
            return TesterResult(True, None, oracle.queries, fallback=True)
        report = ViolationReport("unstable-cell", [tuple(bad[0].tolist())], step="fallback")
        return TesterResult(False, report, oracle.queries, fallback=True)

    cpe = params.per_eps

    # Step 1: unstable cells, then wraparound violating pairs.  One draw per
    # line, rows first; the cells of each line are consecutive.
    per_line = A_CELLS * cpe
    row_lines = rng.integers(0, m, A_ROWS * cpe)
    col_lines = rng.integers(0, n, A_ROWS * cpe)
    along_rows = [rng.integers(0, n, per_line) for _ in row_lines]
    along_cols = [rng.integers(0, m, per_line) for _ in col_lines]
    rows = np.concatenate([np.repeat(row_lines, per_line), *along_cols])
    cols = np.concatenate([*along_rows, np.repeat(col_lines, per_line)])
    u = _first_unstable(oracle, rows, cols)
    # The cells before u get their window parities, as the per-cell loop
    # read them.
    row_par, col_par = _window_parities(oracle, rows[:u], cols[:u])
    if u < len(rows):
        report = ViolationReport("unstable-cell", [(int(rows[u]), int(cols[u]))], step="step1")
        return TesterResult(False, report, oracle.queries)
    pair = _first_wrap_pair(rows, cols, row_par, col_par)
    if pair is not None:
        c1, c2 = ((int(rows[s]), int(cols[s])) for s in pair)
        f1, f2 = (_wrap_at(row_par, col_par, s) for s in pair)
        if not is_violating_pair(c1, f1, c2, f2):
            raise RuntimeError(f"array pair search returned a non-violating pair {pair}")
        report = ViolationReport("wraparound-pair", [c1, c2], step="step1")
        return TesterResult(False, report, oracle.queries)

    # Step 2: interior and perimeter violations in sigma#.
    view = RectView(oracle, k)
    rows = rng.integers(0, m, A_S * cpe)
    cols = rng.integers(0, n, A_S * cpe)
    samples = list(zip(rows.tolist(), cols.tolist()))
    u = _first_unstable(oracle, rows, cols)
    if u < len(samples):
        report = ViolationReport("unstable-cell", [samples[u]], step="step2")
        return TesterResult(False, report, oracle.queries)
    for cell in samples:
        kind = classify_plus_kind(view, cell)
        if kind is None:
            continue
        box = cross_region(view, cell, k, kind)
        bad = border_violation(view, box)
        if bad is not None:
            report = ViolationReport(bad[0], [cell, bad[1]], step="step2")
            return TesterResult(False, report, oracle.queries)
        rows = rng.integers(0, box.rect.height, A_BOX * cpe)
        cols = rng.integers(0, box.rect.width, A_BOX * cpe)
        for di, dj in zip(rows, cols):
            p = ((box.rect.row0 + int(di)) % m, (box.rect.col0 + int(dj)) % n)
            if interior_violation(view, box, p):
                report = ViolationReport("interior", [cell, p], step="step2")
                return TesterResult(False, report, oracle.queries)
    return TesterResult(True, None, oracle.queries)


def _rect_inner_boundary(rect: Rect) -> list[Cell]:
    """The 1-boundary of a rectangle: its cells adjacent to the outside, row
    by row from (row0, col0); built from its edge rows and end columns."""
    rows, cols = rect.rows(), rect.cols()
    edges = {rows[0], rows[-1]} if rect.height < rect.m else set()
    ends = [] if rect.width == rect.n else cols[:1] if rect.width == 1 else [cols[0], cols[-1]]
    return [(i, j) for i in rows for j in (cols if i in edges else ends)]


# Offsets of a cell's 5x5 patch along one axis, and of its Gamma<=2 diamond:
# the 13 cells `double_step_cell` reads.
_PATCH = np.arange(-2, 3)
_DIAMOND = np.array(
    [(di, dj) for di in range(-2, 3) for dj in range(-2, 3) if abs(di) + abs(dj) <= 2]
)


def _first_unstable(
    oracle: QueryOracle, rows: np.ndarray, cols: np.ndarray, b: int = THR2.b
) -> int:
    """The first index u whose cell (rows[u], cols[u]) is unstable under the
    Threshold-b rule, or len(rows) when every cell is stable.

    Each cell's 5x5 patch is gathered uncharged and the stack stepped twice by
    `threshold_step`; the centre depends only on its Gamma<=2 diamond, which
    the patch's own wraparound never reaches.  Then the diamonds of cells
    0..u are charged: exactly the reads of a `double_step_cell` loop that
    stops at the first unstable cell.  Requires m, n >= 3, where a cell's
    four neighbors are distinct cells of the torus as they are of the patch.
    """
    patch = oracle.gather(rows[:, None, None] + _PATCH[:, None], cols[:, None, None] + _PATCH)
    two = threshold_step(threshold_step(patch, b), b)
    changed = np.flatnonzero(two[:, 2, 2] != patch[:, 2, 2])
    u = int(changed[0]) if changed.size else len(rows)
    oracle.charge(rows[: u + 1, None] + _DIAMOND[:, 0], cols[: u + 1, None] + _DIAMOND[:, 1])
    return u


def run_naive_tester(
    oracle: QueryOracle, rule: Rule, sample_size: int, rng: np.random.Generator
) -> tuple[bool, Optional[ViolationReport]]:
    """The baseline tester: sample cells and check each for stability under
    `rule`, rejecting at the first unstable one.

    With both sides >= 3 the sample is screened in one batch by
    `_first_unstable` with the rule's b, which charges the cells a per-cell
    loop would read; on a torus with a side below 3, where the 5x5 patch is
    not the torus, each cell is stepped by `double_step_cell`.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    m, n = oracle.m, oracle.n
    rows = rng.integers(0, m, sample_size)
    cols = rng.integers(0, n, sample_size)
    if min(m, n) >= 3:
        u = _first_unstable(oracle, rows, cols, b=rule.b)
    else:
        u = sample_size
        for s, cell in enumerate(zip(rows.tolist(), cols.tolist())):
            if double_step_cell(oracle.read, m, n, rule, cell) != oracle.read(cell):
                u = s
                break
    if u < sample_size:
        return False, ViolationReport("unstable-cell", [(int(rows[u]), int(cols[u]))], step="naive")
    return True, None
