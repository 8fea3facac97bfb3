"""Query-counted testing of Threshold-2 stability.

Provides the query oracle with distinct-read accounting, the rectangulation
view sigma#, wraparound-consistency classification, cross-shaped regions with
their bounding boxes, interior/perimeter violation predicates, the sublinear
tester and the naive sampling baseline.

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
    cyclic_distance,
    double_step_cell,
    is_stable,
    moore_offsets,
    shifted,
    von_neumann,
)
from .structure import CHESS, MONO, Rect


class QueryOracle:
    """Query access to a configuration with distinct-cell read accounting.

    Every first read of a cell costs one query; repeat reads are free.  A
    single oracle instance serves one tester run (mutable counter).
    """

    def __init__(self, cfg: TorusConfig) -> None:
        self.cfg = cfg
        self.m = cfg.m
        self.n = cfg.n
        self._seen: set[Cell] = set()
        self._all = False

    def read(self, cell: Cell) -> int:
        i, j = cell[0] % self.m, cell[1] % self.n
        if not self._all:
            self._seen.add((i, j))
        return self.cfg.a.item(i, j)

    def read_all(self) -> TorusConfig:
        """Read every cell at once (used by the small-torus fallback);
        counts mn distinct queries."""
        self._all = True
        return self.cfg

    @property
    def queries(self) -> int:
        return self.m * self.n if self._all else len(self._seen)


@dataclass(frozen=True)
class TesterParams:
    """Knobs of the tester; defaults follow the analysis constants."""

    eps: float
    c1: int = 48
    a_rows: int = 8
    a_cells: int = 8
    a_s: int = 8
    a_box: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0 < self.eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.c1 < 4 or min(self.a_rows, self.a_cells, self.a_s, self.a_box) < 1:
            raise ValueError("bad tester constants")

    @property
    def k(self) -> int:
        return math.ceil(self.c1 / self.eps)

    @property
    def per_eps(self) -> int:
        return math.ceil(1 / self.eps)


@dataclass(frozen=True)
class WraparoundFlags:
    row_even: bool = False
    row_odd: bool = False
    col_even: bool = False
    col_odd: bool = False

    @property
    def row_any(self) -> bool:
        return self.row_even or self.row_odd

    @property
    def col_any(self) -> bool:
        return self.col_even or self.col_odd


@dataclass(frozen=True)
class BoundingBox:
    """Bounding box of a cell's distance-k cross-shaped region in sigma#."""

    rect: Rect
    anchor: Cell
    kind: str  # MONO or CHESS
    k: int


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
    A dimension covered by a single tile has no tile borders and is left
    untouched.  Each sigma# read costs at most 9 underlying sigma reads.
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


def _window_consistent(oracle, cell: Cell, axis: str, parity: int) -> bool:
    """Whether sigma[Gamma<=3(cell)] extends to a config in which the cell's
    row (axis="row") or column is an even/odd chessboard wraparound.

    parity 0 demands state-1 cells at even positions, parity 1 at odd ones.
    The window constraints are: the line's in-window cells carry the exact
    alternating pattern; the two neighboring lines are all 0 in the window;
    and no two adjacent 1s fully inside the window force a monochromatic
    component at distance < 3 from the line.
    """
    m, n = oracle.m, oracle.n
    r, c = cell

    if axis == "row":
        length = n

        def at(dline: int, dpos: int) -> int:
            return oracle.read(((r + dline) % m, (c + dpos) % n))

        def pos(dpos: int) -> int:
            return (c + dpos) % n

    else:
        length = m

        def at(dline: int, dpos: int) -> int:
            return oracle.read(((r + dpos) % m, (c + dline) % n))

        def pos(dpos: int) -> int:
            return (r + dpos) % m

    if length % 2 != 0:
        return False
    # The line itself must carry the exact alternating pattern in the window.
    for dpos in range(-3, 4):
        want = 1 if pos(dpos) % 2 == parity else 0
        if at(0, dpos) != want:
            return False
    # The two neighboring lines must be all-zero in the window.
    for dline in (-1, 1):
        for dpos in range(-2, 3):
            if at(dline, dpos) != 0:
                return False
    # No monochromatic component at distance < 3: any adjacent pair of 1s
    # lying fully inside the window at line offset 2 (or straddling offsets
    # 2 and 3) cannot be zeroed by the extension, so it forces one.
    for dline in (-2, 2):
        for dpos in (-1, 0):
            if at(dline, dpos) == 1 and at(dline, dpos + 1) == 1:
                return False
        step = 1 if dline > 0 else -1
        if at(dline, 0) == 1 and at(dline + step, 0) == 1:
            return False
    return True


def classify_wraparound(oracle, cell: Cell) -> WraparoundFlags:
    """Wraparound-consistency flags of a cell, reading only Gamma<=3(cell)
    through `oracle` (a QueryOracle or a TorusConfig)."""
    cell = (cell[0] % oracle.m, cell[1] % oracle.n)
    return WraparoundFlags(
        row_even=_window_consistent(oracle, cell, "row", 0),
        row_odd=_window_consistent(oracle, cell, "row", 1),
        col_even=_window_consistent(oracle, cell, "col", 0),
        col_odd=_window_consistent(oracle, cell, "col", 1),
    )


def _row_wraparound_planes(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd row flags of `_window_consistent` for every cell."""
    m, n = a.shape
    if n % 2 != 0:
        return np.zeros((m, n), dtype=bool), np.zeros((m, n), dtype=bool)

    one = a == 1
    # The two neighboring lines are all 0 over positions -2..2.
    zero_span = np.logical_and.reduce([shifted(~one, 0, d) for d in range(-2, 3)])
    ok = shifted(zero_span, -1, 0) & shifted(zero_span, 1, 0)
    # No adjacent pair of 1s inside the window at line offset +-2, or
    # straddling offsets +-2 and +-3 at position 0.
    pair = one & shifted(one, 0, 1)
    for dline, step in ((-2, -1), (2, 1)):
        ok &= ~shifted(pair, dline, -1) & ~shifted(pair, dline, 0)
        ok &= ~(shifted(one, dline, 0) & shifted(one, dline + step, 0))
    # The line carries the parity's alternating pattern over positions -3..3.
    planes = []
    for parity in (0, 1):
        match = one == (np.arange(n) % 2 == parity)
        planes.append(ok & np.logical_and.reduce([shifted(match, 0, d) for d in range(-3, 4)]))
    return planes[0], planes[1]


def wraparound_planes(a: np.ndarray) -> tuple[np.ndarray, ...]:
    """The wraparound-consistency flags of every cell as four (m, n)
    boolean planes: row_even, row_odd, col_even, col_odd.

    Cell (i, j) of each plane equals the same field of
    `classify_wraparound(TorusConfig(a), (i, j))`, its per-cell form; a
    column is a row of the transpose.
    """
    row_even, row_odd = _row_wraparound_planes(a)
    col_even, col_odd = _row_wraparound_planes(a.T)
    return row_even, row_odd, col_even.T, col_odd.T


def is_violating_pair(
    cell1: Cell, f1: WraparoundFlags, cell2: Cell, f2: WraparoundFlags
) -> bool:
    """The three clauses of a wraparound violating pair."""
    if cell1 == cell2:
        return False
    row1 = (f1.row_even, f1.row_odd)
    row2 = (f2.row_even, f2.row_odd)
    if cell1[0] == cell2[0] and row1 != row2 and (any(row1) or any(row2)):
        return True
    col1 = (f1.col_even, f1.col_odd)
    col2 = (f2.col_even, f2.col_odd)
    if cell1[1] == cell2[1] and col1 != col2 and (any(col1) or any(col2)):
        return True
    if (f1.row_any and f2.col_any) or (f1.col_any and f2.row_any):
        return True
    return False


def _first_violating_pair(
    classified: list[tuple[Cell, WraparoundFlags]],
) -> Optional[tuple[int, int]]:
    """The first (i, j), i < j, in lexicographic order whose entries of
    ``classified`` form a violating pair, or None; O(len(classified)).

    This is the pair a nested ``i < j`` loop over ``is_violating_pair``
    returns.  Entries at equal cells must carry equal flags, as they do when
    all flags are classified on one configuration.  The scan runs from last
    to first; each bucket holds its smallest later index, that entry's key,
    and the smallest later index whose key differs from that one:
    - clauses 1-2: a bucket per row (column) index, keyed by the (even, odd)
      row (column) flags; differing flags imply one side is flagged and, by
      the precondition, that the cells differ;
    - clause 3: a bucket of all row_any and one of all col_any entries,
      keyed by cell, since a cell never pairs with itself.
    """
    later: dict = {}

    def partner(bucket, key) -> Optional[int]:
        """Smallest later index in the bucket whose key is not ``key``."""
        got = later.get(bucket)
        if got is None:
            return None
        return got[0] if got[1] != key else got[2]

    def push(bucket, i: int, key) -> None:
        got = later.get(bucket)
        other = None if got is None else got[2] if got[1] == key else got[0]
        later[bucket] = (i, key, other)

    best = None
    for i in range(len(classified) - 1, -1, -1):
        cell, f = classified[i]
        row = (f.row_even, f.row_odd)
        col = (f.col_even, f.col_odd)
        found = [partner(("row", cell[0]), row), partner(("col", cell[1]), col)]
        if f.row_any:
            found.append(partner("col_any", cell))
        if f.col_any:
            found.append(partner("row_any", cell))
        found = [j for j in found if j is not None]
        if found:
            best = (i, min(found))
        push(("row", cell[0]), i, row)
        push(("col", cell[1]), i, col)
        if f.row_any:
            push("row_any", i, cell)
        if f.col_any:
            push("col_any", i, cell)
    return best


def _is_mono_cell(view: RectView, cell: Cell) -> bool:
    if view.read(cell) != 1:
        return False
    return any(view.read(nb) == 1 for nb in von_neumann(view.m, view.n, cell))


def _is_chess_cell(view: RectView, cell: Cell) -> bool:
    v = view.read(cell)
    nbs = von_neumann(view.m, view.n, cell)
    if len(nbs) < 4 or any(view.read(nb) == v for nb in nbs):
        return False
    return not (v == 1 and _moore_isolated(view.read, view.m, view.n, cell))


def classify_plus_kind(view: RectView, cell: Cell) -> Optional[str]:
    """MONO/CHESS kind of a cell in sigma#, or None."""
    if _is_mono_cell(view, cell):
        return MONO
    if _is_chess_cell(view, cell):
        return CHESS
    return None


def cross_region(view: RectView, cell: Cell, k: int) -> Optional[BoundingBox]:
    """Bounding box of the cell's distance-k cross-shaped region in sigma#.

    Monochromatic arms extend through contiguous state-1 cells.  Chessboard
    arms extend while the alternating pattern continues, then drop a trailing
    state-0 cell that has fewer than two state-1 neighbors; this recovers the
    exact extent of a chessboard rectangle from any of its cells, which the
    perimeter checks rely on for one-sidedness.
    """
    m, n = view.m, view.n
    cell = (cell[0] % m, cell[1] % n)
    kind = classify_plus_kind(view, cell)
    if kind is None:
        return None

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
    return BoundingBox(rect=rect, anchor=cell, kind=kind, k=k)


def _cyclic_gap(coord: int, start: int, length: int, size: int) -> int:
    """Steps from a coordinate to the cyclic interval [start, start+length)."""
    rel = (coord - start) % size
    if rel < length:
        return 0
    return min(rel - (length - 1), size - rel)


def rect_ring(rect: Rect, r: int) -> list[Cell]:
    """Gamma=r of a rectangle (cells at torus distance exactly r from it)."""
    m, n = rect.m, rect.n
    out = []
    for di in range(-r, rect.height + r):
        i = (rect.row0 + di) % m
        gi = _cyclic_gap(i, rect.row0, rect.height, m)
        for dj in range(-r, rect.width + r):
            j = (rect.col0 + dj) % n
            gj = _cyclic_gap(j, rect.col0, rect.width, n)
            if gi + gj == r:
                out.append((i, j))
    return sorted(set(out))


def _parity(m: int, n: int, a: Cell, b: Cell) -> int:
    return (cyclic_distance(a[0], b[0], m) + cyclic_distance(a[1], b[1], n)) % 2


def interior_violation(view: RectView, box: BoundingBox, cell: Cell) -> bool:
    """Whether a cell of the box violates its interior pattern in sigma#."""
    cell = (cell[0] % view.m, cell[1] % view.n)
    if cell not in box.rect:
        raise ValueError(f"{cell} is not inside the box")
    if box.kind == MONO:
        return view.read(cell) == 0
    want = view.read(box.anchor) ^ _parity(view.m, view.n, box.anchor, cell)
    return view.read(cell) != want


def perimeter_violation(view: RectView, box: BoundingBox, cell: Cell) -> bool:
    """Whether a cell of Gamma=1(box) or Gamma=2(box) violates the perimeter
    rules in sigma#; evaluating the monochromatic clause for Gamma=2 cells
    reads their neighbors (within Gamma=3 of the box)."""
    cell = (cell[0] % view.m, cell[1] % view.n)
    gap = _cyclic_gap(cell[0], box.rect.row0, box.rect.height, view.m) + _cyclic_gap(
        cell[1], box.rect.col0, box.rect.width, view.n
    )
    if gap not in (1, 2):
        raise ValueError(f"{cell} is not on the box perimeter")
    if view.read(cell) != 1:
        return False
    if box.kind == MONO:
        return True
    if gap == 1:
        return True
    if view.read(box.anchor) ^ _parity(view.m, view.n, box.anchor, cell) == 1:
        return True
    return any(view.read(nb) == 1 for nb in von_neumann(view.m, view.n, cell))


def query_cap(params: TesterParams, m: int, n: int) -> int:
    """A hard cap on distinct queries for one run; independent of m and n
    (aside from the trivial mn ceiling)."""
    k = params.k
    cpe = params.per_eps
    step1 = 2 * params.a_rows * cpe * params.a_cells * cpe * 25
    per_cell = (
        25  # Gamma<=2 in sigma, plus slack
        + 9 * (4 * k + 9)  # cross walk in sigma#
        + 9 * (24 * (k + 1) + 36)  # perimeter rings incl. mono clause reads
        + 9 * (4 * k + 4)  # box 1-boundary
        + 9 * params.a_box * cpe  # interior sample
    )
    step2 = params.a_s * cpe * per_cell
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
    sampled rows and columns.  It classifies S = 2 a_rows a_cells
    ceil(1/eps)^2 cells, pairs their wraparound flags in O(S) and reports
    the first violating pair in sampling order (smallest first index, then
    smallest second).  Step 2 samples cells, finds each sampled
    monochromatic/chessboard cell's bounding box in sigma# and checks for
    perimeter and interior violations.  When the torus is too small for the
    box machinery (min(m, n) < 3k) the whole configuration is read instead
    and the exact answer returned; the read count mn < 9k^2 respects the cap.
    """
    m, n = oracle.m, oracle.n
    k = params.k
    rng = np.random.default_rng(params.seed)

    if min(m, n) < 3 * k:
        oracle.read_all()
        if is_stable(oracle.cfg, THR2):
            return TesterResult(True, None, oracle.queries, fallback=True)
        bad = _find_unstable_cell(oracle.cfg)
        report = ViolationReport("unstable-cell", [bad], step="fallback")
        return TesterResult(False, report, oracle.queries, fallback=True)

    cpe = params.per_eps

    # Step 1: wraparound violating pairs.
    classified: list[tuple[Cell, WraparoundFlags]] = []
    lines = [("row", int(r)) for r in rng.integers(0, m, params.a_rows * cpe)]
    lines += [("col", int(c)) for c in rng.integers(0, n, params.a_rows * cpe)]
    for axis, idx in lines:
        span = n if axis == "row" else m
        for offset in rng.integers(0, span, params.a_cells * cpe):
            cell = (idx, int(offset)) if axis == "row" else (int(offset), idx)
            if not _cell_stable(oracle, cell):
                report = ViolationReport("unstable-cell", [cell], step="step1")
                return TesterResult(False, report, oracle.queries)
            classified.append((cell, classify_wraparound(oracle, cell)))
    pair = _first_violating_pair(classified)
    if pair is not None:
        (c1, f1), (c2, f2) = classified[pair[0]], classified[pair[1]]
        if not is_violating_pair(c1, f1, c2, f2):
            raise RuntimeError(f"bucketed pair search returned a non-violating pair {pair}")
        report = ViolationReport("wraparound-pair", [c1, c2], step="step1")
        return TesterResult(False, report, oracle.queries)

    # Step 2: interior and perimeter violations in sigma#.
    view = RectView(oracle, k)
    samples = [
        (int(i), int(j))
        for i, j in zip(
            rng.integers(0, m, params.a_s * cpe), rng.integers(0, n, params.a_s * cpe)
        )
    ]
    for cell in samples:
        if not _cell_stable(oracle, cell):
            report = ViolationReport("unstable-cell", [cell], step="step2")
            return TesterResult(False, report, oracle.queries)
    for cell in samples:
        box = cross_region(view, cell, k)
        if box is None:
            continue
        for r in (1, 2):
            for p in rect_ring(box.rect, r):
                if perimeter_violation(view, box, p):
                    report = ViolationReport("perimeter", [cell, p], step="step2")
                    return TesterResult(False, report, oracle.queries)
        for p in _rect_inner_boundary(box.rect):
            if interior_violation(view, box, p):
                report = ViolationReport("interior", [cell, p], step="step2")
                return TesterResult(False, report, oracle.queries)
        rows = rng.integers(0, box.rect.height, params.a_box * cpe)
        cols = rng.integers(0, box.rect.width, params.a_box * cpe)
        for di, dj in zip(rows, cols):
            p = ((box.rect.row0 + int(di)) % m, (box.rect.col0 + int(dj)) % n)
            if interior_violation(view, box, p):
                report = ViolationReport("interior", [cell, p], step="step2")
                return TesterResult(False, report, oracle.queries)
    return TesterResult(True, None, oracle.queries)


def _rect_inner_boundary(rect: Rect) -> list[Cell]:
    """The 1-boundary of a rectangle: its cells adjacent to the outside."""
    cells = []
    rows = rect.rows()
    cols = rect.cols()
    if rect.height == rect.m and rect.width == rect.n:
        return []
    for i in rows:
        on_row_edge = rect.height < rect.m and i in (rows[0], rows[-1])
        for j in cols:
            on_col_edge = rect.width < rect.n and j in (cols[0], cols[-1])
            if on_row_edge or on_col_edge:
                cells.append((i, j))
    return cells


def _cell_stable(oracle: QueryOracle, cell: Cell) -> bool:
    return (
        double_step_cell(oracle.read, oracle.m, oracle.n, THR2, cell)
        == oracle.read(cell)
    )


def _find_unstable_cell(cfg: TorusConfig) -> Cell:
    from .grid import classify_cells

    kinds = classify_cells(cfg, THR2)
    bad = np.argwhere(kinds == 2)
    if len(bad) == 0:
        raise RuntimeError("no unstable cell in an unstable configuration?")
    return (int(bad[0][0]), int(bad[0][1]))


def run_naive_tester(
    oracle: QueryOracle, rule: Rule, sample_size: int, rng: np.random.Generator
) -> tuple[bool, Optional[ViolationReport]]:
    """The baseline tester: sample cells and check each for stability."""
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    m, n = oracle.m, oracle.n
    for i, j in zip(rng.integers(0, m, sample_size), rng.integers(0, n, sample_size)):
        cell = (int(i), int(j))
        value = double_step_cell(oracle.read, m, n, rule, cell)
        if value != oracle.read(cell):
            return False, ViolationReport("unstable-cell", [cell], step="naive")
    return True, None
