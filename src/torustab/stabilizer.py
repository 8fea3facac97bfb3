"""Threshold-2 stabilization: wraparound repair, box repair, global cleanup.

The procedure runs in four steps.  Step 1 finds rows (or columns) that are
nearly chessboard wraparounds and repairs each into the exact one of its
parity class; every repaired line joins the set W (see `_repair_lines`),
which is exempt from everything that follows.  Step 2 applies the
k-rectangulation outside W.  Step 3 collects the maximal alpha-good bounding
boxes of sigma#, keeps those whose repairs stay stable alone and beside each
close kept box, and eliminates their interior violations; a box within
distance 2 of W zeroes its distance-2 rows and the rows they squeeze (see
`_fix_box_near_w_inplace`).  Step 4 zeroes every cell left uncovered.

The output is guaranteed stable; a failed final check raises instead of
returning a bad configuration.  All modification counts in the report are
exact per-step diffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .grid import (
    THR2,
    Cell,
    TorusConfig,
    cyclic_distance,
    is_stable,
    moore_offsets,
    neighbor_sum,
    von_neumann_offsets,
)
from .structure import MONO, Rect, rect_distance
from .tester import (
    BoundingBox,
    border_violation,
    box_pattern,
    classify_plus_kind,
    classify_wraparound,
    cross_region,
    edge_distance,
    wraparound_planes,
)


class NoMajorityClass(ValueError):
    """A row sent to the wraparound repair has no consistent cells at all."""


@dataclass(frozen=True)
class StabilizerParams:
    """Stabilizer constants; alpha = eps / c2 and k = ceil(c1 / eps)."""

    eps: float
    c1: int = 48
    c2: int = 68

    def __post_init__(self) -> None:
        if not (0 < self.eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.c1 < 4 or self.c2 < 3:
            raise ValueError("bad stabilizer constants")

    @property
    def alpha(self) -> float:
        return self.eps / self.c2

    @property
    def k(self) -> int:
        return math.ceil(self.c1 / self.eps)


# ---------------------------------------------------------------------------
# Step 1: wraparound rows and columns.


def _alpha_lines(planes, alpha: float):
    """(rows, cols) that are alpha-wraparound consistent, with parity class,
    from the row and column parity planes of `wraparound_planes`.

    Each entry is (index, parity) where parity 0 means state-1 cells sit at
    even positions along the line.  A line qualifies when at least
    (1 - alpha) of its cells share a parity class; parity 0 wins a tie.
    """
    row, col = planes

    def lines(plane: np.ndarray) -> list[tuple[int, int]]:
        bar = (1 - alpha) * plane.shape[1] - 1e-9
        even = (plane == 0).sum(axis=1) >= bar
        odd = (plane == 1).sum(axis=1) >= bar
        idx = np.flatnonzero(even | odd)
        return list(zip(idx.tolist(), np.where(even[idx], 0, 1).tolist()))

    return lines(row), lines(col.T)


def _fix_row_inplace(a: np.ndarray, r: int, parity: int) -> np.ndarray:
    """Make row r an exact chessboard wraparound of the parity class (0:
    state-1 cells at even positions); returns the (m, n) mask of the
    changed cells.

    Rows r+-1 are zeroed; in rows r+-2, cells that the pattern would activate
    are zeroed, and then (against a snapshot) all monochromatic cells there
    as well.
    """
    m, n = a.shape
    before = a.copy()
    pattern = (np.arange(n) + parity + 1) % 2
    a[r] = pattern
    rows1 = list({(r - 1) % m, (r + 1) % m} - {r})
    a[rows1] = 0
    rows2 = list({(r - 2) % m, (r + 2) % m} - {r} - set(rows1))
    for q in rows2:
        a[q, pattern == 1] = 0
    mono = (a == 1) & (neighbor_sum(a, von_neumann_offsets(m, n)) > 0)
    for q in rows2:
        a[q, mono[q]] = 0
    return a != before


def fix_wraparound_row(cfg: TorusConfig, r: int) -> tuple[TorusConfig, int]:
    """Repair row r into an exact chessboard wraparound of the parity class
    that most of its wraparound-consistent cells hold; parity 0 wins a tie.

    Only rows r-2..r+2 are touched.  Returns the repaired configuration and
    the number of modified cells.
    """
    if cfg.n % 2 != 0:
        raise ValueError("a chessboard wraparound row needs an even row length")
    r %= cfg.m
    counts = [0, 0]
    for c in range(cfg.n):
        p = classify_wraparound(cfg, (r, c)).row
        if p is not None:
            counts[p] += 1
    if counts == [0, 0]:
        raise NoMajorityClass(f"no wraparound-consistent cell in row {r}")
    a = cfg.a.copy()
    changed = _fix_row_inplace(a, r, 0 if counts[0] >= counts[1] else 1)
    return TorusConfig(a), int(changed.sum())


def _repair_lines(a: np.ndarray, lines: list[tuple[int, int]]) -> tuple[list[int], np.ndarray]:
    """Step 1 on the alpha-lines (row, parity) of `a`, in place: returns W,
    the rows repaired into exact wraparounds, and the mask of changed cells.

    Same-parity lines at distance 2 would zero each other's cells, so only
    the first of each such pair is repaired.  Every repaired line is in W,
    exact with both neighbor rows 0, once all repairs are done:
      - alpha = eps / c2 <= 1/3, as c2 >= 3 and eps <= 1, so an alpha-line
        has more than n/2 cells in its parity class.  Two adjacent lines
        would share a class position j; line r's window at j needs line r+1
        to be 0 over j-2..j+2, while line r+1's window at j needs it to
        alternate over j-3..j+3.  So no two lines are adjacent, and no
        repair writes its neighbor-row zeros over another line.
      - A repair two rows away zeroes cells where its pattern is 1 and mono
        cells.  The filter leaves only lines of the other parity there, and
        an exact line with 0 neighbor rows has 1s only where that pattern is
        0, and no mono cell.
      - A repair writes 1s only into its own row, so it cannot disturb the
        0 neighbor rows of another line.
    """
    kept: list[tuple[int, int]] = []
    for r, p in sorted(lines):
        if any(cyclic_distance(r, r2, a.shape[0]) == 2 and p2 == p for r2, p2 in kept):
            continue
        kept.append((r, p))
    changed = np.zeros(a.shape, dtype=bool)
    for r, p in kept:
        changed |= _fix_row_inplace(a, r, p)
    return [r for r, _ in kept], changed


# ---------------------------------------------------------------------------
# Step 2: rectangulation outside W.


def rectangulate_exempt(a: np.ndarray, k: int, w_rows: Iterable[int]) -> np.ndarray:
    """The k-rectangulation of `a`, leaving the rows in `w_rows` untouched.

    The whole-grid form of sigma#: it carries the exempt rows, which the lazy,
    query-charged `tester.RectView` has no use for.  `TestRectangulation`
    checks that the two agree when no row is exempt.
    """
    m, n = a.shape
    di = np.array([edge_distance(i, m, k) for i in range(m)])[:, None]
    dj = np.array([edge_distance(j, n, k) for j in range(n)])[None, :]
    exempt = np.zeros((m, n), dtype=bool)
    for r in w_rows:
        exempt[r % m, :] = True
    z = a.copy()
    z[((di == 0) | (dj == 0)) & ~exempt] = 0
    near = np.minimum(di, dj) <= 2
    lonely = (z == 1) & (neighbor_sum(z, moore_offsets(m, n)) == 0) & near & ~exempt
    z[lonely] = 0
    return z


# ---------------------------------------------------------------------------
# Step 3: alpha-good boxes and their repair.


def _box_violations(view, box: BoundingBox, alpha: float) -> Optional[int]:
    """Interior-violation count if the box is alpha-good, else None.

    An almost-wraparound monochromatic box (one dimension equal to the full
    cycle minus one) is never good: the single uncovered line activates, so
    such a repaired box could not be stable.  The case only arises when the
    box size cap 2k+1 reaches the torus dimensions.
    """
    if box.kind == MONO and box.rect.almost_wraparound:
        return None
    if border_violation(view, box) is not None:
        return None
    ix = np.ix_(box.rect.rows(), box.rect.cols())
    v = int((view.a[ix] != box_pattern(box, view.read(box.anchor), ix)).sum())
    if v > alpha * box.rect.size():
        return None
    return v


def _canon_key(rect: Rect, kind: str):
    r0 = 0 if rect.height == rect.m else rect.row0
    c0 = 0 if rect.width == rect.n else rect.col0
    return (kind, r0, rect.height, c0, rect.width)


def _rect_contains(outer: Rect, inner: Rect) -> bool:
    def axis_ok(o0, olen, i0, ilen, size):
        if olen == size:
            return True
        if ilen == size:
            return False
        return (i0 - o0) % size + ilen <= olen

    return axis_ok(outer.row0, outer.height, inner.row0, inner.height, outer.m) and axis_ok(
        outer.col0, outer.width, inner.col0, inner.width, outer.n
    )


def _collect_good_boxes(view, k: int, alpha: float) -> list[tuple[BoundingBox, int]]:
    """All distinct alpha-good boxes with their violation counts, maximal only."""
    found: dict[tuple, tuple[BoundingBox, Optional[int]]] = {}
    for i in range(view.m):
        for j in range(view.n):
            kind = classify_plus_kind(view, (i, j))
            if kind is None:
                continue
            box = cross_region(view, (i, j), k, kind)
            key = _canon_key(box.rect, box.kind)
            if key in found:
                continue
            found[key] = (box, _box_violations(view, box, alpha))
    good = [(b, v) for b, v in found.values() if v is not None]
    keep = []
    for b, v in good:
        strictly_inside = any(
            o is not b
            and _rect_contains(o.rect, b.rect)
            and not _rect_contains(b.rect, o.rect)
            for o, _ in good
        )
        if not strictly_inside:
            keep.append((b, v))
    return keep


def _compatible_boxes(
    pairs: list[tuple[BoundingBox, int]], view
) -> list[tuple[BoundingBox, int]]:
    """Greedy structural filter over the good boxes.

    A repaired box becomes an exact rectangle, so the repaired configuration
    is a union of rectangles; it is stable only if each rectangle is legal on
    its own and every close pair coexists (distance and chessboard-phase
    constraints).  Individually good boxes can still clash -- e.g. two
    adjacent 2x2 chessboard blocks whose toggles merge into an unstable
    blob -- so boxes are kept largest-first, dropping any whose repair is
    unstable alone or beside an already-kept box within distance 4.  Each
    test repaints one scratch torus from zero: the box, or the kept box and
    then the box over it.
    """
    order = sorted(
        pairs,
        key=lambda bv: (-bv[0].rect.size(), bv[0].rect.row0, bv[0].rect.col0, bv[0].kind),
    )
    scratch = np.zeros((view.m, view.n), dtype=np.uint8)

    def stable_repair(*boxes: BoundingBox) -> bool:
        scratch[:] = 0
        for b in boxes:
            _fix_box_inplace(scratch, b, view.read(b.anchor))
        return is_stable(TorusConfig(scratch), THR2)

    kept: list[tuple[BoundingBox, int]] = []
    for box, v in order:
        if stable_repair(box) and all(
            rect_distance(box.rect, other.rect) > 4 or stable_repair(other, box)
            for other, _ in kept
        ):
            kept.append((box, v))
    return kept


def _fix_box_inplace(a: np.ndarray, box: BoundingBox, anchor_val: int) -> int:
    """Eliminate the box's interior violations; returns the modified count."""
    ix = np.ix_(box.rect.rows(), box.rect.cols())
    want = box_pattern(box, anchor_val, ix)
    count = int((a[ix] != want).sum())
    a[ix] = want
    return count


def _fix_box_near_w_inplace(
    a: np.ndarray, box: BoundingBox, wdist: list[int], anchor_val: int
) -> int:
    """The repair of a box with rows within distance 2 of the wraparound
    rows W; returns the modified count.  `wdist` gives each row's cyclic
    distance to W.

    Row i of the box is zeroed when wdist[i] == 2, or when each of rows i-1
    and i+1 is at distance 2 or outside the box, that is past one of its
    ends (by I2 no box spans the cycle), as a one-row strip between them
    would be illegal; every other row gets the box pattern.

    Why nothing else is needed.  After Step 1, for each W row w, rows w+-1
    are all 0, and rows w+-2 hold no 1 where row w holds a 1 and no mono
    cell (a 1 with a 1 neighbor): `_fix_row_inplace` zeroes those cells.  A
    later repair writes 1s only into its own row, every repaired row ends
    exact with both its neighbors 0 (`_repair_lines`), and Step 2 only
    zeroes cells outside W.  So in sigma# no plus-kind anchor lies on row w
    or rows w+-1, and a box's rows are the rows its vertical arm covers:
      I1. No mono box has a row within distance 2 of W: that row's arm
          cell, or the anchor itself, would be a mono cell of row w+-2.
      I2. No box row is at distance < 2: a chess arm from (w+2, j) = 1
          expects (w+1, j) = 0 and then (w, j) = 1, but (w, j) = 1 forces
          (w+2, j) = 0; an arm that stops on (w+1, j) = 0 is trimmed, as
          that cell has at most one 1 neighbor.
      I3. Hence every row at distance 2 is the box's first or last row,
          and the row next to it on the side of W is outside the box.
    Under I1-I3 the paper's chessboard procedure zeroes every distance-2
    row, each being next to the box's border ring, so its comparison with
    the W row two rows away never runs; the rule above is what remains.
    """
    rows = box.rect.rows()
    ix = np.ix_(rows, box.rect.cols())
    w2 = np.array([wdist[i] == 2 for i in rows])
    dead = np.r_[True, w2, True]
    want = np.where((w2 | dead[:-2] & dead[2:])[:, None], 0, box_pattern(box, anchor_val, ix))
    count = int((a[ix] != want).sum())
    a[ix] = want
    return count


# ---------------------------------------------------------------------------
# The full procedure.


@dataclass
class StabilizationReport:
    """What the stabilizer did: selected lines, W, boxes, per-step counts."""

    axis: str  # "rows" or "cols"
    i_rows: list[int]
    j_cols: list[int]
    w_cells: set[Cell]
    boxes: list[BoundingBox]
    box_stats: list[dict]
    step1: int
    step2: int
    step3: int
    step4: int
    output: TorusConfig

    @property
    def total_modified(self) -> int:
        return self.step1 + self.step2 + self.step3 + self.step4

    def to_json_dict(self) -> dict:
        return {
            "check": "stabilizer",
            "axis": self.axis,
            "i_rows": self.i_rows,
            "j_cols": self.j_cols,
            "w_cell_count": len(self.w_cells),
            "modified": {
                "step1": self.step1,
                "step2": self.step2,
                "step3": self.step3,
                "step4": self.step4,
                "total": self.total_modified,
            },
            "boxes": self.box_stats,
        }


def _transpose_box(box: BoundingBox) -> BoundingBox:
    r = box.rect
    return BoundingBox(
        rect=Rect(r.n, r.m, r.col0, r.width, r.row0, r.height),
        anchor=(box.anchor[1], box.anchor[0]),
        kind=box.kind,
    )


def stabilize(
    cfg: TorusConfig, eps: float, params: Optional[StabilizerParams] = None
) -> tuple[TorusConfig, StabilizationReport]:
    """Transform any configuration into a Threshold-2 stable one.

    Rows win ties against columns when choosing the wraparound axis; the
    column case runs the row machinery on the transpose.  Raises RuntimeError
    if the result fails the exact stability oracle (a bug, not an input
    condition), and ValueError if `params` is given with another eps.
    """
    if params is None:
        params = StabilizerParams(eps=eps)
    elif params.eps != eps:
        raise ValueError(f"eps {eps} differs from params.eps {params.eps}")
    alpha, k = params.alpha, params.k
    rows, cols = _alpha_lines(wraparound_planes(cfg.a), alpha)

    # The column case reads the column planes as rows of the transpose.
    use_rows = len(rows) >= len(cols)
    work = cfg.a.copy() if use_rows else cfg.a.T.copy()
    m2, n2 = work.shape

    # Step 1.
    w_rows, step1_changed = _repair_lines(work, rows if use_rows else cols)
    step1 = int(step1_changed.sum())

    # Step 2.
    rectangulated = rectangulate_exempt(work, k, w_rows)
    step2 = int((rectangulated != work).sum())
    work = rectangulated
    view = TorusConfig(work.copy())

    # Step 3.
    wdist = [min((cyclic_distance(i, r, m2) for r in w_rows), default=m2 + 10) for i in range(m2)]
    pairs = _compatible_boxes(_collect_good_boxes(view, k, alpha), view)
    step3 = 0
    box_stats, rep_boxes = [], []
    for box, v in pairs:
        anchor_val = view.read(box.anchor)
        near = [i for i in box.rect.rows() if wdist[i] <= 2]
        d = int(step1_changed[np.ix_(near, box.rect.cols())].sum()) if near else 0
        if near:
            mod = _fix_box_near_w_inplace(work, box, wdist, anchor_val)
        else:
            mod = _fix_box_inplace(work, box, anchor_val)
        step3 += mod
        rep_box = box if use_rows else _transpose_box(box)
        rep_boxes.append(rep_box)
        box_stats.append(
            {
                "rect": [rep_box.rect.row0, rep_box.rect.height, rep_box.rect.col0, rep_box.rect.width],
                "kind": box.kind,
                "v_count": v,
                "d_count": d,
                "modified": mod,
            }
        )

    # Step 4.
    keep = np.zeros(work.shape, dtype=bool)
    keep[w_rows] = True
    for box, _ in pairs:
        keep[np.ix_(box.rect.rows(), box.rect.cols())] = True
    step4 = int((work[~keep] != 0).sum())
    work[~keep] = 0

    out = TorusConfig(work if use_rows else work.T.copy())
    if not is_stable(out, THR2):
        raise RuntimeError("stabilizer bug: output configuration is not stable")

    w_cells = {(r, c) if use_rows else (c, r) for r in w_rows for c in range(n2)}
    report = StabilizationReport(
        axis="rows" if use_rows else "cols",
        i_rows=[r for r, _ in rows],
        j_cols=[c for c, _ in cols],
        w_cells=w_cells,
        boxes=rep_boxes,
        box_stats=box_stats,
        step1=step1,
        step2=step2,
        step3=step3,
        step4=step4,
        output=out,
    )
    return out, report
