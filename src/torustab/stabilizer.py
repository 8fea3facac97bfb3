"""Threshold-2 stabilization: wraparound repair, box repair, global cleanup.

The procedure runs in four steps.  Step 1 finds rows (or columns) that are
nearly chessboard wraparounds and repairs them into exact ones; the repaired
set W is exempt from everything that follows.  Step 2 applies the
k-rectangulation outside W.  Step 3 collects the maximal alpha-good bounding
boxes of sigma# and eliminates their interior violations, with a dedicated
procedure for boxes close to W.  Step 4 zeroes every cell left uncovered.

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
    von_neumann,
)
from .structure import MONO, Rect, rect_distance
from .tester import (
    BoundingBox,
    _parity,
    _rect_inner_boundary,
    classify_plus_kind,
    classify_wraparound,
    cross_region,
    edge_distance,
    interior_violation,
    perimeter_violation,
    rect_ring,
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
        if not (0 < self.eps / self.c2 < 0.5):
            raise ValueError("alpha must lie in (0, 1/2)")

    @property
    def alpha(self) -> float:
        return self.eps / self.c2

    @property
    def k(self) -> int:
        return math.ceil(self.c1 / self.eps)


# ---------------------------------------------------------------------------
# Step 1: wraparound rows and columns.


def _qualifying(count: int, length: int, alpha: float) -> bool:
    return count >= (1 - alpha) * length - 1e-9


def _alpha_lines(planes, alpha: float):
    """(rows, cols) that are alpha-wraparound consistent, with parity class,
    from the four `wraparound_planes`.

    Each entry is (index, parity) where parity 0 means state-1 cells sit at
    even positions along the line.
    """
    row_even, row_odd, col_even, col_odd = planes
    m, n = row_even.shape

    def lines(even: np.ndarray, odd: np.ndarray, length: int) -> list[tuple[int, int]]:
        out = []
        for idx, (ne, no) in enumerate(zip(even.sum(axis=1).tolist(), odd.sum(axis=1).tolist())):
            if _qualifying(ne, length, alpha):
                out.append((idx, 0))
            elif _qualifying(no, length, alpha):
                out.append((idx, 1))
        return out

    return lines(row_even, row_odd, n), lines(col_even.T, col_odd.T, m)


def alpha_wraparound_rows(cfg: TorusConfig, alpha: float) -> tuple[list[int], list[int]]:
    """Indices of alpha-wraparound-consistent rows and columns.

    A line qualifies when at least a (1 - alpha) fraction of its cells are
    wraparound consistent for a single parity class.
    """
    if not (0 < alpha < 0.5):
        raise ValueError(f"alpha must be in (0, 1/2), got {alpha}")
    rows, cols = _alpha_lines(wraparound_planes(cfg.a), alpha)
    return [r for r, _ in rows], [c for c, _ in cols]


def _fix_row_inplace(a: np.ndarray, r: int, anchor_col: int) -> set[Cell]:
    """Make row r an exact chessboard wraparound; returns the changed cells.

    The target pattern extends the anchor cell's parity; rows r+-1 are zeroed;
    in rows r+-2, cells that the pattern extension would activate are zeroed,
    and then (against a snapshot) all monochromatic cells there as well.
    """
    m, n = a.shape
    changed: set[Cell] = set()

    def put(i: int, j: int, v: int) -> None:
        if a[i, j] != v:
            a[i, j] = v
            changed.add((i, j))

    s0 = int(a[r, anchor_col])
    for c in range(n):
        put(r, c, ((c - anchor_col) % 2) ^ s0)
    rows1 = {(r - 1) % m, (r + 1) % m} - {r}
    for q in rows1:
        for c in range(n):
            put(q, c, 0)
    rows2 = {(r - 2) % m, (r + 2) % m} - {r} - rows1
    for q in rows2:
        for c in range(n):
            if ((c - anchor_col) % 2) ^ s0 == 1:
                put(q, c, 0)
    snap = a.copy()
    for q in rows2:
        for c in range(n):
            if snap[q, c] == 1 and any(
                snap[p] == 1 for p in von_neumann(m, n, (q, c))
            ):
                put(q, c, 0)
    return changed


def fix_wraparound_row(
    cfg: TorusConfig, r: int, parity: Optional[int] = None
) -> tuple[TorusConfig, int]:
    """Repair row r into an exact chessboard wraparound.

    The anchor is a wraparound-consistent cell of the majority parity class
    (or of the given parity).  Only rows r-2..r+2 are touched.  Returns the
    repaired configuration and the number of modified cells.
    """
    if cfg.n % 2 != 0:
        raise ValueError("a chessboard wraparound row needs an even row length")
    r %= cfg.m
    even_cols = []
    odd_cols = []
    for c in range(cfg.n):
        f = classify_wraparound(cfg, (r, c))
        if f.row_even:
            even_cols.append(c)
        if f.row_odd:
            odd_cols.append(c)
    if parity is None:
        if not even_cols and not odd_cols:
            raise NoMajorityClass(f"no wraparound-consistent cell in row {r}")
        parity = 0 if len(even_cols) >= len(odd_cols) else 1
    cols = even_cols if parity == 0 else odd_cols
    if not cols:
        raise NoMajorityClass(f"no parity-{parity} consistent cell in row {r}")
    a = cfg.a.copy()
    changed = _fix_row_inplace(a, r, cols[0])
    return TorusConfig(a), len(changed)


# ---------------------------------------------------------------------------
# Step 2: rectangulation outside W.


def rectangulate_exempt(a: np.ndarray, k: int, w_rows: Iterable[int]) -> np.ndarray:
    """The k-rectangulation of `a`, leaving the rows in `w_rows` untouched."""
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
    for ring in (1, 2):
        for p in rect_ring(box.rect, ring):
            if perimeter_violation(view, box, p):
                return None
    for p in _rect_inner_boundary(box.rect):
        if interior_violation(view, box, p):
            return None
    v = sum(1 for p in box.rect.cells() if interior_violation(view, box, p))
    if v > alpha * box.rect.size():
        return None
    return v


def alpha_good(view, cell: Cell, k: int, alpha: float) -> Optional[BoundingBox]:
    """The cell's bounding box if it exists and is alpha-good, else None."""
    box = cross_region(view, cell, k)
    if box is None:
        return None
    return box if _box_violations(view, box, alpha) is not None else None


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
            if classify_plus_kind(view, (i, j)) is None:
                continue
            box = cross_region(view, (i, j), k)
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


def maximal_good_boxes(view, k: int, alpha: float) -> list[BoundingBox]:
    """The maximal alpha-good bounding boxes of sigma#."""
    return [b for b, _ in _collect_good_boxes(view, k, alpha)]


def _planned_pattern(shape: tuple[int, int], box: BoundingBox, anchor_val: int) -> np.ndarray:
    """The repaired content of a box, alone on an otherwise empty torus."""
    arr = np.zeros(shape, dtype=np.uint8)
    m, n = shape
    for cell in box.rect.cells():
        arr[cell] = 1 if box.kind == MONO else anchor_val ^ _parity(m, n, box.anchor, cell)
    return arr


def _compatible_boxes(
    pairs: list[tuple[BoundingBox, int]], view
) -> list[tuple[BoundingBox, int]]:
    """Greedy structural filter over the good boxes.

    A repaired box becomes an exact rectangle, so the repaired configuration
    is a union of rectangles; it is stable only if each rectangle is legal on
    its own and every close pair coexists (distance and chessboard-phase
    constraints).  Individually good boxes can still clash -- e.g. two
    adjacent 2x2 chessboard blocks whose toggles merge into an unstable
    blob -- so boxes are kept largest-first, dropping any whose planned
    pattern is unstable alone or together with an already-kept neighbor.
    """
    shape = (view.m, view.n)
    order = sorted(
        pairs,
        key=lambda bv: (-bv[0].rect.size(), bv[0].rect.row0, bv[0].rect.col0, bv[0].kind),
    )
    planned: dict[int, np.ndarray] = {}

    def pattern(box: BoundingBox) -> np.ndarray:
        key = id(box)
        if key not in planned:
            planned[key] = _planned_pattern(shape, box, view.read(box.anchor))
        return planned[key]

    kept: list[tuple[BoundingBox, int]] = []
    for box, v in order:
        arr = pattern(box)
        if not is_stable(TorusConfig(arr), THR2):
            continue
        ok = True
        for other, _ in kept:
            if rect_distance(box.rect, other.rect) > 4:
                continue
            union = pattern(other).copy()
            cells = box.rect.cells()
            for cell in cells:
                union[cell] = arr[cell]
            if not is_stable(TorusConfig(union), THR2):
                ok = False
                break
        if ok:
            kept.append((box, v))
    return kept


def _fix_box_inplace(a: np.ndarray, box: BoundingBox, anchor_val: int) -> int:
    """Eliminate the box's interior violations; returns the modified count."""
    m, n = a.shape
    count = 0
    for cell in box.rect.cells():
        want = 1 if box.kind == MONO else anchor_val ^ _parity(m, n, box.anchor, cell)
        if a[cell] != want:
            a[cell] = want
            count += 1
    return count


def fix_box(cfg: TorusConfig, box: BoundingBox) -> tuple[TorusConfig, int]:
    """Repair a box that is far from every wraparound line."""
    a = cfg.a.copy()
    count = _fix_box_inplace(a, box, cfg[box.anchor])
    return TorusConfig(a), count


def _fix_box_near_w_inplace(
    a: np.ndarray,
    box: BoundingBox,
    w_rows: list[int],
    anchor_val: int,
    forced_zero: set[Cell],
) -> int:
    """The repair procedure for boxes within distance 2 of wraparound rows.

    Mono boxes drop their cells at distance 2 from W and fill the rest, with
    extra trimming for width-one boxes.  Chessboard boxes re-pattern cells at
    distance 2 only where the pattern disagrees with the wraparound cell two
    rows away, then re-pattern the remainder unless a row ends up squeezed
    between dead rows (which would leave an illegal one-row strip).
    `forced_zero` holds cells already zeroed by the wraparound repair.
    """
    m, n = a.shape
    rect = box.rect
    wdist = [min((cyclic_distance(i, r, m) for r in w_rows), default=m + 10) for i in range(m)]
    rows_set = set(rect.rows())
    ring_rows = (
        set()
        if rect.height == m
        else {(rect.row0 - 1) % m, (rect.row0 + rect.height) % m}
    )
    changed = 0
    zero_now = set(forced_zero)

    def put(cell: Cell, v: int, track: bool = False) -> None:
        nonlocal changed
        if a[cell] != v:
            a[cell] = v
            changed += 1
            if track and v == 0:
                zero_now.add(cell)

    def near_ring(i: int) -> bool:
        return any((i + d) % m in ring_rows for d in (-1, 1))

    if box.kind == MONO:
        for cell in rect.cells():
            if wdist[cell[0]] == 2:
                put(cell, 0, track=True)
        for cell in rect.cells():
            i = cell[0]
            if rect.width == 1:
                g2 = sum(1 for p in von_neumann(m, n, cell) if wdist[p[0]] == 2)
                if g2 >= 2 or (g2 == 1 and near_ring(i)):
                    put(cell, 0)
                    continue
            if wdist[i] >= 3:
                put(cell, 1)
        return changed

    def pat(cell: Cell) -> int:
        return anchor_val ^ _parity(m, n, box.anchor, cell)

    for cell in rect.cells():
        i, j = cell
        if wdist[i] != 2:
            continue
        near_w = [r for r in w_rows if cyclic_distance(i, r, m) == 2]
        if len(near_w) >= 2 or (len(near_w) == 1 and near_ring(i)):
            put(cell, 0, track=True)
        else:
            partner = (near_w[0], j)
            v = pat(cell)
            if v != a[partner]:
                put(cell, v, track=True)

    def dead(q: int) -> bool:
        q %= m
        if q not in rows_set:
            return True
        return all((q, c) in zero_now for c in rect.cols())

    dead_memo = {q: dead(q) for q in range(m)}
    for cell in rect.cells():
        i = cell[0]
        if wdist[i] <= 2:
            continue
        if dead_memo[(i - 1) % m] and dead_memo[(i + 1) % m]:
            put(cell, 0)
        else:
            put(cell, pat(cell))
    return changed


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
        k=box.k,
    )


def stabilize(
    cfg: TorusConfig, eps: float, params: Optional[StabilizerParams] = None
) -> tuple[TorusConfig, StabilizationReport]:
    """Transform any configuration into a Threshold-2 stable one.

    Rows win ties against columns when choosing the wraparound axis; the
    column case runs the row machinery on the transpose.  Raises RuntimeError
    if the result fails the exact stability oracle (a bug, not an input
    condition).
    """
    if params is None:
        params = StabilizerParams(eps=eps)
    alpha, k = params.alpha, params.k
    planes = wraparound_planes(cfg.a)
    rows, cols = _alpha_lines(planes, alpha)

    # The column case reads the column planes as rows of the transpose.
    use_rows = len(rows) >= len(cols)
    if use_rows:
        work = cfg.a.copy()
        lines = rows
        line_planes = planes[:2]
    else:
        work = cfg.a.T.copy()
        lines = cols
        line_planes = (planes[2].T, planes[3].T)

    def anchor_col(r: int, parity: int) -> int:
        """The first position along line r flagged for the parity class."""
        return int(np.flatnonzero(line_planes[parity][r])[0])

    m2, n2 = work.shape

    # Step 1.  Same-parity lines at distance 2 would zero each other's cells,
    # so only the first of each such pair is repaired.
    kept: list[tuple[int, int]] = []
    for r, p in sorted(lines):
        if any(cyclic_distance(r, r2, m2) == 2 and p2 == p for r2, p2 in kept):
            continue
        kept.append((r, p))
    step1_changed: set[Cell] = set()
    for r, p in kept:
        step1_changed |= _fix_row_inplace(work, r, anchor_col(r, p))
    w_rows: list[int] = []
    for r, p in kept:
        ok_row = all(work[r, c] == (1 if c % 2 == p else 0) for c in range(n2))
        nb_rows = {(r - 1) % m2, (r + 1) % m2} - {r}
        ok_nb = all(not work[q, :].any() for q in nb_rows)
        if ok_row and ok_nb:
            w_rows.append(r)
    step1 = len(step1_changed)
    forced_zero = {c for c in step1_changed if work[c] == 0}

    # Step 2.
    rectangulated = rectangulate_exempt(work, k, w_rows)
    step2 = int((rectangulated != work).sum())
    work = rectangulated
    view = TorusConfig(work.copy())

    # Step 3.
    wdist = [min((cyclic_distance(i, r, m2) for r in w_rows), default=m2 + 10) for i in range(m2)]
    pairs = _compatible_boxes(_collect_good_boxes(view, k, alpha), view)
    step3 = 0
    box_stats = []
    for box, v in pairs:
        anchor_val = view.read(box.anchor)
        if all(wdist[i] > 2 for i in box.rect.rows()):
            mod = _fix_box_inplace(work, box, anchor_val)
            d = 0
        else:
            d = sum(
                1
                for c in box.rect.cells()
                if wdist[c[0]] <= 2 and c in step1_changed
            )
            mod = _fix_box_near_w_inplace(work, box, w_rows, anchor_val, forced_zero)
        step3 += mod
        rep_box = box if use_rows else _transpose_box(box)
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
    for r in w_rows:
        keep[r, :] = True
    for box, _ in pairs:
        for cell in box.rect.cells():
            keep[cell] = True
    step4 = int((work[~keep] != 0).sum())
    work[~keep] = 0

    out = TorusConfig(work if use_rows else work.T.copy())
    if not is_stable(out, THR2):
        raise RuntimeError("stabilizer bug: output configuration is not stable")

    if use_rows:
        w_cells = {(r, c) for r in w_rows for c in range(n2)}
        rep_boxes = [b for b, _ in pairs]
    else:
        w_cells = {(c, r) for r in w_rows for c in range(n2)}
        rep_boxes = [_transpose_box(b) for b, _ in pairs]
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
