"""Tests for the stabilization procedure and its building blocks.

The headline guarantee is unconditional: the output of stabilize passes the
exact stability oracle on every input we can throw at it, including the full
4x4 configuration space.  The per-step modification counters are checked
against their analytic budgets on realistic input families.
"""

import numpy as np
import pytest

import torustab.stabilizer
import torustab.tester
from torustab import THR2, TorusConfig, is_stable
from torustab.generators import GenSpec, gen_hard_thr2, gen_stable_thr2, perturb
from torustab.grid import cyclic_distance, is_cell_stable, von_neumann
from torustab.stabilizer import (
    NoMajorityClass,
    StabilizerParams,
    _alpha_lines,
    _box_violations,
    _collect_good_boxes,
    _fix_box_inplace,
    _fix_box_near_w_inplace,
    _fix_row_inplace,
    fix_wraparound_row,
    rectangulate_exempt,
    stabilize,
)
from torustab.structure import CHESS, MONO, Rect
from torustab.tester import (
    BoundingBox,
    box_pattern,
    classify_plus_kind,
    cross_region,
    interior_violation,
    wraparound_planes,
)

from grid_reference import (
    all_small_tori,
    near_w_boxes,
    noisy_wraparound,
    rect_cells,
    stabilizer_fuzz_inputs,
)


def alpha_good(view, cell, k, alpha):
    """The cell's bounding box if it exists and is alpha-good, else None."""
    kind = classify_plus_kind(view, cell)
    if kind is None:
        return None
    box = cross_region(view, cell, k, kind)
    return None if _box_violations(view, box, alpha) is None else box


def all_4x4():
    codes = np.arange(1 << 16, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    return bits.reshape(-1, 4, 4)


def slow_rectangulate(a, k, w_rows):
    """Reference k-rectangulation from the definition, cell by cell: zero the
    tile borders outside W, then every cell outside W within edge distance 2
    whose distinct Moore neighbors other than itself are all 0."""
    m, n = a.shape

    def edge(x, size):
        tiles = size // k
        if tiles <= 1:
            return size  # a single-tile axis has no borders
        spans = [(t * k, t * k + k - 1) for t in range(tiles - 1)] + [((tiles - 1) * k, size - 1)]
        return next(min(x - lo, hi - x) for lo, hi in spans if lo <= x <= hi)

    exempt = {r % m for r in w_rows}
    z = a.copy()
    for i in range(m):
        for j in range(n):
            if i not in exempt and 0 in (edge(i, m), edge(j, n)):
                z[i, j] = 0
    out = z.copy()
    for i in range(m):
        for j in range(n):
            if i in exempt or z[i, j] == 0 or min(edge(i, m), edge(j, n)) > 2:
                continue
            nbs = {((i + p) % m, (j + q) % n) for p in (-1, 0, 1) for q in (-1, 0, 1)}
            if all(z[c] == 0 for c in nbs - {(i, j)}):
                out[i, j] = 0
    return out


def slow_fix_row(a, r, anchor_col):
    """Reference Step 1 row repair, cell by cell; returns the changed cells."""
    m, n = a.shape
    changed = set()

    def put(i, j, v):
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
            if snap[q, c] == 1 and any(snap[p] == 1 for p in von_neumann(m, n, (q, c))):
                put(q, c, 0)
    return changed


def near_w_broken(box, wdist):
    """The invariants of `_fix_box_near_w_inplace` that the box breaks, given
    each row's distance to W: I1, a chessboard box; I2, no row at distance
    < 2; I3, each row at distance 2 has its neighbor toward W outside."""
    rows, m = box.rect.rows(), box.rect.m
    beside_w = [
        any(q % m not in rows and wdist[q % m] < 2 for q in (i - 1, i + 1))
        for i in rows
        if wdist[i] == 2
    ]
    checks = {"I1": box.kind == CHESS, "I2": min(wdist[i] for i in rows) >= 2, "I3": all(beside_w)}
    return [name for name, held in checks.items() if not held]


def slow_fix_box_near_w(a, box, w_rows, wdist, anchor_val):
    """Reference near-W box repair, cell by cell; returns the modified count."""
    m, n = a.shape
    rect = box.rect
    rows, cols = rect.rows(), rect.cols()
    before = a[np.ix_(rows, cols)].copy()
    ring_rows = (
        set()
        if rect.height == m
        else {(rect.row0 - 1) % m, (rect.row0 + rect.height) % m}
    )

    def near_ring(i):
        return any((i + d) % m in ring_rows for d in (-1, 1))

    if box.kind == MONO:
        for cell in rect_cells(rect):
            i = cell[0]
            if wdist[i] == 2:
                a[cell] = 0
            if rect.width == 1:
                g2 = sum(1 for p in von_neumann(m, n, cell) if wdist[p[0]] == 2)
                if g2 >= 2 or (g2 == 1 and near_ring(i)):
                    a[cell] = 0
                    continue
            if wdist[i] >= 3:
                a[cell] = 1
    else:
        for cell in rect_cells(rect):
            i, j = cell
            if wdist[i] != 2:
                continue
            near_w = [r for r in w_rows if cyclic_distance(i, r, m) == 2]
            if len(near_w) >= 2 or (len(near_w) == 1 and near_ring(i)):
                a[cell] = 0
            else:
                v = box_pattern(box, anchor_val, cell)
                if v != a[near_w[0], j]:
                    a[cell] = v

        def dead(q):
            q %= m
            outside = (q - rect.row0) % m >= rect.height
            return outside or (wdist[q] == 2 and not a[q, cols].any())

        for i in rows:
            if wdist[i] <= 2:
                continue
            if dead(i - 1) and dead(i + 1):
                a[i, cols] = 0
            else:
                for j in cols:
                    a[i, j] = box_pattern(box, anchor_val, (i, j))
    return int((a[np.ix_(rows, cols)] != before).sum())


class TestParams:
    def test_defaults(self):
        p = StabilizerParams(eps=0.1)
        assert p.alpha == pytest.approx(0.1 / 68)
        assert p.k == 480

    def test_validation(self):
        with pytest.raises(ValueError):
            StabilizerParams(eps=0.0)
        with pytest.raises(ValueError):
            StabilizerParams(eps=1.5)
        with pytest.raises(ValueError):
            StabilizerParams(eps=0.5, c1=2)

    def test_valid_params_give_alpha_at_most_one_third(self):
        """eps in (0, 1] and c2 >= 3 leave alpha in (0, 1/3], which Step 1's
        argument that every repaired line joins W rests on."""
        rng = np.random.default_rng(14)
        eps_values = [1.0, 0.5, 1e-9, *(1 - rng.random(200))]
        for eps in eps_values:
            for c2 in (3, 4, 68, *(int(c) for c in rng.integers(3, 10**6, size=5))):
                alpha = StabilizerParams(eps=eps, c2=c2).alpha
                assert 0 < alpha <= 1 / 3, (eps, c2)


class TestAlphaWraparoundRows:
    """`_alpha_lines` on the wraparound planes: (index, parity) per line,
    parity 0 meaning state-1 cells at even positions."""

    def test_all_zero(self):
        assert _alpha_lines(wraparound_planes(np.zeros((8, 8), np.uint8)), 0.2) == ([], [])

    def test_perfect_row_listed(self):
        a = np.zeros((8, 8), np.uint8)
        a[2, :] = (np.arange(8) + 1) % 2
        assert _alpha_lines(wraparound_planes(a), 0.2) == ([(2, 0)], [])

    def test_perfect_column_listed(self):
        a = np.zeros((8, 8), np.uint8)
        a[:, 5] = (np.arange(8) + 1) % 2
        assert _alpha_lines(wraparound_planes(a), 0.2) == ([], [(5, 0)])

    def test_one_corrupted_cell_on_wide_row(self):
        # Consistency is a window property: one bad cell invalidates every
        # cell within row distance 3, so the row must be wide enough for a
        # single corruption to stay under an alpha = 0.2 budget.
        a = np.zeros((8, 36), np.uint8)
        a[2, :] = (np.arange(36) + 1) % 2
        a[2, 10] = 0
        assert _alpha_lines(wraparound_planes(a), 0.2)[0] == [(2, 0)]
        assert _alpha_lines(wraparound_planes(a), 0.05)[0] == []


class TestFixWraparoundRow:
    def test_idempotent_on_perfect_row(self):
        a = np.zeros((8, 8), np.uint8)
        a[2, :] = (np.arange(8) + 1) % 2
        out, count = fix_wraparound_row(TorusConfig(a), 2)
        assert count == 0 and out == TorusConfig(a)

    def test_repairs_single_flip(self):
        a = np.zeros((8, 8), np.uint8)
        a[2, :] = (np.arange(8) + 1) % 2
        a[2, 3] = 1
        out, count = fix_wraparound_row(TorusConfig(a), 2)
        assert count == 1
        assert [out[(2, c)] for c in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]
        assert is_stable(out, THR2)

    def test_modifications_confined_to_five_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            cfg = TorusConfig((rng.random((9, 10)) < 0.4).astype(np.uint8))
            try:
                out, _ = fix_wraparound_row(cfg, 4)
            except NoMajorityClass:
                continue
            diff_rows = {i for i in range(9) for j in range(10) if out[(i, j)] != cfg[(i, j)]}
            assert diff_rows <= {2, 3, 4, 5, 6}

    def test_row_becomes_exact_wraparound(self):
        # Near-wraparound rows: a perfect chessboard row with one corrupted
        # cell, a stray 1 beside it, and noise in the far rows.
        rng = np.random.default_rng(12)
        for _ in range(80):
            a = np.zeros((10, 12), np.uint8)
            phase = int(rng.integers(2))
            a[5, :] = (np.arange(12) + phase) % 2
            a[5, rng.integers(12)] ^= 1
            a[rng.choice([3, 7]), rng.integers(12)] = 1
            far = rng.random((3, 12)) < 0.3
            a[:3][far] ^= 1
            out, _ = fix_wraparound_row(TorusConfig(a), 5)
            row = [out[(5, c)] for c in range(12)]
            assert row in ([c % 2 for c in range(12)], [(c + 1) % 2 for c in range(12)])
            assert all(out[(4, c)] == 0 and out[(6, c)] == 0 for c in range(12))

    def test_matches_cell_reference_on_small_shapes(self):
        rng = np.random.default_rng(13)
        for _ in range(3000):
            m, n = (int(x) for x in rng.integers(1, 12, size=2))
            a = (rng.random((m, n)) < rng.random()).astype(np.uint8)
            r, c = int(rng.integers(m)), int(rng.integers(n))
            want = a.copy()
            cells = slow_fix_row(want, r, c)
            # The anchor's parity class: state-1 cells at even positions is 0.
            changed = _fix_row_inplace(a, r, (c + 1 - int(a[r, c])) % 2)
            assert np.array_equal(a, want)
            assert set(map(tuple, np.argwhere(changed).tolist())) == cells

    def test_majority_class_of_the_row_plane(self):
        """The repair takes the parity class that more cells of the row hold
        in `wraparound_planes`, 0 on a tie.  Ties are built as two half rows
        of opposite class in a grid symmetric under the mirror j -> n-1-j,
        which maps each class-0 cell of the row to a class-1 cell."""
        rng = np.random.default_rng(15)
        seen = {"tie": 0, "0": 0, "1": 0}
        for trial in range(600):
            m, n = int(rng.integers(5, 12)), 2 * int(rng.integers(4, 10))
            r = int(rng.integers(m))
            a = (rng.random((m, n)) < rng.uniform(0, 0.1)).astype(np.uint8)
            if trial % 2 == 0:
                a[:, n // 2 :] = a[:, : n // 2][:, ::-1]
                a[r] = (np.arange(n) + (np.arange(n) >= n // 2) + 1) % 2
                a[r, rng.integers(n // 2, size=int(rng.integers(0, 2)))] ^= 1
                a[r, n // 2 :] = a[r, : n // 2][::-1]
            else:
                a[r] = (np.arange(n) + rng.integers(2)) % 2
                a[r, rng.integers(n, size=int(rng.integers(0, 3)))] ^= 1
            plane = wraparound_planes(a)[0][r]
            count0, count1 = int((plane == 0).sum()), int((plane == 1).sum())
            if count0 + count1 == 0:
                continue
            parity = 0 if count0 >= count1 else 1
            seen["tie" if count0 == count1 else str(parity)] += 1
            out, count = fix_wraparound_row(TorusConfig(a), r)
            want = a.copy()
            cells = slow_fix_row(want, r, int(np.flatnonzero(plane == parity)[0]))
            assert (out.a[r] == (np.arange(n) + parity + 1) % 2).all(), (a.tolist(), r)
            assert (out.a == want).all() and count == len(cells), (a.tolist(), r)
        assert min(seen.values()) >= 50, seen

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            fix_wraparound_row(TorusConfig.zeros(6, 7), 2)

    def test_no_majority_class(self):
        with pytest.raises(NoMajorityClass):
            fix_wraparound_row(TorusConfig.ones(8, 8), 3)


def block_view(block_rows, block_cols, shape=(20, 20), holes=(), extras=()):
    a = np.zeros(shape, np.uint8)
    a[block_rows[0] : block_rows[1], block_cols[0] : block_cols[1]] = 1
    for cell in holes:
        a[cell] = 0
    for cell in extras:
        a[cell] = 1
    return TorusConfig(a)


class TestRectangulateExempt:
    def test_small_shapes_match_cell_reference(self):
        # Every shape from 1x1 to 6x8, without and with an exempt row.
        rng = np.random.default_rng(81)
        for m in range(1, 7):
            for n in range(1, 9):
                for k in range(1, 5):
                    a = (rng.random((m, n)) < 0.4).astype(np.uint8)
                    for w_rows in ([], [int(rng.integers(0, m))]):
                        got = rectangulate_exempt(a, k, w_rows)
                        assert (got == slow_rectangulate(a, k, w_rows)).all(), (m, n, k, w_rows)


class TestAlphaGood:
    def test_perfect_block(self):
        view = block_view((5, 7), (5, 8))
        box = alpha_good(view, (5, 5), 6, 0.1)
        assert box is not None and box.kind == "mono"
        assert (box.rect.height, box.rect.width) == (2, 3)

    def test_block_with_hole_needs_alpha_budget(self):
        view = block_view((5, 9), (5, 10), holes=[(7, 7)])
        assert alpha_good(view, (5, 5), 6, 0.1) is not None
        assert alpha_good(view, (5, 5), 6, 0.01) is None

    def test_adjacent_one_breaks_perimeter(self):
        view = block_view((5, 7), (5, 8), extras=[(7, 6)])
        assert alpha_good(view, (5, 5), 6, 0.4) is None


class TestMaximalGoodBoxes:
    def test_two_far_blocks(self):
        a = np.zeros((24, 24), np.uint8)
        a[2:4, 2:5] = 1
        a[14:17, 12:16] = 1
        boxes = [b for b, _ in _collect_good_boxes(TorusConfig(a), 6, 0.1)]
        rects = sorted((b.rect.row0, b.rect.col0, b.rect.height, b.rect.width) for b in boxes)
        assert rects == [(2, 2, 2, 3), (14, 12, 3, 4)]

    def test_pairwise_disjoint_on_random_configs(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            m = int(rng.integers(6, 14))
            n = int(rng.integers(6, 14))
            cfg = TorusConfig((rng.random((m, n)) < 0.35).astype(np.uint8))
            view = TorusConfig(rectangulate_exempt(cfg.a.copy(), 5, []))
            boxes = [b for b, _ in _collect_good_boxes(view, 5, 0.2)]
            for i, b1 in enumerate(boxes):
                for b2 in boxes[i + 1 :]:
                    assert not (rect_cells(b1.rect) & rect_cells(b2.rect))

    def test_each_cell_classified_once(self, monkeypatch):
        # Step 3 classifies every cell of sigma# once and hands the kind to
        # `cross_region`, which does not classify again.
        classify = torustab.tester.classify_plus_kind
        calls = []

        def counted(view, cell):
            calls.append(cell)
            return classify(view, cell)

        for module in (torustab.tester, torustab.stabilizer):
            monkeypatch.setattr(module, "classify_plus_kind", counted)
        rng = np.random.default_rng(7)
        cfg = TorusConfig((rng.random((24, 24)) < 0.5).astype(np.uint8))
        stabilize(cfg, 0.5)
        assert len(calls) == len(set(calls)) == 24 * 24


class TestFixBox:
    def test_mono_two_holes(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:9, 5:10] = 1
        a[6, 6] = 0
        a[7, 8] = 0
        view = TorusConfig(a)
        box = alpha_good(view, (5, 5), 6, 0.2)
        assert box is not None
        out = a.copy()
        assert _fix_box_inplace(out, box, a[box.anchor]) == 2
        assert out[5:9, 5:10].all()

    def test_clean_box_zero_count(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        view = TorusConfig(a)
        box = alpha_good(view, (5, 5), 6, 0.1)
        assert _fix_box_inplace(a.copy(), box, a[box.anchor]) == 0

    def test_chess_repair_clears_violations(self):
        a = np.zeros((20, 20), np.uint8)
        for i in range(5, 10):
            for j in range(5, 11):
                a[i, j] = (i + j) % 2
        a[7, 7] ^= 1
        view = TorusConfig(a)
        box = alpha_good(view, (5, 6), 6, 0.2)
        assert box is not None and box.kind == "chess"
        out = a.copy()
        assert _fix_box_inplace(out, box, a[box.anchor]) == 1
        assert not any(interior_violation(TorusConfig(out), box, c) for c in rect_cells(box.rect))


class TestFixBoxNearW:
    CASES = ("any", "between-two-w", "wraps-seam")

    @staticmethod
    def seeded_case(rng, case):
        """(grid, box, W rows) of one case: chessboard wraparound W rows in a
        random grid, and a chessboard box with rows within distance 2 of W."""
        m, n = int(rng.integers(3, 13)), int(rng.integers(1, 13))
        height, width = int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))
        row0 = int(rng.integers(m))
        w_rows = sorted({int(r) for r in rng.integers(m, size=int(rng.integers(1, 4)))})
        if case == "between-two-w":
            r, gap = w_rows[0], int(rng.integers(4, 8))
            if gap >= m:
                m = gap + 1
            w_rows = [r, (r + gap) % m]
            row0, height = (r + 2) % m, gap - 3
        elif case == "wraps-seam":
            height = max(height, 2)
            row0 = m - int(rng.integers(1, height))
        a = (rng.random((m, n)) < 0.5).astype(np.uint8)
        for r in w_rows:
            a[r] = (np.arange(n) + rng.integers(2)) % 2
        col0 = int(rng.integers(n))
        rect = Rect(m, n, row0 % m, height, col0, width)
        anchor = ((row0 + int(rng.integers(height))) % m, (col0 + int(rng.integers(width))) % n)
        return a, BoundingBox(rect, anchor, CHESS), w_rows

    def test_rows_match_cell_reference(self):
        """The row rule writes the same grid and returns the same count as
        the per-cell reference of the paper's procedure, on seeded boxes of
        each case that hold I1-I3 (the others are drawn and skipped)."""
        rng = np.random.default_rng(41)
        reached = dict.fromkeys(self.CASES, 0)
        for trial in range(7500):
            case = self.CASES[trial % len(self.CASES)]
            a, box, w_rows = self.seeded_case(rng, case)
            m = a.shape[0]
            wdist = [min(cyclic_distance(i, r, m) for r in w_rows) for i in range(m)]
            if near_w_broken(box, wdist):
                continue
            anchor_val = int(a[box.anchor])
            want, got = a.copy(), a.copy()
            count = slow_fix_box_near_w(want, box, w_rows, wdist, anchor_val)
            assert _fix_box_near_w_inplace(got, box, wdist, anchor_val) == count, (case, trial)
            assert (got == want).all(), (case, trial)
            reached[case] += count > 0 and any(wdist[i] == 2 for i in box.rect.rows())
        assert min(reached.values()) >= 100, reached


class TestNearWInvariants:
    def test_boxes_near_w_hold_invariants(self, monkeypatch):
        """Every box that `stabilize` sends to the near-W repair holds I1-I3,
        on grids that plant mono, chessboard and width-1 boxes 2 or 3 rows
        from a wraparound row, at one and at several tiles per axis."""
        fix = torustab.stabilizer._fix_box_near_w_inplace
        calls = []

        def checked(a, box, wdist, anchor_val):
            broken = near_w_broken(box, wdist)
            assert not broken, (box, broken)
            calls.append(box)
            return fix(a, box, wdist, anchor_val)

        monkeypatch.setattr(torustab.stabilizer, "_fix_box_near_w_inplace", checked)
        rng = np.random.default_rng(42)
        for _ in range(100):
            cfg = near_w_boxes(rng, int(rng.integers(9, 41)), 2 * int(rng.integers(3, 20)))
            for c1 in (4, 48):
                for eps in (0.5, 1.0):
                    out, _ = stabilize(cfg, eps, StabilizerParams(eps=eps, c1=c1, c2=3))
                    assert is_stable(out, THR2)
        assert len(calls) >= 100


class TestWInvariants:
    def test_w_lines_exact_beside_zero_lines(self, monkeypatch):
        """Every line Step 1 repairs joins W: when Step 2 receives W, each of
        its lines alternates exactly and its neighbor lines are all 0, on the
        seeded fuzz inputs and on noisy wraparound rows, both axes, at c2 3
        (alpha up to 1/3) and 68."""
        rectangulate = torustab.stabilizer.rectangulate_exempt
        lines = []

        def checked(a, k, w_rows):
            m = a.shape[0]
            for r in w_rows:
                assert (a[r] != np.roll(a[r], 1)).all(), (a.tolist(), r)
                assert not a[[q % m for q in (r - 1, r + 1) if q % m != r]].any(), (a.tolist(), r)
                lines.append(r)
            return rectangulate(a, k, w_rows)

        monkeypatch.setattr(torustab.stabilizer, "rectangulate_exempt", checked)
        cases = list(stabilizer_fuzz_inputs(4, 600))
        rng = np.random.default_rng(16)
        for _ in range(40):
            a = noisy_wraparound(rng, int(rng.integers(8, 33)), 2 * int(rng.integers(4, 17))).a
            cases += [(a, eps) for eps in (0.5, 1.0)] + [(a.T, eps) for eps in (0.5, 1.0)]
        for a, eps in cases:
            for c2 in (3, 68):
                out, _ = stabilize(TorusConfig(a), eps, StabilizerParams(eps=eps, c2=c2))
                assert is_stable(out, THR2)
        assert len(lines) >= 100, len(lines)


class TestStabilize:
    def test_params_with_other_eps_rejected(self):
        cfg = TorusConfig.zeros(8, 8)
        with pytest.raises(ValueError):
            stabilize(cfg, 0.1, StabilizerParams(eps=0.5))
        out, _ = stabilize(cfg, 0.5, StabilizerParams(eps=0.5, c2=3))
        assert out == cfg

    def test_all_zero_untouched(self):
        cfg = TorusConfig.zeros(16, 16)
        out, report = stabilize(cfg, 0.1)
        assert out == cfg and report.total_modified == 0

    def test_exhaustive_4x4_postcondition(self):
        for grid in all_4x4():
            out, _ = stabilize(TorusConfig(grid), 0.25)
            assert is_stable(out, THR2)

    def test_every_small_torus_postcondition(self):
        """Sides of 1 and 2 included: on a 2-cycle an alternating line does
        not toggle, so Step 1 must not take it for a wraparound."""
        for grids in all_small_tori(10):
            for grid in grids:
                for eps in (0.5, 1.0):
                    out, _ = stabilize(TorusConfig(grid), eps)
                    assert is_stable(out, THR2), (TorusConfig(grid).to_text(), eps)

    def test_random_64x64_postcondition(self):
        rng = np.random.default_rng(31)
        for trial in range(1000):
            density = 0.1 + 0.8 * (trial % 9) / 8
            cfg = TorusConfig((rng.random((64, 64)) < density).astype(np.uint8))
            out, _ = stabilize(cfg, 0.1)
            assert is_stable(out, THR2)

    def test_random_small_postcondition_and_counters(self):
        rng = np.random.default_rng(32)
        for trial in range(400):
            m = int(rng.integers(3, 13))
            n = int(rng.integers(3, 13))
            density = [0.05, 0.2, 0.5, 0.8][trial % 4]
            eps = [0.1, 0.3, 0.7][trial % 3]
            cfg = TorusConfig((rng.random((m, n)) < density).astype(np.uint8))
            params = StabilizerParams(eps=eps)
            out, report = stabilize(cfg, eps, params)
            assert is_stable(out, THR2)
            assert report.step2 <= 12 * m * n / params.k + 1e-9
            for stats in report.box_stats:
                size = stats["rect"][1] * stats["rect"][3]
                bound = 2 * (params.alpha * size + stats["d_count"])
                assert stats["modified"] <= max(bound, stats["v_count"])

    def test_step1_budget_on_noisy_wraparounds(self):
        # Realistic near-wraparound inputs: perfect wraparound rows plus
        # sparse noise.  The adversarial worst case (many stacked in-phase
        # alternating rows) exceeds the 5-alpha-m-n budget and is excluded.
        rng = np.random.default_rng(33)
        for trial in range(60):
            m, n = 24, 24
            a = np.zeros((m, n), np.uint8)
            for r in (4, 12, 20):
                a[r, :] = (np.arange(n) + rng.integers(2)) % 2
            noise = rng.random((m, n)) < 0.01
            a ^= noise.astype(np.uint8)
            eps = 0.5
            params = StabilizerParams(eps=eps)
            out, report = stabilize(TorusConfig(a), eps, params)
            assert is_stable(out, THR2)
            assert report.step1 <= 5 * params.alpha * m * n

    def test_stable_inputs_barely_modified(self):
        for seed in range(40):
            spec = GenSpec(m=32, n=32, rects=4, seed=seed, wraparound_row=(seed % 3 == 0))
            cfg = gen_stable_thr2(spec)
            out, _ = stabilize(cfg, 0.1)
            hamming = int((out.a != cfg.a).sum())
            assert hamming < 0.1 * 32 * 32
            assert is_stable(out, THR2)

    def test_perturbed_stable_inputs(self):
        rng = np.random.default_rng(34)
        for seed in range(30):
            cfg = perturb(gen_stable_thr2(GenSpec(m=24, n=24, rects=3, seed=seed)), 10, rng)
            out, _ = stabilize(cfg, 0.2)
            assert is_stable(out, THR2)

    def test_hard_instances(self):
        for n in (12, 16, 24):
            out, _ = stabilize(gen_hard_thr2(n), 0.1)
            assert is_stable(out, THR2)

    @pytest.mark.parametrize(
        "rows, eps, axis, total",
        [
            # W = row 5, one chessboard box at rows 2-3, cols 4-5; row 3 is
            # dead, so (2, 4) must not keep a lone 1.
            ("000100 000000 000010 000001 000000 101010" + " 000000" * 5, 0.1, "rows", 3),
            ("0000 0000 1000 0100 0000 1010 0000 0000 0000 1010", 0.75, "rows", 2),
            ("0000000100000 0000100000000 0010001000000 0100100000000", 1.0, "cols", 4),
        ],
    )
    def test_box_near_w_beside_zero_row(self, rows, eps, axis, total):
        """A distance-2 row of the box that was all 0 before the repair is
        dead like one the repair zeroed."""
        a = np.array([[int(ch) for ch in row] for row in rows.split()], np.uint8)
        out, report = stabilize(TorusConfig(a), eps)
        assert is_stable(out, THR2)
        assert (report.axis, report.total_modified) == (axis, total)

    def test_seeded_fuzz_never_raises(self):
        for a, eps in stabilizer_fuzz_inputs(1, 2000):
            out, _ = stabilize(TorusConfig(a), eps)
            assert is_stable(out, THR2)

    def test_report_json_shape(self):
        rng = np.random.default_rng(35)
        cfg = TorusConfig((rng.random((10, 10)) < 0.4).astype(np.uint8))
        _, report = stabilize(cfg, 0.3)
        d = report.to_json_dict()
        assert d["check"] == "stabilizer"
        assert d["axis"] in ("rows", "cols")
        assert d["modified"]["total"] == report.total_modified
        assert all(set(b) == {"rect", "kind", "v_count", "d_count", "modified"} for b in d["boxes"])

    def test_zeroed_stable_cells_lack_good_boxes(self):
        # A cell that was stable in the input yet got zeroed in step 4 should
        # not sit in an alpha-good box of sigma#.  Rare exceptions exist:
        # individually good boxes whose repairs clash are dropped by the
        # structural compatibility filter, so their cells are also zeroed.
        rng = np.random.default_rng(36)
        checked = exceptions = 0
        for trial in range(200):
            m = int(rng.integers(4, 11))
            n = int(rng.integers(4, 11))
            cfg = TorusConfig((rng.random((m, n)) < [0.15, 0.4, 0.7][trial % 3]).astype(np.uint8))
            eps = [0.1, 0.3][trial % 2]
            params = StabilizerParams(eps=eps)
            out, report = stabilize(cfg, eps, params)
            if report.axis != "rows" or report.step1 != 0:
                continue
            view = TorusConfig(rectangulate_exempt(cfg.a.copy(), params.k, []))
            kept = {(b.rect.row0, b.rect.col0, b.rect.height, b.rect.width) for b in report.boxes}
            for i in range(m):
                for j in range(n):
                    cell = (i, j)
                    if not (cfg[cell] == 1 and out[cell] == 0):
                        continue
                    if cell in report.w_cells or any(cell in b.rect for b in report.boxes):
                        continue
                    if not is_cell_stable(cfg, THR2, cell):
                        continue
                    if classify_plus_kind(view, cell) is None:
                        continue
                    checked += 1
                    box = alpha_good(view, cell, params.k, params.alpha)
                    if box is not None:
                        r = box.rect
                        assert (r.row0, r.col0, r.height, r.width) not in kept
                        exceptions += 1
        assert checked > 1000
        assert exceptions <= 0.01 * checked
