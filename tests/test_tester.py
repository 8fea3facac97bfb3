"""Tests for the query-counted stability tester.

The two pillars: one-sidedness (a stable configuration is never rejected,
whatever the seed) and witness soundness (every rejection carries a witness
that re-checks against the configuration directly).  The query accounting is
verified against the computable cap, which depends on eps but not on m or n.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from torustab import THR2, TorusConfig, is_stable
from torustab.generators import GenSpec, gen_hard_thr2, gen_stable_thr2, perturb
from torustab.grid import THR1, THR3, THR4, THR5, cyclic_distance, double_step_cell, is_cell_stable, moore
from torustab.stabilizer import rectangulate_exempt
from torustab.structure import CHESS, MONO, Rect, mono_components
from torustab.tester import (
    BoundingBox,
    QueryOracle,
    RectView,
    TesterParams as TParams,
    ViolationReport,
    Wrap,
    _LINE,
    _PAIRS,
    _ZERO,
    _first_unstable,
    _first_wrap_pair,
    _rect_inner_boundary,
    _window_parities,
    border_violation,
    box_pattern,
    classify_plus_kind,
    classify_wraparound,
    cross_region,
    interior_violation,
    is_violating_pair,
    perimeter_violation,
    query_cap,
    rect_ring,
    run_naive_tester,
    run_tester,
    wraparound_planes,
)

from grid_reference import neighborhood, rect_cells, torus_distance


def region(view, cell, k):
    """`cross_region` of a plus-kind cell, with the kind classified first as
    the tester and the stabilizer do."""
    kind = classify_plus_kind(view, cell)
    assert kind is not None, cell
    return cross_region(view, cell, k, kind)


def read_rect_view(cfg, k):
    """sigma# read cell by cell through a RectView."""
    view = RectView(QueryOracle(cfg), k)
    return TorusConfig([[view.read((i, j)) for j in range(cfg.n)] for i in range(cfg.m)])


def _cyc(a, b, size):
    d = abs(a - b)
    return min(d, size - d)


def def_wraparound_consistent(cfg, cell, axis, parity):
    """Definition-based oracle: build the canonical extension on the full
    grid (forced alternating line, zeros everywhere outside the window) and
    check the wraparound requirements directly."""
    m, n = cfg.m, cfg.n
    r, c = cell
    length = n if axis == "row" else m
    if length % 2 != 0:
        return False
    ext = np.zeros((m, n), np.uint8)
    if axis == "row":
        ext[r, :] = [1 if j % 2 == parity else 0 for j in range(n)]
    else:
        ext[:, c] = [1 if i % 2 == parity else 0 for i in range(m)]
    for (i, j) in neighborhood(m, n, cell, 3):
        ext[i, j] = cfg[(i, j)]
    if axis == "row":
        if any(ext[r, j] != (1 if j % 2 == parity else 0) for j in range(n)):
            return False
        if ext[(r - 1) % m, :].any() or ext[(r + 1) % m, :].any():
            return False
        line = {(r, j) for j in range(n)}
    else:
        if any(ext[i, c] != (1 if i % 2 == parity else 0) for i in range(m)):
            return False
        if ext[:, (c - 1) % n].any() or ext[:, (c + 1) % n].any():
            return False
        line = {(i, c) for i in range(m)}
    for comp in mono_components(TorusConfig(ext)):
        d = min(
            _cyc(a, i, m) + _cyc(b, j, n)
            for (a, b) in comp.cells
            for (i, j) in line
        )
        if d < 3:
            return False
    return True


class TestQueryOracle:
    def test_distinct_read_accounting(self):
        oracle = QueryOracle(TorusConfig.zeros(4, 4))
        oracle.read((1, 1))
        oracle.read((1, 1))
        oracle.read((5, 5))  # wraps onto (1, 1)
        assert oracle.queries == 1
        oracle.read((0, 3))
        assert oracle.queries == 2

    def test_negative_coordinates_wrap(self):
        a = np.zeros((5, 7), np.uint8)
        a[4, 6] = 1
        a[2, 0] = 1
        oracle = QueryOracle(TorusConfig(a))
        assert oracle.read((-1, -1)) == 1
        assert oracle.read((-3, -7)) == 1
        assert oracle.read((-6, 13)) == 1  # (4, 6) again
        assert oracle.read((-5, -7)) == 0  # (0, 0)
        assert oracle.queries == 3

    def test_values_match_config(self):
        rng = np.random.default_rng(44)
        cfg = TorusConfig((rng.random((9, 13)) < 0.5).astype(np.uint8))
        oracle = QueryOracle(cfg)
        for i, j in zip(rng.integers(-30, 30, 500), rng.integers(-30, 30, 500)):
            cell = (int(i), int(j))
            got = oracle.read(cell)
            assert type(got) is int and got == cfg[cell]

    def test_read_all_counts_every_cell(self):
        oracle = QueryOracle(TorusConfig.zeros(6, 11))
        oracle.read((2, 3))
        assert oracle.read_all() is oracle.cfg
        assert oracle.queries == 66
        oracle.read((4, 4))
        assert oracle.queries == 66

    def test_queries_count_distinct_cells(self):
        rng = np.random.default_rng(45)
        m, n = 7, 8
        oracle = QueryOracle(TorusConfig.zeros(m, n))
        seen = set()
        for i, j in zip(rng.integers(-20, 20, 300), rng.integers(-20, 20, 300)):
            oracle.read((int(i), int(j)))
            seen.add((int(i) % m, int(j) % n))
            assert oracle.queries == len(seen)


    def test_gather_is_uncharged_and_charge_counts_distinct_cells(self):
        rng = np.random.default_rng(46)
        cfg = TorusConfig((rng.random((6, 9)) < 0.5).astype(np.uint8))
        oracle = QueryOracle(cfg)
        rows = rng.integers(-20, 20, (40, 3))
        cols = rng.integers(-20, 20, (40, 3))
        got = oracle.gather(rows, cols)
        assert got.tolist() == [[cfg[(i, j)] for i, j in zip(r, c)] for r, c in zip(rows, cols)]
        assert oracle.queries == 0
        oracle.charge(rows, cols)
        want = {(int(i) % 6, int(j) % 9) for i, j in zip(rows.flat, cols.flat)}
        assert {divmod(key, 9) for key in oracle._distinct().tolist()} == want

    def test_key_log_matches_reference_set(self):
        # Random interleavings of reads, charges (repeats, empty arrays) and
        # mid-run counts against a set of cells taken mod (m, n), with
        # coordinates off the torus on both sides; after read_all the count
        # is mn whatever is read later.
        rng = np.random.default_rng(48)
        for _ in range(500):
            m, n = (int(x) for x in rng.integers(1, 12, 2))
            cfg = TorusConfig((rng.random((m, n)) < 0.5).astype(np.uint8))
            oracle = QueryOracle(cfg)
            want, full = set(), False
            for op in rng.integers(0, 20, int(rng.integers(1, 40))):
                if op < 8:
                    cell = (int(rng.integers(-3 * m, 3 * m)), int(rng.integers(-3 * n, 3 * n)))
                    assert oracle.read(cell) == cfg[cell]
                    want.add((cell[0] % m, cell[1] % n))
                elif op < 14:
                    shape = rng.integers(0, 5, int(rng.integers(1, 3)))
                    rows = rng.integers(-3 * m, 3 * m, shape)
                    cols = rng.integers(-3 * n, 3 * n, shape)
                    oracle.charge(rows, cols)
                    want.update(zip((rows % m).flat, (cols % n).flat))
                elif op < 19:
                    assert oracle.queries == (m * n if full else len(want))
                else:
                    assert oracle.read_all() is cfg
                    full = True
            assert oracle.queries == (m * n if full else len(want))
            assert {divmod(key, n) for key in oracle._distinct().tolist()} == want


class TestFirstUnstable:
    def test_matches_double_step_loop_and_its_reads(self):
        # The screen against a per-cell loop that stops at the first unstable
        # cell: the same index and, on fresh oracles, the same charged cells.
        rng = np.random.default_rng(47)
        stops = 0
        for _ in range(3000):
            m, n = (int(x) for x in rng.integers(3, 41, 2))
            density = float(rng.choice([0.0, 0.02, 0.1, 0.3, 0.5]))
            cfg = TorusConfig((rng.random((m, n)) < density).astype(np.uint8))
            size = int(rng.integers(1, 41))
            rows = rng.integers(-m, 2 * m, size)
            cols = rng.integers(-n, 2 * n, size)
            ref = QueryOracle(cfg)
            want = size
            for u, cell in enumerate(zip(rows.tolist(), cols.tolist())):
                if double_step_cell(ref.read, m, n, THR2, cell) != ref.read(cell):
                    want = u
                    break
            screen = QueryOracle(cfg)
            assert _first_unstable(screen, rows, cols) == want, (m, n, density)
            assert screen._distinct().tolist() == ref._distinct().tolist()
            stops += want < size
        assert 1000 < stops < 2500


class TestRectangulation:
    def test_tile_border_zeroed(self):
        cfg = TorusConfig.ones(12, 12)
        view = RectView(QueryOracle(cfg), 4)
        assert view.read((0, 5)) == 0  # row 0 is a tile border
        assert view.read((5, 5)) == 1  # tile interior

    def test_matches_whole_grid_implementation(self):
        rng = np.random.default_rng(41)
        for trial in range(120):
            m = int(rng.integers(1, 20))
            n = int(rng.integers(1, 20))
            k = int(rng.integers(4, 9))
            cfg = TorusConfig((rng.random((m, n)) < 0.4).astype(np.uint8))
            a = read_rect_view(cfg, k).a
            b = rectangulate_exempt(cfg.a.copy(), k, [])
            assert (a == b).all(), (m, n, k)

    def test_single_tile_axis_untouched(self):
        rng = np.random.default_rng(42)
        cfg = TorusConfig((rng.random((3, 20)) < 0.5).astype(np.uint8))
        out = read_rect_view(cfg, 4)
        # m = 3 < k: no row borders, only column borders apply.
        cols_zeroed = out.a[:, 0].sum() == 0
        assert cols_zeroed

    def test_lonely_one_near_border_zeroed(self):
        a = np.zeros((12, 12), np.uint8)
        a[2, 6] = 1  # distance 2 from the row border, Moore-isolated
        out = read_rect_view(TorusConfig(a), 4)
        assert out[(2, 6)] == 0

    def test_lonely_one_far_from_border_kept(self):
        # k = 8 tiles leave cells at edge distance 3, outside the 3-boundary.
        a = np.zeros((16, 16), np.uint8)
        a[3, 4] = 1
        out = read_rect_view(TorusConfig(a), 8)
        assert out[(3, 4)] == 1


class TestClassifyWraparound:
    def test_perfect_row(self):
        a = np.zeros((8, 8), np.uint8)
        a[2, :] = (np.arange(8) + 1) % 2
        f = classify_wraparound(QueryOracle(TorusConfig(a)), (2, 0))
        assert f == Wrap(row=0)

    def test_all_zero_window_unflagged(self):
        f = classify_wraparound(QueryOracle(TorusConfig.zeros(8, 8)), (3, 3))
        assert f == Wrap()

    def test_odd_length_row_never_flagged(self):
        a = np.zeros((8, 9), np.uint8)
        a[2, :] = 1 - (np.arange(9) % 2)
        f = classify_wraparound(QueryOracle(TorusConfig(a)), (2, 0))
        assert f.row is None

    def test_agrees_with_definition_oracle(self):
        rng = np.random.default_rng(43)
        checks = 0
        while checks < 100_000:
            m = int(rng.integers(3, 11))
            n = int(rng.integers(3, 11))
            style = checks % 4
            a = (rng.random((m, n)) < [0.1, 0.35, 0.6, 0.15][style]).astype(np.uint8)
            if style == 3 and n % 2 == 0:
                a[int(rng.integers(m)), :] = (np.arange(n) + rng.integers(2)) % 2
            cfg = TorusConfig(a)
            oracle = QueryOracle(cfg)
            for _ in range(5):
                cell = (int(rng.integers(m)), int(rng.integers(n)))
                f = classify_wraparound(oracle, cell)
                for axis, parity, got in [
                    ("row", 0, f.row == 0),
                    ("row", 1, f.row == 1),
                    ("col", 0, f.col == 0),
                    ("col", 1, f.col == 1),
                ]:
                    assert got == def_wraparound_consistent(cfg, cell, axis, parity), (
                        cfg.to_text(),
                        cell,
                        axis,
                        parity,
                    )
                    checks += 1

    def test_window_tables_cover_the_radius_3_diamond(self):
        # query_cap charges 25 reads per Step 1 cell and line: the window
        # tables' cells, along rows and swapped for columns, are exactly the
        # 25 cells of Gamma<=3.
        diamond = {(di, dj) for di in range(-3, 4) for dj in range(-3, 4) if abs(di) + abs(dj) <= 3}
        cells = _LINE + _ZERO + [c for pair in _PAIRS for c in pair]
        assert len(diamond) == 25
        assert set(cells) == diamond
        assert {(dj, di) for di, dj in cells} == diamond

    def test_read_sets_pinned_inside_radius_3(self):
        # query_cap charges each Step 1 cell 25 reads, which assumes the
        # classification reads nothing outside Gamma<=3(cell).  The digest
        # pins the exact read sets, so a rewrite must read the same cells.
        rng = np.random.default_rng(47)
        read_sets = []
        for trial in range(4000):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 13))
            style = trial % 3
            if style == 0:
                a = (rng.random((m, n)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            else:
                a = np.zeros((m, n), np.uint8)
                if style == 1:
                    a[int(rng.integers(m)), :] = (np.arange(n) + rng.integers(2)) % 2
                else:
                    a[:, int(rng.integers(n))] = (np.arange(m) + rng.integers(2)) % 2
                if rng.random() < 0.5:
                    a ^= (rng.random((m, n)) < 0.05).astype(np.uint8)
            cell = (int(rng.integers(m)), int(rng.integers(n)))
            oracle = QueryOracle(TorusConfig(a))
            classify_wraparound(oracle, cell)
            reads = sorted(divmod(key, n) for key in oracle._distinct().tolist())
            assert all(torus_distance(m, n, cell, p) <= 3 for p in reads), (a.tolist(), cell)
            read_sets.append(reads)
        digest = hashlib.sha256(json.dumps(read_sets).encode()).hexdigest()
        assert digest == "e1f461f055968b99195c62ce7c8c6938bba3fa6fbd51bc8e229ea8a3c570486b"


def walk_window(oracle, cell, axis):
    """Reference: the window rule walked cell by cell through `oracle.read`,
    stopping at the first broken clause; a pair reads its second cell only
    when its first is 1.  Returns the parity class or None."""
    r, c = cell[0] % oracle.m, cell[1] % oracle.n
    length, pos = (oracle.n, c) if axis == "row" else (oracle.m, r)
    if length % 2 != 0 or length < 4:
        return None

    def at(offset):
        dline, d = offset
        return oracle.read((r + dline, c + d) if axis == "row" else (r + d, c + dline))

    first = want = at(_LINE[0])
    for offset in _LINE[1:]:
        want ^= 1
        if at(offset) != want:
            return None
    if any(at(offset) != 0 for offset in _ZERO):
        return None
    if any(at(p) == 1 and at(q) == 1 for p, q in _PAIRS):
        return None
    return (pos + first) % 2


class TestWindowParities:
    """The batch `_window_parities` against a per-cell early-exit walk."""

    def test_matches_per_cell_walk_and_its_reads(self):
        rng = np.random.default_rng(49)
        flagged = 0
        for trial in range(3000):
            m, n = (int(x) for x in rng.integers(1, 14, 2))
            style = trial % 3
            if style == 0:
                a = (rng.random((m, n)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            else:
                a = np.zeros((m, n), np.uint8)
                if style == 1:
                    a[int(rng.integers(m)), :] = (np.arange(n) + rng.integers(2)) % 2
                else:
                    a[:, int(rng.integers(n))] = (np.arange(m) + rng.integers(2)) % 2
                if rng.random() < 0.5:
                    a ^= (rng.random((m, n)) < 0.05).astype(np.uint8)
            cfg = TorusConfig(a)
            size = int(rng.integers(0, 21))
            rows = rng.integers(-m, 2 * m, size)
            cols = rng.integers(-n, 2 * n, size)
            ref = QueryOracle(cfg)
            want = [
                [walk_window(ref, cell, axis) for cell in zip(rows.tolist(), cols.tolist())]
                for axis in ("row", "col")
            ]
            batch = QueryOracle(cfg)
            got = _window_parities(batch, rows, cols)
            for par, w in zip(got, want):
                assert par.dtype == np.int8 and par.shape == (size,)
                assert [None if p < 0 else int(p) for p in par] == w, (a.tolist(), rows, cols)
            assert batch._distinct().tolist() == ref._distinct().tolist(), (a.tolist(), rows, cols)
            for s, cell in enumerate(zip(rows.tolist(), cols.tolist())):
                f = classify_wraparound(cfg, cell)
                assert (f.row, f.col) == (want[0][s], want[1][s])
            flagged += sum(p is not None for w in want for p in w)
        assert flagged > 500


class TestWraparoundPlanes:
    """`wraparound_planes` against its per-cell form `classify_wraparound`."""

    def test_matches_classify_wraparound_on_small_shapes(self):
        rng = np.random.default_rng(44)
        for m in range(1, 13):
            for n in range(1, 13):
                densities = (0.1, 0.2, 0.35, 0.5, 0.6)
                grids = [(rng.random((m, n)) < p).astype(np.uint8) for p in densities]
                row = np.zeros((m, n), np.uint8)
                row[int(rng.integers(m)), :] = (np.arange(n) + rng.integers(2)) % 2
                col = np.zeros((m, n), np.uint8)
                col[:, int(rng.integers(n))] = (np.arange(m) + rng.integers(2)) % 2
                for planted in (row, col):
                    grids += [planted, planted ^ (rng.random((m, n)) < 0.05).astype(np.uint8)]
                for a in grids:
                    planes = wraparound_planes(a)
                    assert len(planes) == 2
                    for p in planes:
                        assert p.shape == (m, n) and p.dtype == np.int8
                        assert set(np.unique(p).tolist()) <= {-1, 0, 1}
                    cfg = TorusConfig(a)
                    for i in range(m):
                        for j in range(n):
                            f = classify_wraparound(cfg, (i, j))
                            want = tuple(-1 if p is None else p for p in (f.row, f.col))
                            got = tuple(int(p[i, j]) for p in planes)
                            assert got == want, (a.tolist(), i, j)

    def test_planted_row_flags_every_cell(self):
        a = np.zeros((9, 10), np.uint8)
        a[4, :] = (np.arange(10) + 1) % 2
        row, col = wraparound_planes(a)
        assert (row[4] == 0).all() and not (row == 1).any()
        assert (row == 0).sum() == 10 and (col == -1).all()


class TestViolatingPair:
    def test_same_row_mismatch(self):
        # Half the row alternates, half is dead: a cell deep in each half
        # classifies differently, and together they witness the broken row.
        a = np.zeros((8, 16), np.uint8)
        a[2, :8] = [0, 1, 0, 1, 0, 1, 0, 1]
        cfg = TorusConfig(a)
        oracle = QueryOracle(cfg)
        f1 = classify_wraparound(oracle, (2, 4))
        f2 = classify_wraparound(oracle, (2, 12))
        assert f1.row == 1 and f2.row is None
        assert is_violating_pair((2, 4), f1, (2, 12), f2)

    def test_row_vs_column_cross(self):
        f1 = Wrap(row=0)
        f2 = Wrap(col=1)
        assert is_violating_pair((0, 0), f1, (5, 5), f2)

    def test_consistent_pair_not_violating(self):
        f = Wrap(row=0)
        assert not is_violating_pair((2, 0), f, (2, 4), f)


def nested_first_pair(classified):
    """Reference: the first violating pair of the quadratic i < j scan."""
    for i in range(len(classified)):
        for j in range(i + 1, len(classified)):
            (c1, f1), (c2, f2) = classified[i], classified[j]
            if is_violating_pair(c1, f1, c2, f2):
                return (i, j)
    return None


def array_first_pair(classified):
    """`_first_wrap_pair` on a list of (cell, Wrap) entries."""
    rows, cols, row_par, col_par = (
        np.array(list(values), dtype=dtype)
        for values, dtype in [
            ((c[0] for c, _ in classified), np.int64),
            ((c[1] for c, _ in classified), np.int64),
            ((-1 if f.row is None else f.row for _, f in classified), np.int8),
            ((-1 if f.col is None else f.col for _, f in classified), np.int8),
        ]
    )
    return _first_wrap_pair(rows, cols, row_par, col_par)


# Every value a window can produce: no parity, or parity 0 or 1, per axis.
ALL_FLAGS = [Wrap(row, col) for row in (None, 0, 1) for col in (None, 0, 1)]


class TestFirstViolatingPair:
    def random_flag_list(self, rng):
        # Few distinct rows and columns force duplicate cells and shared
        # lines; parities are drawn once per cell, as classification is a
        # function of the cell.  Half the cells have no parity or one on a
        # single axis so that lists without any pair are common too.
        size = int(rng.integers(0, 17))
        side = int(rng.integers(1, 6))
        flags = {}
        out = []
        for _ in range(size):
            cell = (int(rng.integers(side)), int(rng.integers(side)))
            if cell not in flags:
                sparse = ALL_FLAGS[int(rng.choice([0, 0, 0, 1, 2, 3, 6]))]
                flags[cell] = sparse if rng.random() < 0.5 else ALL_FLAGS[int(rng.integers(9))]
            out.append((cell, flags[cell]))
        return out

    def test_matches_nested_loop(self):
        rng = np.random.default_rng(46)
        found = sizes = 0
        for _ in range(5000):
            classified = self.random_flag_list(rng)
            want = nested_first_pair(classified)
            assert array_first_pair(classified) == want, classified
            found += want is not None
            sizes += len(classified) == 16
        assert 1000 < found < 4000 and sizes > 100

    def test_long_lists_with_runs_of_one_cell(self):
        # Up to 200 entries, each cell repeated in a run of 1-8 consecutive
        # entries, so that the clause-3 search lands on the entry's own cell
        # and must step to the next run of another cell.
        rng = np.random.default_rng(48)
        found = long = 0
        for _ in range(600):
            size = int(rng.integers(1, 201))
            side = int(rng.integers(1, 9))
            sparse = rng.random() < 0.5
            flags = {}
            classified = []
            while len(classified) < size:
                cell = (int(rng.integers(side)), int(rng.integers(side)))
                if cell not in flags:
                    pick = rng.choice([0, 0, 0, 0, 1, 3]) if sparse else rng.integers(9)
                    flags[cell] = ALL_FLAGS[int(pick)]
                classified += [(cell, flags[cell])] * int(rng.integers(1, 9))
            classified = classified[:size]
            want = nested_first_pair(classified)
            assert array_first_pair(classified) == want, classified
            found += want is not None
            long += want is not None and want[1] - want[0] > 8
        assert 200 < found < 600 and long > 20

    def test_empty_and_single(self):
        assert array_first_pair([]) is None
        assert array_first_pair([((0, 0), ALL_FLAGS[-1])]) is None

    def test_cell_never_pairs_with_itself(self):
        both = Wrap(row=0, col=1)
        classified = [((1, 2), both), ((1, 2), both), ((1, 2), both)]
        assert array_first_pair(classified) is None
        classified.append(((3, 3), Wrap(row=1)))
        assert array_first_pair(classified) == (0, 3)

    def test_smallest_first_index_wins(self):
        row = Wrap(row=0)
        col = Wrap(col=0)
        none = Wrap()
        # (1, 4) cross-pairs, and (0, 5) mismatch in row 0; i = 0 comes first.
        classified = [
            ((0, 1), none),
            ((2, 2), row),
            ((3, 3), none),
            ((4, 4), none),
            ((5, 5), col),
            ((0, 6), Wrap(row=1)),
        ]
        assert array_first_pair(classified) == (0, 5)
        assert nested_first_pair(classified) == (0, 5)


class TestCrossRegion:
    def make_view(self, a, k=6):
        # Plain view: these are geometry tests, independent of rectangulation.
        return TorusConfig(a)

    def test_mono_block_recovered(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        view = self.make_view(a)
        box = region(view, (6, 6), 6)
        assert box.kind == "mono"
        assert (box.rect.row0, box.rect.height, box.rect.col0, box.rect.width) == (5, 3, 5, 4)

    def test_domino(self):
        a = np.zeros((20, 20), np.uint8)
        a[5, 5:7] = 1
        view = self.make_view(a)
        box = region(view, (5, 5), 6)
        assert (box.rect.height, box.rect.width) == (1, 2)

    def test_chess_patch_recovered(self):
        a = np.zeros((20, 20), np.uint8)
        for i in range(5, 9):
            for j in range(5, 9):
                a[i, j] = (i + j) % 2
        view = self.make_view(a)
        for anchor in [(5, 6), (6, 5), (7, 8), (6, 6)]:
            box = region(view, anchor, 6)
            assert (box.rect.row0, box.rect.height, box.rect.col0, box.rect.width) == (
                5,
                4,
                5,
                4,
            ), anchor

    def test_non_cell_returns_none(self):
        # A cell of neither plus-kind has no cross region; callers skip it.
        a = np.zeros((20, 20), np.uint8)
        view = self.make_view(a)
        assert classify_plus_kind(view, (10, 10)) is None


class TestViolationPredicates:
    def test_mono_interior_zero(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        a[6, 7] = 0
        view = TorusConfig(a)
        box = region(view, (5, 5), 6)
        assert interior_violation(view, box, (6, 7))
        assert not interior_violation(view, box, (5, 5))

    def test_mono_perimeter_one(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        a[9, 6] = 1  # distance 2 below the block
        view = TorusConfig(a)
        box = region(view, (6, 6), 6)
        assert perimeter_violation(view, box, (9, 6))
        assert not perimeter_violation(view, box, (9, 8))

    def test_chess_perimeter_parity(self):
        # A lone 1 at distance 2 with even parity and no 1-neighbors is legal
        # next to a chessboard box; odd parity is a violation.
        a = np.zeros((20, 20), np.uint8)
        for i in range(5, 9):
            for j in range(5, 9):
                a[i, j] = (i + j) % 2
        view = TorusConfig(a)
        box = region(view, (5, 6), 6)
        for cell in rect_ring(box.rect, 2):
            assert not perimeter_violation(view, box, cell)
        out_of_domain = (0, 0)
        with pytest.raises(ValueError):
            perimeter_violation(view, box, out_of_domain)

    def test_box_pattern_reproduces_boxes(self):
        a = np.zeros((20, 20), np.uint8)
        for i in range(5, 9):
            for j in range(5, 10):
                a[i, j] = (i + j) % 2
        a[12:15, 3:7] = 1
        view = TorusConfig(a)
        for anchor in ((5, 6), (6, 6), (13, 4)):
            box = region(view, anchor, 6)
            for cell in rect_cells(box.rect):
                assert box_pattern(box, view[anchor], cell) == a[cell], (anchor, cell)

    def test_border_violation_order(self):
        # A mono block with an inner-boundary hole, a 1 on ring 2 and a 1 on
        # ring 1: rings come first, ring 1 before ring 2, then the 1-boundary.
        a = np.zeros((20, 20), np.uint8)
        a[5:9, 5:9] = 1
        view = TorusConfig(a.copy())
        box = region(view, (6, 6), 6)
        assert border_violation(view, box) is None
        a[8, 7] = 0
        view = TorusConfig(a.copy())
        assert border_violation(view, box) == ("interior", (8, 7))
        a[10, 6] = 1
        view = TorusConfig(a.copy())
        assert border_violation(view, box) == ("perimeter", (10, 6))
        a[9, 8] = 1
        view = TorusConfig(a.copy())
        assert border_violation(view, box) == ("perimeter", (9, 8))


class TestRectRing:
    def test_rings_and_perimeter_domain_match_brute_force(self):
        """Every rectangle on every torus from 1x1 to 7x7, full-cycle ones
        and all starts included: `rect_ring(rect, r)` is the sorted set of
        cells at brute-force torus distance exactly r from the rectangle, and
        `perimeter_violation` raises exactly for cells outside rings 1-2."""
        for m, n in itertools.product(range(1, 8), repeat=2):
            cells = [(i, j) for i in range(m) for j in range(n)]
            dist = np.array([[torus_distance(m, n, a, b) for b in cells] for a in cells])
            view = TorusConfig.zeros(m, n)
            for row0, height, col0, width in itertools.product(
                range(m), range(1, m + 1), range(n), range(1, n + 1)
            ):
                rect = Rect(m, n, row0, height, col0, width)
                inside = np.array([c in rect for c in cells])
                to_rect = dist[:, inside].min(axis=1).tolist()
                for r in (1, 2, 3):
                    want = [c for c, d in zip(cells, to_rect) if d == r]
                    assert rect_ring(rect, r) == want, (rect, r)
                box = BoundingBox(rect, (row0, col0), MONO)
                for c, d in zip(cells, to_rect):
                    try:
                        perimeter_violation(view, box, c)
                        raised = False
                    except ValueError:
                        raised = True
                    assert raised == (d not in (1, 2)), (rect, c)


    @pytest.mark.parametrize("r", [1, 2])
    def test_large_box_ring_size_and_gap(self, r):
        """A 400x400 box on a 1500x1500 torus: ring r has 2(h + w) + 4(r - 1)
        cells, each at torus distance exactly r from the box."""
        rect = Rect(1500, 1500, 1300, 400, 700, 400)
        ring = np.array(rect_ring(rect, r))
        assert len(ring) == 2 * (400 + 400) + 4 * (r - 1)

        def gap(x, start, length, size):
            outside = (x - start) % size >= length
            ends = np.minimum(cyclic_distance(x, start, size), cyclic_distance(x, start + length - 1, size))
            return outside * ends

        gaps = gap(ring[:, 0], 1300, 400, 1500) + gap(ring[:, 1], 700, 400, 1500)
        assert (gaps == r).all()


class TestBoxPatternScales:
    def test_slices_and_rows_match_cells(self):
        """On every box of every torus from 1x1 to 7x7 (odd cycles and
        full-cycle boxes included) and every anchor in it, `box_pattern` at
        the box's `np.ix_` equals its per-cell values, and so does each row
        with the box's columns; a mono box gives the scalar 1.  A row's
        pattern depends on the box only through its columns and anchor, so
        each (columns, anchor, row) is checked once."""
        for m, n in itertools.product(range(1, 8), repeat=2):
            # Per anchor, the pattern of every torus cell, cell by cell.
            whole = Rect(m, n, 0, m, 0, n)
            per_cell = {
                anchor: np.array(
                    [
                        [box_pattern(BoundingBox(whole, anchor, CHESS), sum(anchor) % 2, (i, j)) for j in range(n)]
                        for i in range(m)
                    ]
                )
                for anchor in itertools.product(range(m), range(n))
            }
            spans = {
                axis: [
                    (start, length, np.arange(start, start + length) % size)
                    for start in range(size)
                    for length in range(1, size + 1)
                ]
                for axis, size in (("rows", m), ("cols", n))
            }
            for col0, width, cols in spans["cols"]:
                for anchor in itertools.product(range(m), cols.tolist()):
                    box = BoundingBox(Rect(m, n, anchor[0], 1, col0, width), anchor, CHESS)
                    for i in range(m):
                        got = box_pattern(box, sum(anchor) % 2, (i, cols))
                        assert (got == per_cell[anchor][i, cols]).all(), (box, i)
                for row0, height, rows in spans["rows"]:
                    rect = Rect(m, n, row0, height, col0, width)
                    ix = np.ix_(rows, cols)
                    assert box_pattern(BoundingBox(rect, (row0, col0), MONO), 0, ix) == 1
                    for anchor in itertools.product(rows.tolist(), cols.tolist()):
                        got = box_pattern(BoundingBox(rect, anchor, CHESS), sum(anchor) % 2, ix)
                        assert (got == per_cell[anchor][ix]).all(), (rect, anchor)


class TestRectInnerBoundary:
    def test_matches_brute_force_in_row_major_order(self):
        """Every rectangle on every torus from 1x1 to 7x7: the 1-boundary is
        the rectangle's cells with a von Neumann neighbor outside it, listed
        row by row from (row0, col0)."""
        for m, n in itertools.product(range(1, 8), repeat=2):
            for row0, height, col0, width in itertools.product(
                range(m), range(1, m + 1), range(n), range(1, n + 1)
            ):
                rect = Rect(m, n, row0, height, col0, width)
                want = [
                    (i, j)
                    for i in rect.rows()
                    for j in rect.cols()
                    if any(((i + di) % m, (j + dj) % n) not in rect
                           for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)))
                ]
                assert _rect_inner_boundary(rect) == want, rect


class TestRunTester:
    def test_one_sided_on_stable_configs(self):
        # Small c1 keeps k low enough that 32x32 runs the genuine sampling
        # path instead of the small-torus fallback.
        rejections = 0
        runs = 0
        for cseed in range(100):
            spec = GenSpec(m=32, n=32, rects=3, seed=cseed, wraparound_row=(cseed % 4 == 0))
            cfg = gen_stable_thr2(spec)
            assert is_stable(cfg, THR2)
            for seed in range(10):
                params = TParams(eps=0.5, c1=4, seed=seed)
                res = run_tester(QueryOracle(cfg), params)
                assert not res.fallback
                runs += 1
                rejections += not res.accepted
        assert runs == 1000 and rejections == 0

    def test_fallback_is_exact(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            cfg = TorusConfig((rng.random((8, 8)) < 0.4).astype(np.uint8))
            res = run_tester(QueryOracle(cfg), TParams(eps=0.1, seed=0))
            assert res.fallback
            assert res.accepted == is_stable(cfg, THR2)

    def test_witness_soundness(self):
        rng = np.random.default_rng(52)
        rejected = 0
        for trial in range(300):
            m = int(rng.integers(24, 40))
            n = int(rng.integers(24, 40))
            cfg = TorusConfig((rng.random((m, n)) < 0.3).astype(np.uint8))
            params = TParams(eps=0.5, c1=4, seed=trial)
            res = run_tester(QueryOracle(cfg), params)
            if res.accepted:
                continue
            rejected += 1
            rep = res.violation
            assert rep is not None
            if rep.kind == "unstable-cell":
                assert not is_cell_stable(cfg, THR2, rep.cells[0])
            elif rep.kind == "wraparound-pair":
                oracle = QueryOracle(cfg)
                c1, c2 = rep.cells
                f1 = classify_wraparound(oracle, c1)
                f2 = classify_wraparound(oracle, c2)
                assert is_violating_pair(c1, f1, c2, f2)
            else:
                view = RectView(QueryOracle(cfg), params.k)
                anchor, bad = rep.cells
                box = region(view, anchor, params.k)
                if rep.kind == "interior":
                    assert interior_violation(view, box, bad)
                else:
                    assert perimeter_violation(view, box, bad)
            assert not is_stable(cfg, THR2)
        assert rejected > 50

    def test_hard_instance_rejected(self):
        cfg = gen_hard_thr2(256)
        rejections = 0
        for seed in range(100):
            params = TParams(eps=0.05, c1=4, seed=seed)
            res = run_tester(QueryOracle(cfg), params)
            assert not res.fallback
            rejections += not res.accepted
        assert rejections >= 67

    def test_query_cap_respected_and_size_free(self):
        caps = set()
        for n in (64, 128, 256):
            cfg = gen_stable_thr2(GenSpec(m=n, n=n, rects=3, seed=n))
            params = TParams(eps=0.5, c1=4, seed=1)
            cap = query_cap(params, 10**6, 10**6)  # strip the mn ceiling
            caps.add(cap)
            for seed in range(20):
                res = run_tester(QueryOracle(cfg), TParams(eps=0.5, c1=4, seed=seed))
                assert res.queries <= cap
        assert len(caps) == 1

    def test_cap_scales_as_inverse_eps_squared(self):
        for eps in (0.2, 0.1, 0.05, 0.02):
            cap = query_cap(TParams(eps=eps), 10**9, 10**9)
            assert cap * eps * eps < 250_000


def frozen_cases():
    """The inputs of the frozen run_tester table, in table order."""
    hard = gen_hard_thr2(256)
    for seed in range(20):
        yield "hard-256-eps0.05", hard, TParams(eps=0.05, c1=4, seed=seed)
    for seed in range(60):
        yield "hard-256-eps0.5", hard, TParams(eps=0.5, c1=4, seed=seed)
    rng = np.random.default_rng(52)  # the tori of test_witness_soundness
    for trial in range(300):
        m = int(rng.integers(24, 40))
        n = int(rng.integers(24, 40))
        cfg = TorusConfig((rng.random((m, n)) < 0.3).astype(np.uint8))
        yield "random-24-40", cfg, TParams(eps=0.5, c1=4, seed=trial)
    for cseed in range(10):
        spec = GenSpec(m=64, n=64, rects=3, seed=cseed, wraparound_row=(cseed % 2 == 0))
        cfg = perturb(gen_stable_thr2(spec), 4, np.random.default_rng(cseed))
        for seed in range(3):
            yield "perturbed-64", cfg, TParams(eps=0.5, c1=4, seed=seed)


class TestFrozenWitnesses:
    TABLE = Path(__file__).parent / "data" / "run_tester_table.json"

    def test_decisions_witnesses_and_queries_unchanged(self):
        # Recorded from the quadratic Step 1 pair scan: rows are
        # [case, accepted, kind, cells, queries].
        table = json.loads(self.TABLE.read_text())
        cases = list(frozen_cases())
        assert len(cases) == len(table) == 410
        kinds = set()
        for (name, cfg, params), want in zip(cases, table):
            res = run_tester(QueryOracle(cfg), params)
            v = res.violation
            got = [
                name,
                res.accepted,
                None if v is None else v.kind,
                None if v is None else [list(c) for c in v.cells],
                res.queries,
            ]
            assert not res.fallback
            assert got == want, (params.seed, got, want)
            kinds.add(got[2])
        assert kinds == {None, "unstable-cell", "wraparound-pair"}


class TestStep2Rejections:
    # Every Step 2 rejection of the family perturb(gen_stable_thr2(64x64,
    # 3 rects, seed s, wraparound row when s is even), flips) at eps 0.5,
    # c1 4, over s < 60, flips in (1, 2, 4) and tester seeds < 10; recorded
    # from the per-cell stability loop.  Rows: s, flips, tester seed, kind,
    # witness cells, queries.
    PINNED = [
        (1, 4, 8, "unstable-cell", [[30, 16]], 3216),
        (14, 1, 3, "unstable-cell", [[9, 39]], 3110),
        (14, 2, 3, "unstable-cell", [[9, 39]], 3110),
        (14, 4, 3, "unstable-cell", [[9, 39]], 3110),
        (16, 2, 9, "unstable-cell", [[34, 29]], 2889),
        (30, 2, 7, "unstable-cell", [[6, 48]], 3093),
        (37, 4, 8, "unstable-cell", [[42, 22]], 3222),
        (39, 2, 9, "unstable-cell", [[62, 34]], 2862),
        (49, 4, 6, "unstable-cell", [[2, 45]], 2918),
        (53, 4, 8, "unstable-cell", [[48, 23]], 3223),
    ]

    @pytest.mark.parametrize("s, flips, t, kind, cells, queries", PINNED)
    def test_decision_witness_and_queries_unchanged(self, s, flips, t, kind, cells, queries):
        spec = GenSpec(64, 64, rects=3, seed=s, wraparound_row=s % 2 == 0)
        cfg = perturb(gen_stable_thr2(spec), flips, np.random.default_rng(s))
        res = run_tester(QueryOracle(cfg), TParams(eps=0.5, c1=4, seed=t))
        v = res.violation
        assert not res.accepted and not res.fallback
        assert (v.kind, v.step, [list(c) for c in v.cells], res.queries) == (
            kind,
            "step2",
            cells,
            queries,
        )
        assert not is_cell_stable(cfg, THR2, v.cells[0])


def naive_loop(oracle, rule, sample_size, rng):
    """Reference: the naive tester as a per-cell loop, one `double_step_cell`
    per sampled cell in sampling order, stopping at the first unstable one."""
    m, n = oracle.m, oracle.n
    for i, j in zip(rng.integers(0, m, sample_size), rng.integers(0, n, sample_size)):
        cell = (int(i), int(j))
        if double_step_cell(oracle.read, m, n, rule, cell) != oracle.read(cell):
            return False, ViolationReport("unstable-cell", [cell], step="naive")
    return True, None


class TestNaiveTester:
    def test_matches_per_cell_loop_and_its_reads(self):
        # Every rule on sides 1-40 (a quarter of the runs on sides 1-4): the
        # same decision, witness and distinct reads as the per-cell loop.
        rng = np.random.default_rng(49)
        stops = degenerate = 0
        for trial in range(2000):
            rule = (THR1, THR2, THR3, THR4, THR5)[trial % 5]
            m, n = (int(x) for x in rng.integers(1, 5 if trial % 4 == 0 else 41, 2))
            density = float(rng.choice([0.0, 0.02, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]))
            cfg = TorusConfig((rng.random((m, n)) < density).astype(np.uint8))
            size, seed = (int(x) for x in rng.integers(1, 41, 2))
            ref, batch = QueryOracle(cfg), QueryOracle(cfg)
            want = naive_loop(ref, rule, size, np.random.default_rng(seed))
            got = run_naive_tester(batch, rule, size, np.random.default_rng(seed))
            assert got == want, (rule, m, n, density, size, seed)
            assert batch.queries == ref.queries
            assert batch._distinct().tolist() == ref._distinct().tolist()
            stops += not want[0]
            degenerate += min(m, n) < 3
        assert 600 < stops < 1600
        assert degenerate > 300

    def test_all_zero_accepts(self):
        ok, _ = run_naive_tester(
            QueryOracle(TorusConfig.zeros(16, 16)), THR2, 10, np.random.default_rng(0)
        )
        assert ok

    def test_dense_instability_rejected(self):
        # Vertical 1-0 stripes converge to all-ones, so every 0 cell is
        # unstable: density one half, and 10 samples reject these seeds.
        a = np.tile(np.array([1, 0], np.uint8), 8)
        cfg = TorusConfig(np.tile(a, (16, 1)))
        from torustab.grid import classify_cells

        assert (classify_cells(cfg, THR2) == 2).mean() == 0.5
        for seed in range(20):
            ok, rep = run_naive_tester(QueryOracle(cfg), THR2, 10, np.random.default_rng(seed))
            assert not ok and rep.kind == "unstable-cell"

    def test_hard_instance_mostly_accepted(self):
        cfg = gen_hard_thr2(512)
        acc = sum(
            run_naive_tester(QueryOracle(cfg), THR2, 50, np.random.default_rng(seed))[0]
            for seed in range(300)
        )
        assert acc / 300 >= 0.80

    def test_sample_size_validated(self):
        with pytest.raises(ValueError):
            run_naive_tester(QueryOracle(TorusConfig.zeros(4, 4)), THR2, 0, np.random.default_rng(0))


class TestMooreIsolationSoundness:
    def test_isolated_unflagged_cell_implies_nearby_instability(self):
        # A Moore-isolated 1 that is not wraparound consistent cannot sit in
        # a stable neighborhood; dense random sampling on 5x5 plus larger
        # sparse grids.
        rng = np.random.default_rng(53)
        found = 0
        for trial in range(4000):
            if trial % 8 == 7:
                m, n = 16, 16
                density = 0.1
            else:
                m, n = 5, 5
                density = float(rng.uniform(0.05, 0.6))
            cfg = TorusConfig((rng.random((m, n)) < density).astype(np.uint8))
            oracle = QueryOracle(cfg)
            for i in range(m):
                for j in range(n):
                    if cfg[(i, j)] != 1:
                        continue
                    nbs = moore(m, n, (i, j)) - {(i, j)}
                    if any(cfg[p] for p in nbs):
                        continue
                    f = classify_wraparound(oracle, (i, j))
                    if f != Wrap():
                        continue
                    found += 1
                    assert any(
                        not is_cell_stable(cfg, THR2, p) for p in moore(m, n, (i, j))
                    ), cfg.to_text()
        assert found > 500
