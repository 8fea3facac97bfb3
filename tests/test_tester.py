"""Tests for the query-counted stability tester.

The two pillars: one-sidedness (a stable configuration is never rejected,
whatever the seed) and witness soundness (every rejection carries a witness
that re-checks against the configuration directly).  The query accounting is
verified against the computable cap, which depends on eps but not on m or n.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from torustab import THR2, TorusConfig, is_stable
from torustab.generators import GenSpec, gen_hard_thr2, gen_stable_thr2, perturb
from torustab.grid import is_cell_stable, moore, neighborhood
from torustab.stabilizer import rectangulate_exempt
from torustab.structure import mono_components
from torustab.tester import (
    QueryOracle,
    RectView,
    TesterParams as TParams,
    WraparoundFlags,
    _first_violating_pair,
    classify_wraparound,
    classify_plus_kind,
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


def read_rect_view(cfg, k):
    """sigma# read cell by cell through a RectView."""
    view = RectView(QueryOracle(cfg), k)
    return TorusConfig([[view.read((i, j)) for j in range(cfg.n)] for i in range(cfg.m)])


def cfg_from(rows):
    return TorusConfig([[int(ch) for ch in row] for row in rows])


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
    for comp in mono_components(TorusConfig(ext), 1):
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
        assert f.row_even and not f.row_odd and not f.col_any

    def test_all_zero_window_unflagged(self):
        f = classify_wraparound(QueryOracle(TorusConfig.zeros(8, 8)), (3, 3))
        assert not (f.row_any or f.col_any)

    def test_odd_length_row_never_flagged(self):
        a = np.zeros((8, 9), np.uint8)
        a[2, :] = 1 - (np.arange(9) % 2)
        f = classify_wraparound(QueryOracle(TorusConfig(a)), (2, 0))
        assert not f.row_any

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
                    ("row", 0, f.row_even),
                    ("row", 1, f.row_odd),
                    ("col", 0, f.col_even),
                    ("col", 1, f.col_odd),
                ]:
                    assert got == def_wraparound_consistent(cfg, cell, axis, parity), (
                        cfg.to_text(),
                        cell,
                        axis,
                        parity,
                    )
                    checks += 1


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
                    assert all(p.shape == (m, n) and p.dtype == bool for p in planes)
                    cfg = TorusConfig(a)
                    for i in range(m):
                        for j in range(n):
                            f = classify_wraparound(cfg, (i, j))
                            want = (f.row_even, f.row_odd, f.col_even, f.col_odd)
                            got = tuple(bool(p[i, j]) for p in planes)
                            assert got == want, (a.tolist(), i, j)

    def test_planted_row_flags_every_cell(self):
        a = np.zeros((9, 10), np.uint8)
        a[4, :] = (np.arange(10) + 1) % 2
        row_even, row_odd, col_even, col_odd = wraparound_planes(a)
        assert row_even[4].all() and not row_odd.any()
        assert row_even.sum() == 10 and not col_even.any() and not col_odd.any()


class TestViolatingPair:
    F = classify_wraparound

    def flags(self, rows, cell):
        return classify_wraparound(QueryOracle(cfg_from(rows)), cell)

    def test_same_row_mismatch(self):
        # Half the row alternates, half is dead: a cell deep in each half
        # classifies differently, and together they witness the broken row.
        a = np.zeros((8, 16), np.uint8)
        a[2, :8] = [0, 1, 0, 1, 0, 1, 0, 1]
        cfg = TorusConfig(a)
        oracle = QueryOracle(cfg)
        f1 = classify_wraparound(oracle, (2, 4))
        f2 = classify_wraparound(oracle, (2, 12))
        assert f1.row_odd and not f2.row_any
        assert is_violating_pair((2, 4), f1, (2, 12), f2)

    def test_row_vs_column_cross(self):
        from torustab.tester import WraparoundFlags

        f1 = WraparoundFlags(row_even=True)
        f2 = WraparoundFlags(col_odd=True)
        assert is_violating_pair((0, 0), f1, (5, 5), f2)

    def test_consistent_pair_not_violating(self):
        from torustab.tester import WraparoundFlags

        f = WraparoundFlags(row_even=True)
        assert not is_violating_pair((2, 0), f, (2, 4), f)


def nested_first_pair(classified):
    """Reference: the first violating pair of the quadratic i < j scan."""
    for i in range(len(classified)):
        for j in range(i + 1, len(classified)):
            (c1, f1), (c2, f2) = classified[i], classified[j]
            if is_violating_pair(c1, f1, c2, f2):
                return (i, j)
    return None


ALL_FLAGS = [WraparoundFlags(*bits) for bits in itertools.product((False, True), repeat=4)]


class TestFirstViolatingPair:
    def random_flag_list(self, rng):
        # Few distinct rows and columns force duplicate cells and shared
        # lines; flags are drawn once per cell, as classification is a
        # function of the cell.  Half the cells are unflagged or carry a
        # single flag so that lists without any pair are common too.
        size = int(rng.integers(0, 17))
        side = int(rng.integers(1, 6))
        flags = {}
        out = []
        for _ in range(size):
            cell = (int(rng.integers(side)), int(rng.integers(side)))
            if cell not in flags:
                sparse = ALL_FLAGS[int(rng.choice([0, 0, 0, 1, 2, 4, 8, 3, 12]))]
                flags[cell] = sparse if rng.random() < 0.5 else ALL_FLAGS[int(rng.integers(16))]
            out.append((cell, flags[cell]))
        return out

    def test_matches_nested_loop(self):
        rng = np.random.default_rng(46)
        found = sizes = 0
        for _ in range(5000):
            classified = self.random_flag_list(rng)
            want = nested_first_pair(classified)
            assert _first_violating_pair(classified) == want, classified
            found += want is not None
            sizes += len(classified) == 16
        assert 1000 < found < 4000 and sizes > 100

    def test_empty_and_single(self):
        assert _first_violating_pair([]) is None
        assert _first_violating_pair([((0, 0), ALL_FLAGS[15])]) is None

    def test_cell_never_pairs_with_itself(self):
        both = WraparoundFlags(row_even=True, col_odd=True)
        classified = [((1, 2), both), ((1, 2), both), ((1, 2), both)]
        assert _first_violating_pair(classified) is None
        classified.append(((3, 3), WraparoundFlags(row_odd=True)))
        assert _first_violating_pair(classified) == (0, 3)

    def test_smallest_first_index_wins(self):
        row = WraparoundFlags(row_even=True)
        col = WraparoundFlags(col_even=True)
        none = WraparoundFlags()
        # (1, 4) cross-pairs, and (0, 5) mismatch in row 0; i = 0 comes first.
        classified = [
            ((0, 1), none),
            ((2, 2), row),
            ((3, 3), none),
            ((4, 4), none),
            ((5, 5), col),
            ((0, 6), WraparoundFlags(row_odd=True)),
        ]
        assert _first_violating_pair(classified) == (0, 5)
        assert nested_first_pair(classified) == (0, 5)


class TestCrossRegion:
    def make_view(self, a, k=6):
        # Plain view: these are geometry tests, independent of rectangulation.
        return TorusConfig(a)

    def test_mono_block_recovered(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        view = self.make_view(a)
        box = cross_region(view, (6, 6), 6)
        assert box.kind == "mono"
        assert (box.rect.row0, box.rect.height, box.rect.col0, box.rect.width) == (5, 3, 5, 4)

    def test_domino(self):
        a = np.zeros((20, 20), np.uint8)
        a[5, 5:7] = 1
        view = self.make_view(a)
        box = cross_region(view, (5, 5), 6)
        assert (box.rect.height, box.rect.width) == (1, 2)

    def test_chess_patch_recovered(self):
        a = np.zeros((20, 20), np.uint8)
        for i in range(5, 9):
            for j in range(5, 9):
                a[i, j] = (i + j) % 2
        view = self.make_view(a)
        for anchor in [(5, 6), (6, 5), (7, 8), (6, 6)]:
            box = cross_region(view, anchor, 6)
            assert box is not None, anchor
            assert (box.rect.row0, box.rect.height, box.rect.col0, box.rect.width) == (
                5,
                4,
                5,
                4,
            ), anchor

    def test_non_cell_returns_none(self):
        a = np.zeros((20, 20), np.uint8)
        view = self.make_view(a)
        assert cross_region(view, (10, 10), 6) is None


class TestViolationPredicates:
    def test_mono_interior_zero(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        a[6, 7] = 0
        view = TorusConfig(a)
        box = cross_region(view, (5, 5), 6)
        assert interior_violation(view, box, (6, 7))
        assert not interior_violation(view, box, (5, 5))

    def test_mono_perimeter_one(self):
        a = np.zeros((20, 20), np.uint8)
        a[5:8, 5:9] = 1
        a[9, 6] = 1  # distance 2 below the block
        view = TorusConfig(a)
        box = cross_region(view, (6, 6), 6)
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
        box = cross_region(view, (5, 6), 6)
        for cell in rect_ring(box.rect, 2):
            assert not perimeter_violation(view, box, cell)
        out_of_domain = (0, 0)
        with pytest.raises(ValueError):
            perimeter_violation(view, box, out_of_domain)


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
                box = cross_region(view, anchor, params.k)
                assert box is not None
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


class TestNaiveTester:
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
                    if f.row_any or f.col_any:
                        continue
                    found += 1
                    assert any(
                        not is_cell_stable(cfg, THR2, p) for p in moore(m, n, (i, j))
                    ), cfg.to_text()
        assert found > 500
