"""Tests for instance generators, censuses, and the brute-force oracles."""

import itertools

import numpy as np
import pytest

from torustab import MAJORITY, THR2, Rule, TorusConfig, is_stable
from torustab.generators import (
    GenSpec,
    InfeasibleSpec,
    count_unstable,
    exact_distance_to_stable,
    gen_hard_majority,
    gen_hard_thr2,
    gen_stable_majority,
    gen_stable_thr2,
    perturb,
)


def slow_distance_to_stable(a: np.ndarray, b: int) -> int:
    """Reference: enumerate every grid and double-step it cell by cell,
    counting each distinct von Neumann neighbor other than the cell once."""
    m, n = a.shape

    def step(g):
        out = np.zeros_like(g)
        for i in range(m):
            for j in range(n):
                nbs = {((i + 1) % m, j), ((i - 1) % m, j), (i, (j + 1) % n), (i, (j - 1) % n)}
                out[i, j] = int(g[i, j]) + sum(int(g[c]) for c in nbs - {(i, j)}) >= b
        return out

    best = m * n
    for bits in itertools.product((0, 1), repeat=m * n):
        g = np.array(bits, np.uint8).reshape(m, n)
        if (step(step(g)) == g).all():
            best = min(best, int((g != a).sum()))
    return best


class TestStableGenerators:
    def test_zero_rects_all_zero(self):
        cfg = gen_stable_thr2(GenSpec(m=16, n=16, rects=0, seed=1))
        assert not cfg.a.any()

    def test_thr2_random_rects_stable(self):
        for seed in range(100):
            cfg = gen_stable_thr2(GenSpec(m=64, n=64, rects=5, seed=seed))
            assert is_stable(cfg, THR2), seed

    def test_thr2_with_wraparound_row(self):
        for seed in range(20):
            cfg = gen_stable_thr2(GenSpec(m=24, n=24, rects=3, seed=seed, wraparound_row=True))
            assert is_stable(cfg, THR2), seed

    def test_thr2_too_small_rejected(self):
        with pytest.raises(InfeasibleSpec):
            gen_stable_thr2(GenSpec(m=6, n=6, rects=1))

    def test_majority_stripes_stable(self):
        for seed in range(30):
            cfg = gen_stable_majority(GenSpec(m=20, n=16, seed=seed))
            assert is_stable(cfg, MAJORITY), seed

    def test_majority_zebra_bands_stable(self):
        cfg = gen_stable_majority(GenSpec(m=16, n=12, zebra_bands=4, seed=3))
        assert is_stable(cfg, MAJORITY)

    def test_majority_zebra_odd_n_rejected(self):
        with pytest.raises(InfeasibleSpec):
            gen_stable_majority(GenSpec(m=16, n=13, zebra_bands=4))

    def test_majority_short_rows_rejected(self):
        # On rows of one or two cells the stripes and bands are not stable.
        for m in range(1, 9):
            for n, bands in ((1, 0), (2, 0), (2, 1)):
                with pytest.raises(InfeasibleSpec):
                    gen_stable_majority(GenSpec(m=m, n=n, zebra_bands=bands))


class TestHardInstances:
    def test_thr2_census_exact(self):
        for n in (12, 16, 24, 64):
            cfg = gen_hard_thr2(n)
            assert count_unstable(cfg, THR2) == 2 * n, n

    def test_thr2_per_row_defects(self):
        from torustab.grid import classify_cells

        n = 16
        kinds = classify_cells(gen_hard_thr2(n), THR2)
        # One patterned row per 2-row unit, 4 unstable cells per patterned row.
        for r in range(0, n, 2):
            assert (kinds[r] == 2).sum() == 4
            assert (kinds[r + 1] == 2).sum() == 0

    def test_thr2_bad_n(self):
        for n in (8, 13, 14):
            with pytest.raises(ValueError):
                gen_hard_thr2(n)

    def test_majority_census_bound(self):
        for n in (20, 40, 100):
            cfg = gen_hard_majority(n)
            assert count_unstable(cfg, MAJORITY) < 4 * n, n

    def test_majority_defect_free_variant_stable(self):
        # The same layout without the phase flips is an exact composition of
        # wraparound rows and zebra bands, hence stable.
        n = 20
        chess = np.arange(n) % 2
        a = np.zeros((n, n), np.uint8)
        for r in range(0, n, 5):
            a[r + 1, :] = chess
            a[r + 2, :] = 1 - chess
            a[r + 3, :] = 1 - chess
            a[r + 4, :] = chess
        assert is_stable(TorusConfig(a), MAJORITY)

    def test_majority_bad_n(self):
        for n in (15, 18, 24):
            with pytest.raises(ValueError):
                gen_hard_majority(n)


class TestPerturb:
    def test_zero_flips_identity(self):
        cfg = gen_stable_thr2(GenSpec(m=16, n=16, rects=2, seed=5))
        out = perturb(cfg, 0, np.random.default_rng(0))
        assert out == cfg

    def test_flip_count_exact(self):
        rng = np.random.default_rng(1)
        cfg = TorusConfig.zeros(10, 10)
        out = perturb(cfg, 7, rng)
        assert int(out.a.sum()) == 7

    def test_flips_bounds(self):
        with pytest.raises(ValueError):
            perturb(TorusConfig.zeros(4, 4), 17, np.random.default_rng(0))


class TestCountUnstable:
    def test_all_zero(self):
        for rule in (THR2, MAJORITY):
            assert count_unstable(TorusConfig.zeros(8, 8), rule) == 0


class TestExactDistance:
    def test_stable_config_distance_zero(self):
        a = np.zeros((4, 4), np.uint8)
        a[1, 1:3] = 1
        cfg = TorusConfig(a)
        assert is_stable(cfg, THR2)
        assert exact_distance_to_stable(cfg, THR2) == 0

    def test_single_one_distance_one(self):
        a = np.zeros((4, 4), np.uint8)
        a[2, 2] = 1
        assert exact_distance_to_stable(TorusConfig(a), THR2) == 1

    def test_l_tromino_regression(self):
        # Frozen oracle value: the cheapest repair completes the L into a
        # stable shape or erases a cell.
        a = np.zeros((4, 4), np.uint8)
        a[1, 1] = a[1, 2] = a[2, 1] = 1
        assert exact_distance_to_stable(TorusConfig(a), THR2) == 1

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            exact_distance_to_stable(TorusConfig.zeros(5, 5), THR2)

    def test_consistent_with_stability_oracle(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            cfg = TorusConfig((rng.random((m, n)) < 0.5).astype(np.uint8))
            for rule in (THR2, MAJORITY):
                zero = exact_distance_to_stable(cfg, rule) == 0
                assert zero == is_stable(cfg, rule)

    def test_small_shapes_match_cell_reference(self):
        # Every shape from 1x1 to 6x8 small enough to enumerate by hand.
        rng = np.random.default_rng(62)
        for m in range(1, 7):
            for n in range(1, 9):
                if m * n > 8:
                    continue
                a = (rng.random((m, n)) < 0.5).astype(np.uint8)
                for b in range(1, 6):
                    got = exact_distance_to_stable(TorusConfig(a), Rule(b))
                    assert got == slow_distance_to_stable(a, b), (m, n, b)
