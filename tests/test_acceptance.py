"""Acceptance suite: the eleven headline criteria, one pass/fail line each.

Each test prints a single "criterion N: PASS" line on success; a pytest
failure marks the criterion as failed.  The heavy property loads live in the
per-module suites; criterion 11 runs a representative bundle here.
"""

import time

import numpy as np

from torustab import MAJORITY, THR2, TorusConfig, is_stable
from torustab.generators import (
    GenSpec,
    count_unstable,
    gen_hard_majority,
    gen_hard_thr2,
    gen_stable_thr2,
)
from torustab.grid import (
    Rule,
    apply_rule,
    complement,
    find_period,
    path_parity,
    von_neumann,
)
from torustab.stabilizer import StabilizerParams, stabilize
from torustab.structure import Rect, majority_structure_check, thr2_structure_check
from torustab.tester import (
    QueryOracle,
    TesterParams as TParams,
    query_cap,
    run_naive_tester,
    run_tester,
)

from grid_reference import as_rect, rect_cells


def batch_stable(grids: np.ndarray, rule: Rule) -> np.ndarray:
    """Vectorized two-step stability over a batch of (t, m, n) grids; m, n >= 3."""

    def step(g):
        counts = (
            g.astype(np.int8)
            + np.roll(g, 1, axis=1)
            + np.roll(g, -1, axis=1)
            + np.roll(g, 1, axis=2)
            + np.roll(g, -1, axis=2)
        )
        return (counts >= rule.b).astype(np.uint8)

    return (step(step(grids)) == grids).all(axis=(1, 2))


def all_4x4() -> np.ndarray:
    codes = np.arange(1 << 16, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    return bits.reshape(-1, 4, 4)


def random_suite(m: int, n: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    densities = rng.uniform(0.05, 0.95, size=count)
    return (rng.random((count, m, n)) < densities[:, None, None]).astype(np.uint8)


class TestCriterion1:
    def test_thr2_structural_equivalence(self):
        t0 = time.time()
        grids = all_4x4()
        oracle = batch_stable(grids, THR2)
        for g, expect in zip(grids, oracle):
            assert thr2_structure_check(TorusConfig(g)).ok == expect
        exhaustive_seconds = time.time() - t0
        assert exhaustive_seconds < 30
        for m, n, seed in [(5, 5, 101), (6, 6, 102), (8, 8, 103)]:
            grids = random_suite(m, n, 100_000, seed)
            oracle = batch_stable(grids, THR2)
            for g, expect in zip(grids, oracle):
                assert thr2_structure_check(TorusConfig(g)).ok == expect
        print(
            f"criterion 1: PASS - Thr2 structural check matches the oracle on all "
            f"65536 4x4 configs ({exhaustive_seconds:.1f} s) and 3x100000 random configs"
        )


class TestCriterion2:
    def test_majority_structural_equivalence(self):
        grids = all_4x4()
        oracle = batch_stable(grids, MAJORITY)
        for g, expect in zip(grids, oracle):
            assert majority_structure_check(TorusConfig(g)) == expect
        for m, n, seed in [(4, 6, 201), (6, 6, 202), (8, 8, 203)]:
            grids = random_suite(m, n, 100_000, seed)
            oracle = batch_stable(grids, MAJORITY)
            for g, expect in zip(grids, oracle):
                assert majority_structure_check(TorusConfig(g)) == expect
        print(
            "criterion 2: PASS - Majority structural check matches the oracle on all "
            "65536 4x4 configs and 3x100000 random configs"
        )


class TestCriterion3:
    def test_one_sided_error(self):
        pairs = 0
        for size, n_cfg in [(32, 40), (64, 40), (128, 20)]:
            for cseed in range(n_cfg):
                spec = GenSpec(
                    m=size,
                    n=size,
                    rects=4,
                    seed=1000 * size + cseed,
                    wraparound_row=(cseed % 5 == 0),
                )
                cfg = gen_stable_thr2(spec)
                for i, eps in enumerate([0.05, 0.1, 0.2]):
                    for seed in range(4 if i < 2 else 2):
                        res = run_tester(QueryOracle(cfg), TParams(eps=eps, seed=seed))
                        assert res.accepted, (size, cseed, eps, seed)
                        pairs += 1
        assert pairs == 1000
        print(f"criterion 3: PASS - 0 rejections over {pairs} (stable config, seed) pairs")


class TestCriterion4:
    def test_hard_instance_soundness(self):
        cfg = gen_hard_thr2(256)
        t0 = time.time()
        rejections = sum(
            not run_tester(QueryOracle(cfg), TParams(eps=0.01, seed=seed)).accepted
            for seed in range(300)
        )
        elapsed = time.time() - t0
        rate = rejections / 300
        assert rate >= 0.66
        assert elapsed < 120
        print(
            f"criterion 4: PASS - hard Thr2 instance n=256 rejected at rate "
            f"{rate:.3f} over 300 seeds in {elapsed:.1f} s"
        )


class TestCriterion5:
    def test_naive_separation(self):
        cfg = gen_hard_thr2(512)
        naive_accepts = sum(
            run_naive_tester(QueryOracle(cfg), THR2, 50, np.random.default_rng(seed))[0]
            for seed in range(300)
        )
        naive_rate = naive_accepts / 300
        assert naive_rate >= 0.80
        structural_rejects = sum(
            not run_tester(QueryOracle(cfg), TParams(eps=0.01, seed=seed)).accepted
            for seed in range(60)
        )
        structural_rate = structural_rejects / 60
        assert structural_rate >= 0.60
        print(
            f"criterion 5: PASS - naive tester accepts the n=512 hard instance at rate "
            f"{naive_rate:.3f} while the structural tester rejects at rate {structural_rate:.3f}"
        )


class TestCriterion6:
    def test_size_independent_query_cap(self):
        eps = 0.05
        caps = set()
        worst = 0
        runs = 0
        for size in (64, 128, 256, 512):
            params = TParams(eps=eps, seed=0)
            caps.add(query_cap(params, 10**9, 10**9))  # strip the trivial mn ceiling
            cfg = gen_stable_thr2(GenSpec(m=size, n=size, rects=3, seed=size))
            rng = np.random.default_rng(size)
            noisy = cfg.a.copy()
            noisy[rng.random(noisy.shape) < 0.02] ^= 1
            for cand in (cfg, TorusConfig(noisy)):
                for seed in range(13 if size < 512 else 12):
                    res = run_tester(QueryOracle(cand), TParams(eps=eps, seed=seed))
                    worst = max(worst, res.queries)
                    runs += 1
        assert runs >= 100
        assert len(caps) == 1
        cap = caps.pop()
        assert worst <= cap
        print(
            f"criterion 6: PASS - max {worst} queries over {runs} runs, under the "
            f"size-independent cap Q(0.05) = {cap}"
        )


class TestCriterion7:
    def test_stabilizer_hard_guarantee(self):
        eps = 0.1
        params = StabilizerParams(eps=eps)
        m = n = 64
        rng = np.random.default_rng(700)
        for trial in range(200):
            density = 0.1 + 0.8 * (trial % 10) / 9
            cfg = TorusConfig((rng.random((m, n)) < density).astype(np.uint8))
            out, report = stabilize(cfg, eps, params)
            assert is_stable(out, THR2), trial
            assert report.step1 <= 5 * params.alpha * m * n
            assert report.step2 <= 12 * m * n / params.k + 1e-9
            for stats in report.box_stats:
                size = stats["rect"][1] * stats["rect"][3]
                bound = 2 * (params.alpha * size + stats["d_count"])
                assert stats["modified"] <= max(bound, stats["v_count"]), trial
        print(
            "criterion 7: PASS - 200/200 random 64x64 stabilizations verified stable "
            "with all per-step counter bounds satisfied"
        )


class TestCriterion8:
    def test_closeness_on_stable_inputs(self):
        eps = 0.1
        budget = eps * 128 * 128
        worst = 0
        for cseed in range(100):
            spec = GenSpec(
                m=128,
                n=128,
                rects=6,
                seed=800 + cseed,
                wraparound_row=(cseed % 4 == 0),
            )
            cfg = gen_stable_thr2(spec)
            out, _ = stabilize(cfg, eps)
            hamming = int((out.a != cfg.a).sum())
            worst = max(worst, hamming)
            assert hamming < budget, cseed
        print(
            f"criterion 8: PASS - 100/100 stable 128x128 inputs modified by at most "
            f"{worst} cells (budget {budget:.0f})"
        )


class TestCriterion9:
    def test_hard_instance_census(self):
        for n in (16, 64, 256, 1024):
            assert count_unstable(gen_hard_thr2(n), THR2) == 2 * n, n
        for n in (20, 100, 500):
            assert count_unstable(gen_hard_majority(n), MAJORITY) < 4 * n, n
        print(
            "criterion 9: PASS - Thr2 hard census exactly 2n for n in {16,64,256,1024}; "
            "Majority census < 4n for n in {20,100,500}"
        )


class TestCriterion10:
    def test_period_two_convergence(self):
        rng = np.random.default_rng(1000)
        rules = [Rule(b) for b in (1, 2, 3, 4, 5)]
        for trial in range(10_000):
            m = int(rng.integers(3, 33))
            n = int(rng.integers(3, 33))
            cfg = TorusConfig((rng.random((m, n)) < rng.uniform(0.1, 0.9)).astype(np.uint8))
            rule = rules[trial % 5]
            _, period = find_period(cfg, rule, max_steps=4 * m * n)
            assert period in (1, 2), (m, n, rule.b)
        print("criterion 10: PASS - 10000 random configs reach period 1 or 2 under all five rules")


class TestCriterion11:
    def test_property_bundle(self):
        rng = np.random.default_rng(1100)

        # Duality: Thr_b(sigma) == ~Thr_{6-b}(~sigma) for m, n >= 3.
        for _ in range(400):
            m, n = int(rng.integers(3, 10)), int(rng.integers(3, 10))
            cfg = TorusConfig((rng.random((m, n)) < 0.5).astype(np.uint8))
            for b in (1, 2, 3, 4, 5):
                lhs = apply_rule(cfg, Rule(b))
                rhs = complement(apply_rule(complement(cfg), Rule(6 - b)))
                assert lhs == rhs

        # Geometry property A: an external cell adjacent to a non-almost-
        # wraparound rectangle touches exactly one of its cells.
        for _ in range(400):
            m, n = int(rng.integers(4, 12)), int(rng.integers(4, 12))
            h = int(rng.integers(1, m - 1))
            w = int(rng.integers(1, n - 1))
            if h == m - 1 or w == n - 1:
                continue
            rect = Rect(m, n, int(rng.integers(m)), h, int(rng.integers(n)), w)
            cells = rect_cells(rect)
            adjacent = {
                nb
                for c in cells
                for nb in von_neumann(m, n, c)
                if nb not in cells
            }
            for ell in adjacent:
                touching = sum(1 for nb in von_neumann(m, n, ell) if nb in cells)
                assert touching == 1, (m, n, rect, ell)

        # Geometry property B: a connected non-rectangle has an external cell in
        # its bounding box adjacent to at least two of its cells.
        found_non_rects = 0
        for _ in range(600):
            m = n = 12
            cells = {(4, 4)}
            for _ in range(int(rng.integers(2, 10))):
                base = list(cells)[int(rng.integers(len(cells)))]
                moves = [(0, 1), (0, -1), (1, 0), (-1, 0)]
                di, dj = moves[int(rng.integers(4))]
                cand = (base[0] + di, base[1] + dj)
                if 1 <= cand[0] <= 9 and 1 <= cand[1] <= 9:
                    cells.add(cand)
            if as_rect(m, n, cells) is not None:
                continue
            found_non_rects += 1
            rows = [c[0] for c in cells]
            cols = [c[1] for c in cells]
            box = {
                (i, j)
                for i in range(min(rows), max(rows) + 1)
                for j in range(min(cols), max(cols) + 1)
            }
            witnesses = [
                ell
                for ell in box - cells
                if sum(1 for nb in von_neumann(m, n, ell) if nb in cells) >= 2
            ]
            assert witnesses, sorted(cells)
        assert found_non_rects > 200

        # Parity algebra: path parity is symmetric and composes by xor.
        for _ in range(200):
            m, n = 9, 9
            cells = {(i, j) for i in range(2, 7) for j in range(2, 7)}
            pts = [
                (int(rng.integers(2, 7)), int(rng.integers(2, 7))) for _ in range(3)
            ]
            p01 = path_parity(m, n, cells, pts[0], pts[1])
            p10 = path_parity(m, n, cells, pts[1], pts[0])
            p12 = path_parity(m, n, cells, pts[1], pts[2])
            p02 = path_parity(m, n, cells, pts[0], pts[2])
            assert p01 == p10 and p02 == p01 ^ p12

        print(
            "criterion 11: PASS - property bundle (duality, geometry properties, parity "
            "algebra) clean; full loads run in the per-module suites"
        )
