"""Tests for the torus grid core against independent hand-rolled oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torustab import (
    MAJORITY,
    THR1,
    THR2,
    THR5,
    Rule,
    TorusConfig,
    apply_rule,
    complement,
    find_period,
    is_cell_stable,
    is_stable,
    moore,
    neighborhood,
    path_parity,
    von_neumann,
)
from torustab.grid import (
    ParityError,
    classify_cell,
    classify_cells,
    moore_offsets,
    shifted,
    threshold_step,
    torus_distance,
)


def slow_step(a: np.ndarray, b: int) -> np.ndarray:
    """Reference implementation: per-cell loop over distinct neighbors."""
    m, n = a.shape
    out = np.zeros_like(a)
    for i in range(m):
        for j in range(n):
            nbs = {((i + 1) % m, j), ((i - 1) % m, j), (i, (j + 1) % n), (i, (j - 1) % n)}
            nbs.discard((i, j))
            count = int(a[i, j]) + sum(int(a[p]) for p in nbs)
            out[i, j] = 1 if count >= b else 0
    return out


def slow_von_neumann(m: int, n: int, cell) -> list:
    """Reference: right, left, down, up; first occurrences, never the cell."""
    i, j = cell
    out = []
    for c in [(i, (j + 1) % n), (i, (j - 1) % n), ((i + 1) % m, j), ((i - 1) % m, j)]:
        if c != (i, j) and c not in out:
            out.append(c)
    return out


# Every shape from 1x1 to 6x8, degenerate ones included.
SMALL_SHAPES = [(m, n) for m in range(1, 7) for n in range(1, 9)]

grids = st.tuples(
    st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**31 - 1)
).map(
    lambda t: TorusConfig(
        (np.random.default_rng(t[2]).random((t[0], t[1])) < 0.5).astype(np.uint8)
    )
)


class TestRule:
    def test_valid_thresholds(self):
        assert [Rule(b).b for b in range(1, 6)] == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("b", [0, 6, -1])
    def test_invalid_threshold(self, b):
        with pytest.raises(ValueError):
            Rule(b)

    def test_dual(self):
        assert THR1.dual == THR5
        assert MAJORITY.dual == MAJORITY


class TestNeighborhoods:
    def test_von_neumann_generic(self):
        assert set(von_neumann(5, 5, (2, 2))) == {(1, 2), (3, 2), (2, 1), (2, 3)}

    def test_von_neumann_wraps(self):
        assert set(von_neumann(4, 4, (0, 0))) == {(3, 0), (1, 0), (0, 3), (0, 1)}

    def test_von_neumann_degenerate(self):
        # On a 1 x 4 torus the vertical neighbors collapse onto the cell itself.
        assert set(von_neumann(1, 4, (0, 0))) == {(0, 1), (0, 3)}
        # On a 2 x 2 torus each cell has exactly two distinct neighbors.
        assert set(von_neumann(2, 2, (0, 0))) == {(0, 1), (1, 0)}
        assert set(von_neumann(1, 1, (0, 0))) == set()

    def test_moore_size(self):
        assert len(moore(5, 5, (1, 1))) == 9
        assert len(moore(2, 2, (0, 0))) == 4

    @given(grids, st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_ball_matches_distance_scan(self, cfg, r):
        m, n = cfg.shape
        ball = neighborhood(m, n, (0, 0), r)
        scan = {
            (i, j)
            for i in range(m)
            for j in range(n)
            if torus_distance(m, n, (0, 0), (i, j)) <= r
        }
        assert ball == scan

    def test_sphere_is_ball_difference(self):
        ring = neighborhood(9, 9, (4, 4), 2, mode="exactly")
        assert ring == neighborhood(9, 9, (4, 4), 2) - neighborhood(9, 9, (4, 4), 1)
        assert len(ring) == 8

    def test_multi_cell_union(self):
        got = neighborhood(9, 9, [(0, 0), (0, 4)], 1)
        assert got == neighborhood(9, 9, (0, 0), 1) | neighborhood(9, 9, (0, 4), 1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            neighborhood(5, 5, (0, 0), -1)
        with pytest.raises(ValueError):
            neighborhood(5, 5, (0, 0), 1, mode="sideways")


class TestApplyRule:
    @given(grids, st.integers(1, 5))
    @settings(max_examples=120, deadline=None)
    def test_matches_slow_oracle(self, cfg, b):
        got = apply_rule(cfg, Rule(b))
        assert (got.a == slow_step(cfg.a, b)).all()

    @given(grids, st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_duality(self, cfg, b):
        if cfg.m < 3 or cfg.n < 3:
            return  # duality needs the full 5-cell closed neighborhood
        rule = Rule(b)
        lhs = apply_rule(cfg, rule)
        rhs = complement(apply_rule(complement(cfg), rule.dual))
        assert lhs == rhs

    def test_input_unmodified(self):
        cfg = TorusConfig.ones(3, 3)
        before = cfg.a.copy()
        apply_rule(cfg, THR5)
        assert (cfg.a == before).all()

    def test_monotone_fixed_points(self):
        for rule in (THR1, THR2, MAJORITY):
            assert is_stable(TorusConfig.zeros(4, 6), rule)
            assert is_stable(TorusConfig.ones(4, 6), rule)


class TestSmallShapes:
    """Every shape from 1x1 to 6x8 against the per-cell references."""

    def test_apply_rule_matches_slow_step(self):
        rng = np.random.default_rng(71)
        for m, n in SMALL_SHAPES:
            for density in (0.3, 0.6):
                a = (rng.random((m, n)) < density).astype(np.uint8)
                for b in range(1, 6):
                    assert (apply_rule(TorusConfig(a), Rule(b)).a == slow_step(a, b)).all(), (m, n, b)

    def test_batched_step_matches_slow_step(self):
        rng = np.random.default_rng(72)
        for m, n in SMALL_SHAPES:
            stack = (rng.random((4, m, n)) < 0.5).astype(np.uint8)
            for b in range(1, 6):
                got = threshold_step(stack, b)
                for g, a in zip(got, stack):
                    assert (g == slow_step(a, b)).all(), (m, n, b)

    def test_shifted_matches_roll(self):
        rng = np.random.default_rng(73)
        for m, n in SMALL_SHAPES:
            stack = (rng.random((2, m, n)) < 0.5).astype(np.uint8)
            for di in range(-3, 4):
                for dj in range(-3, 4):
                    want = np.roll(stack, (-di, -dj), axis=(1, 2))
                    assert (shifted(stack, di, dj) == want).all(), (m, n, di, dj)

    def test_neighbor_order(self):
        for m, n in SMALL_SHAPES:
            for i in range(m):
                for j in range(n):
                    assert von_neumann(m, n, (i, j)) == slow_von_neumann(m, n, (i, j))
                    want = {((i + p) % m, (j + q) % n) for p in (-1, 0, 1) for q in (-1, 0, 1)}
                    assert moore(m, n, (i, j)) == want
        # Moore offsets are row-major; none collapse once both sides are >= 3.
        assert moore_offsets(5, 7) == (
            (4, 6), (4, 0), (4, 1), (0, 6), (0, 1), (1, 6), (1, 0), (1, 1)
        )
        assert moore_offsets(1, 4) == ((0, 3), (0, 1))


class TestStability:
    def test_chessboard_toggles_under_thr2(self):
        a = (np.indices((4, 6)).sum(axis=0) % 2).astype(np.uint8)
        cfg = TorusConfig(a)
        assert is_stable(cfg, THR2)
        assert apply_rule(cfg, THR2) == complement(cfg)
        assert find_period(cfg, THR2) == (0, 2)

    def test_isolated_cell_unstable_under_thr2(self):
        a = np.zeros((5, 5), np.uint8)
        a[2, 2] = 1
        cfg = TorusConfig(a)
        assert not is_stable(cfg, THR2)
        assert not is_cell_stable(cfg, THR2, (2, 2))
        assert classify_cell(cfg, THR2, (2, 2)) == "unstable"

    @given(grids, st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_cellwise_agrees_with_global(self, cfg, b):
        rule = Rule(b)
        m, n = cfg.shape
        cellwise = all(is_cell_stable(cfg, rule, (i, j)) for i in range(m) for j in range(n))
        assert cellwise == is_stable(cfg, rule)

    @given(grids, st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_classify_cells_vectorized(self, cfg, b):
        rule = Rule(b)
        kinds = classify_cells(cfg, rule)
        names = ["fixed", "toggling", "unstable"]
        for i in range(cfg.m):
            for j in range(cfg.n):
                assert names[kinds[i, j]] == classify_cell(cfg, rule, (i, j))

    @given(grids, st.integers(1, 5))
    @settings(max_examples=80, deadline=None)
    def test_period_always_at_most_two(self, cfg, b):
        pre, period = find_period(cfg, Rule(b))
        assert period in (1, 2)
        assert pre >= 0


class TestPathParity:
    def test_straight_segment(self):
        seg = [(0, j) for j in range(4)]
        assert path_parity(8, 8, seg, (0, 0), (0, 3)) == 1
        assert path_parity(8, 8, seg, (0, 0), (0, 2)) == 0

    def test_wraparound_even_row(self):
        row = [(0, j) for j in range(6)]
        assert path_parity(4, 6, row, (0, 0), (0, 3)) == 1

    def test_odd_wraparound_rejected(self):
        row = [(0, j) for j in range(5)]
        with pytest.raises(ParityError):
            path_parity(4, 5, row, (0, 0), (0, 3))

    def test_disconnected_rejected(self):
        with pytest.raises(ParityError):
            path_parity(8, 8, [(0, 0), (0, 1), (4, 4), (4, 5)], (0, 0), (4, 4))

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ParityError):
            path_parity(8, 8, [(0, 0), (0, 1)], (0, 0), (3, 3))

    def test_parity_is_additive(self):
        block = [(i, j) for i in range(3) for j in range(4)]
        p01 = path_parity(9, 9, block, (0, 0), (1, 2))
        p12 = path_parity(9, 9, block, (1, 2), (2, 3))
        p02 = path_parity(9, 9, block, (0, 0), (2, 3))
        assert p02 == (p01 + p12) % 2


class TestGridText:
    def test_round_trip(self):
        cfg = TorusConfig([[0, 1, 1], [1, 0, 0]])
        assert TorusConfig.from_text(cfg.to_text()) == cfg

    @pytest.mark.parametrize(
        "text",
        [
            "2 3\n011\n100",  # missing trailing newline
            "2 3\n011\n1000\n",  # wrong row width
            "2 3\n011\n100\n\n",  # trailing blank line
            "2 3\n011\n102\n",  # bad character
            "2\n01\n10\n",  # bad header
            "3 3\n011\n100\n",  # row count mismatch
        ],
    )
    def test_strict_rejects(self, text):
        with pytest.raises(ValueError):
            TorusConfig.from_text(text)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            TorusConfig([[0, 2]])

    @pytest.mark.parametrize("bad", [2, 255, 2.0])
    def test_non_binary_value_rejected_in_any_cell(self, bad):
        for shape in ((1, 1), (3, 4)):
            grid = np.zeros(shape, dtype=np.asarray(bad).dtype)
            grid[-1, -1] = bad
            with pytest.raises(ValueError, match="binary"):
                TorusConfig(grid)
