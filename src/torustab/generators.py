"""Instance construction: verified-stable configurations, hard instances
with few unstable cells, perturbations, and brute-force distance oracles.

The hard instances reproduce the pattern of configurations that are far from
stable yet contain only O(n) unstable cells, which defeats naive per-cell
sampling at fixed sample sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import MAJORITY, THR2, Rule, TorusConfig, classify_cells, is_stable, threshold_step


class InfeasibleSpec(ValueError):
    """The requested layout cannot be placed on the given torus."""


@dataclass
class GenSpec:
    """Placement knobs for the stable-configuration generators."""

    m: int
    n: int
    rects: int = 4
    min_size: int = 1
    max_size: int = 5
    wraparound_row: bool = False
    zebra_bands: int = 0
    seed: int = 0


def count_unstable(cfg: TorusConfig, rule: Rule) -> int:
    """Number of cells whose state differs after two rule applications."""
    return int((classify_cells(cfg, rule) == 2).sum())


def perturb(cfg: TorusConfig, flips: int, rng: np.random.Generator) -> TorusConfig:
    """Flip `flips` distinct uniformly chosen cells."""
    mn = cfg.m * cfg.n
    if not (0 <= flips <= mn):
        raise ValueError(f"flips must be in [0, {mn}]")
    out = cfg.a.copy()
    picks = rng.choice(mn, size=flips, replace=False)
    out[np.unravel_index(picks, cfg.shape)] ^= 1
    return TorusConfig(out)


def _place_rects(spec: GenSpec, rng: np.random.Generator) -> np.ndarray:
    """Random mono and chessboard rectangles with safe pairwise separations."""
    m, n = spec.m, spec.n
    a = np.zeros((m, n), np.uint8)
    placed: list[tuple[int, int, int, int, int]] = []  # r0, r1, c0, c1, margin

    def fits(r0, r1, c0, c1, margin) -> bool:
        for pr0, pr1, pc0, pc1, pm in placed:
            need = max(margin, pm)
            if not (r0 > pr1 + need or pr0 > r1 + need or c0 > pc1 + need or pc0 > c1 + need):
                return False
        return True

    attempts = 0
    want = spec.rects
    while want > 0 and attempts < 200 * spec.rects:
        attempts += 1
        kind = rng.choice(["mono", "chess"])
        h = int(rng.integers(spec.min_size, spec.max_size + 1))
        w = int(rng.integers(spec.min_size, spec.max_size + 1))
        if kind == "mono" and h * w < 2:
            w = 2
        if kind == "chess":
            h, w = max(h, 2), max(w, 2)
        if h + 8 > m or w + 8 > n:
            raise InfeasibleSpec(f"{h}x{w} rectangle does not fit on {m}x{n}")
        r0 = int(rng.integers(0, m - h - 6))
        c0 = int(rng.integers(0, n - w - 6))
        r1, c1 = r0 + h - 1, c0 + w - 1
        margin = 3 if kind == "mono" else 2
        if not fits(r0, r1, c0, c1, margin):
            continue
        placed.append((r0, r1, c0, c1, margin))
        if kind == "mono":
            a[r0 : r1 + 1, c0 : c1 + 1] = 1
        else:
            phase = int(rng.integers(2))
            for i in range(r0, r1 + 1):
                for j in range(c0, c1 + 1):
                    a[i, j] = (i + j + phase) % 2
        want -= 1
    return a


def gen_stable_thr2(spec: GenSpec) -> TorusConfig:
    """A random Threshold-2-stable configuration; oracle-verified.

    Verification failure means a generator bug, so it raises instead of
    silently resampling.
    """
    if spec.m < 10 or spec.n < 10:
        raise InfeasibleSpec("torus too small for safe placements")
    rng = np.random.default_rng(spec.seed)
    a = _place_rects(spec, rng)
    if spec.wraparound_row:
        if spec.n % 2 != 0:
            raise InfeasibleSpec("wraparound chessboard row needs even n")
        # Use a row at least 3 away from everything already placed.
        occupied = np.nonzero(a.any(axis=1))[0]
        for r in range(spec.m):
            if all(min((r - o) % spec.m, (o - r) % spec.m) > 3 for o in occupied):
                a[r, :] = (np.arange(spec.n) + 1) % 2
                break
        else:
            raise InfeasibleSpec("no room for a wraparound row")
    cfg = TorusConfig(a)
    if not is_stable(cfg, THR2):
        raise RuntimeError("generator bug: emitted configuration is not stable")
    return cfg


def gen_stable_majority(spec: GenSpec) -> TorusConfig:
    """A random Majority-stable configuration; oracle-verified.

    Layout: horizontal stripes of 0s and 1s (any heights >= 1), optionally a
    full chessboard region replaced by stripes, or zebra bands stacked with
    chessboard rows so that every zebra cell touches an opposite-state
    toggling cell.
    """
    m, n = spec.m, spec.n
    if n < 3:
        # Each layout keeps a cell fixed through its two row neighbours,
        # which are distinct cells only on rows of 3 or more.
        raise InfeasibleSpec("rows need at least 3 cells")
    rng = np.random.default_rng(spec.seed)
    if spec.zebra_bands > 0:
        if n % 2 != 0:
            raise InfeasibleSpec("zebra bands need even n")
        # Repeating unit: chessboard row, two zebra rows, chessboard row.
        unit = 4
        if m % unit != 0 or spec.zebra_bands * unit > m:
            raise InfeasibleSpec("m must be a multiple of 4 covering the bands")
        a = np.zeros((m, n), np.uint8)
        chess = np.arange(n) % 2
        for b in range(m // unit):
            r = b * unit
            a[r, :] = chess
            a[r + 1, :] = 1 - chess
            a[r + 2, :] = 1 - chess
            a[r + 3, :] = chess
    else:
        # Horizontal monochromatic stripes; any heights >= 1 are stable, and a
        # wrap seam merely merges the first and last stripes.
        a = np.zeros((m, n), np.uint8)
        r = 0
        state = int(rng.integers(2))
        while r < m:
            h = int(rng.integers(1, 5))
            a[r : min(m, r + h), :] = state
            r += h
            state ^= 1
    cfg = TorusConfig(a)
    if not is_stable(cfg, MAJORITY):
        raise RuntimeError("generator bug: emitted configuration is not stable")
    return cfg


def gen_hard_thr2(n: int) -> TorusConfig:
    """The n x n configuration with only 2n unstable cells yet far from
    Threshold-2 stable.

    Even-indexed rows carry almost-alternating patterns whose phase flips
    inside a middle band, creating two same-state defects per row; odd rows
    are all-zero; consecutive patterned rows are negatives of one another.
    """
    if n < 12 or n % 4 != 0:
        raise ValueError("n must be a multiple of 4, at least 12")
    d1, d2 = n // 3, 2 * n // 3
    a = np.zeros((n, n), np.uint8)
    base = np.arange(n) % 2
    base[d1:d2] ^= 1  # phase flip inside the middle band
    for r in range(0, n, 2):
        flip = (r // 2) % 2
        a[r, :] = base ^ flip
    return TorusConfig(a)


def gen_hard_majority(n: int) -> TorusConfig:
    """The n x n configuration with fewer than 4n unstable cells yet far from
    Majority-stable.

    Five-row repeating unit: an all-zero separator row, an almost-wraparound
    chessboard row, a height-2 almost-zebra band, and another almost
    chessboard row; "almost" means the pattern phase flips inside a middle
    band of columns.
    """
    if n < 20 or n % 10 != 0:
        # The five-row unit needs 5 | n; the chessboard and zebra rows only
        # wrap cleanly when n is even, so odd multiples of 5 are rejected.
        raise ValueError("n must be a multiple of 10, at least 20")
    d1, d2 = n // 3, 2 * n // 3
    chess = np.arange(n) % 2
    chess[d1:d2] ^= 1
    a = np.zeros((n, n), np.uint8)
    for r in range(0, n, 5):
        a[r + 1, :] = chess
        a[r + 2, :] = 1 - chess
        a[r + 3, :] = 1 - chess
        a[r + 4, :] = chess
    return TorusConfig(a)


def exact_distance_to_stable(cfg: TorusConfig, rule: Rule) -> int:
    """Minimum Hamming distance to any stable configuration, by enumeration.

    Only feasible for mn <= 20; the ground-truth oracle for farness claims.
    """
    mn = cfg.m * cfg.n
    if mn > 20:
        raise ValueError(f"mn = {mn} too large for enumeration")
    total = 1 << mn
    codes = np.arange(total, dtype=np.uint64)
    bits = ((codes[:, None] >> np.arange(mn, dtype=np.uint64)) & 1).astype(np.uint8)
    grids = bits.reshape(total, cfg.m, cfg.n)

    twice = threshold_step(threshold_step(grids, rule.b), rule.b)
    stable_mask = (twice == grids).all(axis=(1, 2))
    target = cfg.a.reshape(1, cfg.m, cfg.n)
    dists = (grids[stable_mask] != target).sum(axis=(1, 2))
    return int(dists.min())
