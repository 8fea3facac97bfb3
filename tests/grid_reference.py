"""Reference helpers for the tests: brute-force torus distances and balls,
the cells of a rectangle, the per-cell classification, every configuration
of every small torus, and seeded stabilizer inputs.

These have no caller in the package; the tests use them as independent
oracles for neighborhood-shaped reads and rings, and as exhaustive or
fuzzed inputs.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from torustab.grid import Cell, Rule, TorusConfig, apply_rule, cyclic_distance

FIXED = "fixed"
TOGGLING = "toggling"
UNSTABLE = "unstable"


def torus_distance(m: int, n: int, a: Cell, b: Cell) -> int:
    """Toroidal Manhattan distance between two cells."""
    return cyclic_distance(a[0], b[0], m) + cyclic_distance(a[1], b[1], n)


def rect_cells(rect) -> set[Cell]:
    """The cells of a `structure.Rect`, as a set."""
    return {(i, j) for i in rect.rows() for j in rect.cols()}


def classify_cell(cfg: TorusConfig, rule: Rule, cell: Cell) -> str:
    """FIXED, TOGGLING, or UNSTABLE per the two-step state sequence: the
    per-cell reference of `grid.classify_cells`."""
    one = apply_rule(cfg, rule)
    two = apply_rule(one, rule)
    s0, s1, s2 = cfg[cell], one[cell], two[cell]
    if s0 == s1 == s2:
        return FIXED
    if s1 != s0 and s2 == s0:
        return TOGGLING
    return UNSTABLE


def neighborhood(
    m: int, n: int, cells: Cell | Iterable[Cell], r: int, mode: str = "at-most"
) -> set[Cell]:
    """Toroidal Manhattan ball (mode='at-most') or sphere (mode='exactly').

    Accepts a single cell or an iterable of cells; the set version is the union
    of the per-cell neighborhoods (sphere: ball(r) minus ball(r-1)).
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if mode not in ("at-most", "exactly"):
        raise ValueError(f"bad mode {mode!r}")
    if isinstance(cells, tuple) and len(cells) == 2 and isinstance(cells[0], int):
        seeds = [cells]
    else:
        seeds = list(cells)  # type: ignore[arg-type]

    def ball(radius: int) -> set[Cell]:
        out: set[Cell] = set()
        for (ci, cj) in seeds:
            ci, cj = ci % m, cj % n
            for di in range(-radius, radius + 1):
                rem = radius - abs(di)
                for dj in range(-rem, rem + 1):
                    out.add(((ci + di) % m, (cj + dj) % n))
        return out

    if mode == "at-most":
        return ball(r)
    if r == 0:
        return ball(0)
    return ball(r) - ball(r - 1)


def all_small_tori(max_cells: int):
    """Every configuration on every torus with m * n <= max_cells, one
    (count, m, n) array per shape."""
    for m in range(1, max_cells + 1):
        for n in range(1, max_cells // m + 1):
            codes = np.arange(1 << (m * n), dtype=np.uint32)
            bits = (codes[:, None] >> np.arange(m * n)) & 1
            yield bits.astype(np.uint8).reshape(-1, m, n)


FUZZ_EPS = (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)


def stabilizer_fuzz_inputs(seed: int, count: int):
    """`count` seeded (grid, eps) pairs with sides 1-19 and eps in FUZZ_EPS.

    Every third grid is uniform at a random density.  The others plant one
    or two alternating lines on a random axis and flip 2-15 % of the cells,
    so Step 1 repairs near-wraparounds next to Step 3 boxes.
    """
    rng = np.random.default_rng(seed)
    for t in range(count):
        m, n = (int(x) for x in rng.integers(1, 20, size=2))
        eps = FUZZ_EPS[int(rng.integers(len(FUZZ_EPS)))]
        if t % 3 == 0:
            a = (rng.random((m, n)) < rng.random()).astype(np.uint8)
        else:
            a = np.zeros((m, n), np.uint8)
            lines = a if rng.integers(2) == 0 else a.T
            for _ in range(int(rng.integers(1, 3))):
                r = int(rng.integers(lines.shape[0]))
                lines[r] = (np.arange(lines.shape[1]) + rng.integers(2)) % 2
            a ^= (rng.random((m, n)) < rng.uniform(0.02, 0.15)).astype(np.uint8)
        yield a, eps


def near_w_boxes(rng, m: int, n: int) -> TorusConfig:
    """One chessboard wraparound row and, on each side of it, a mono box, a
    width-1 mono strip or a chessboard box in anti-phase to the row, 2 or 3
    rows away, plus up to 3 flipped cells: inputs on which Step 3 repairs
    boxes next to W."""
    a = np.zeros((m, n), np.uint8)
    r, ph = int(rng.integers(m)), int(rng.integers(2))
    a[r] = (np.arange(n) + ph) % 2
    for side in (1, -1):
        kind = int(rng.choice(3, p=(0.25, 0.5, 0.25)))  # mono, chess, strip
        gap, h = int(rng.choice((2, 2, 3))), int(rng.integers(2, 6))
        w = 1 if kind == 2 else int(rng.integers(2, n // 2 + 1))
        cols = (int(rng.integers(n)) + np.arange(w)) % n
        for d in range(gap, gap + h):
            a[(r + side * d) % m, cols] = (cols + ph + d + 1) % 2 if kind == 1 else 1
    flips = int(rng.integers(0, 4))
    a[rng.integers(m, size=flips), rng.integers(n, size=flips)] ^= 1
    return TorusConfig(a)
