"""Reference helpers for the tests: brute-force torus distances and balls,
the cells of a rectangle, the per-cell classification, the set-walk
components, every configuration of every small torus, and seeded
stabilizer inputs.

These have no caller in the package; the tests use them as independent
oracles for neighborhood-shaped reads and rings, and as exhaustive or
fuzzed inputs.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Optional

import numpy as np

from torustab.grid import Cell, Rule, TorusConfig, apply_rule, cyclic_distance, von_neumann
from torustab.structure import CHESS, MONO, Component, Rect

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


def set_walk(cells: set[Cell], neighbors: Callable[[Cell], list[Cell]]) -> list[set[Cell]]:
    """Connected components of a cell set under a neighbor relation.

    Seeds are popped from a copy of the set and each component is walked
    breadth-first, so the list order follows the set's iteration order.
    """
    remaining = set(cells)
    out = []
    while remaining:
        seed = remaining.pop()
        comp = {seed}
        queue = deque([seed])
        while queue:
            c = queue.popleft()
            for nb in neighbors(c):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    queue.append(nb)
        out.append(comp)
    return out


def cyclic_interval(values: set[int], size: int) -> Optional[tuple[int, int]]:
    """Recognize a set of residues as a cyclic interval; returns (start, length).

    A full cycle is reported as (0, size).  Returns None if the set is not an
    interval.
    """
    if not values:
        return None
    if len(values) == size:
        return (0, size)
    # An interval has exactly one value whose predecessor is absent: its start.
    starts = [v for v in values if (v - 1) % size not in values]
    if len(starts) != 1:
        return None
    return (starts[0], len(values))


def as_rect(m: int, n: int, cells: set[Cell]) -> Optional[Rect]:
    """The cell set as a Rect, or None if it is not a torus rectangle."""
    rows = {i for i, _ in cells}
    cols = {j for _, j in cells}
    ri = cyclic_interval(rows, m)
    ci = cyclic_interval(cols, n)
    if ri is None or ci is None:
        return None
    if len(cells) != len(rows) * len(cols):
        return None
    return Rect(m, n, ri[0], ri[1], ci[0], ci[1])


def set_walk_mono(cfg: TorusConfig) -> list[Component]:
    """Reference for `structure.mono_components`: the set walk over the
    state-1 cells, components of at least 2 cells in the order found."""
    m, n = cfg.shape
    cells = {(int(i), int(j)) for i, j in zip(*np.nonzero(cfg.a))}
    comps = set_walk(cells, lambda c: von_neumann(m, n, c))
    return [Component(MONO, comp, rect=as_rect(m, n, comp)) for comp in comps if len(comp) >= 2]


def set_walk_chess(cfg: TorusConfig) -> list[Component]:
    """Reference for `structure.chess_components`: a one-cell-at-a-time
    peel to the alternation 2-core, then the set walk over the core, built as
    the set of all cells with the peeled cells discarded one by one in
    row-major order; the pieces in the reverse of the order found."""
    m, n = cfg.shape
    state = cfg.a.tolist()

    def alt_neighbors(c: Cell) -> list[Cell]:
        return [nb for nb in von_neumann(m, n, c) if state[nb[0]][nb[1]] != state[c[0]][c[1]]]

    degree = {(i, j): len(alt_neighbors((i, j))) for i in range(m) for j in range(n)}
    peeled = set()
    queue = deque(c for c, d in degree.items() if d < 2)
    while queue:
        c = queue.popleft()
        if c in peeled:
            continue
        peeled.add(c)
        for nb in alt_neighbors(c):
            if nb not in peeled:
                degree[nb] -= 1
                if degree[nb] < 2:
                    queue.append(nb)
    core = set({(i, j) for i in range(m) for j in range(n)})
    for c in sorted(peeled):
        core.discard(c)
    out = []
    for piece in reversed(set_walk(core, lambda c: [nb for nb in alt_neighbors(c) if nb in core])):
        conflict = any(
            state[p][q] == state[i][j] for i, j in piece for p, q in von_neumann(m, n, (i, j)) if (p, q) in piece
        )
        out.append(Component(CHESS, piece, rect=as_rect(m, n, piece), conflicted=conflict))
    return out


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


def noisy_wraparound(rng, m: int, n: int) -> TorusConfig:
    """Chessboard wraparound rows at random phases, 2 to 8 rows apart, plus
    sparse noise: inputs on which Step 1 finds and repairs lines."""
    a = np.zeros((m, n), np.uint8)
    for r in range(int(rng.integers(m)), m, int(rng.integers(2, 9))):
        a[r, :] = (np.arange(n) + rng.integers(2)) % 2
    a ^= (rng.random((m, n)) < 0.02).astype(np.uint8)
    return TorusConfig(a)


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
