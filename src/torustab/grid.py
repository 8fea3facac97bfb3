"""Toroidal grid core: configurations, neighborhoods, rule evolution, stability oracles.

A configuration is an m x n binary grid with wraparound adjacency in both
dimensions.  The Threshold-b rule activates a cell iff its closed von-Neumann
neighborhood (the cell plus its four orthogonal neighbors) contains at least b
active cells.  Every threshold automaton converges to a fixed point or a
2-cycle, so a configuration is called stable when two rule applications map it
to itself.

Every neighborhood on an m x n torus is read through one table of distinct
offsets (`von_neumann_offsets`, `moore_offsets`): the stencil's offsets are
reduced mod (m, n), deduplicated in stencil order, and (0, 0) is dropped.  On
degenerate tori (m <= 2 or n <= 2) a cell is thus never its own neighbor and
the rule counts each distinct neighbor once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

Cell = tuple[int, int]


@dataclass(frozen=True)
class Rule:
    """Threshold rule with threshold b in 1..5; b=3 is the Majority rule."""

    b: int

    def __post_init__(self) -> None:
        if self.b not in (1, 2, 3, 4, 5):
            raise ValueError(f"threshold must be in 1..5, got {self.b}")

    @property
    def dual(self) -> "Rule":
        return Rule(6 - self.b)


THR1 = Rule(1)
THR2 = Rule(2)
THR3 = Rule(3)
THR4 = Rule(4)
THR5 = Rule(5)
MAJORITY = THR3


class TorusConfig:
    """An m x n binary state grid with toroidal (wraparound) indexing."""

    __slots__ = ("a",)

    def __init__(self, states) -> None:
        a = np.asarray(states)
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("states must be a non-empty 2D array")
        # Check the values before the cast, which would wrap 256 to 0 and
        # truncate 0.5 to 0; uint8 and bool input only needs its maximum.
        if a.dtype == np.uint8 or a.dtype == np.bool_:
            binary = a.max() <= 1
        else:
            binary = ((a == 0) | (a == 1)).all()
        if not binary:
            raise ValueError("states must be binary")
        self.a = np.ascontiguousarray(a, dtype=np.uint8)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def read(self, cell: Cell) -> int:
        """The state of a cell, its coordinates taken mod (m, n)."""
        a = self.a
        return a.item(cell[0] % a.shape[0], cell[1] % a.shape[1])

    __getitem__ = read

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TorusConfig):
            return NotImplemented
        return self.a.shape == other.a.shape and bool((self.a == other.a).all())

    def __hash__(self) -> int:
        return hash((self.a.shape, self.a.tobytes()))

    def copy(self) -> "TorusConfig":
        return TorusConfig(self.a.copy())

    @classmethod
    def zeros(cls, m: int, n: int) -> "TorusConfig":
        return cls(np.zeros((m, n), dtype=np.uint8))

    @classmethod
    def ones(cls, m: int, n: int) -> "TorusConfig":
        return cls(np.ones((m, n), dtype=np.uint8))

    # Grid text format (shared repo-wide): line 1 is "m n", then m lines of
    # exactly n characters from {0,1}, LF endings, no trailing content.
    @classmethod
    def from_text(cls, text: str) -> "TorusConfig":
        lines = text.split("\n")
        if not lines or lines[-1] != "":
            raise ValueError("grid text must end with a newline")
        lines = lines[:-1]
        if len(lines) < 1:
            raise ValueError("empty grid text")
        header = lines[0].split(" ")
        if len(header) != 2:
            raise ValueError(f"bad header line: {lines[0]!r}")
        try:
            m, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ValueError(f"bad header line: {lines[0]!r}") from exc
        if m < 1 or n < 1:
            raise ValueError("dimensions must be positive")
        if len(lines) != m + 1:
            raise ValueError(f"expected {m} rows, got {len(lines) - 1}")
        rows = []
        for line in lines[1:]:
            if len(line) != n or set(line) - {"0", "1"}:
                raise ValueError(f"bad grid row: {line!r}")
            rows.append([int(ch) for ch in line])
        return cls(np.array(rows, dtype=np.uint8))

    def to_text(self) -> str:
        out = [f"{self.m} {self.n}"]
        for row in self.a:
            out.append("".join("1" if v else "0" for v in row))
        return "\n".join(out) + "\n"

    def __repr__(self) -> str:
        return f"TorusConfig({self.m}x{self.n})"


def _distinct_offsets(m: int, n: int, stencil: Iterable[Cell]) -> tuple[Cell, ...]:
    """The stencil's offsets reduced mod (m, n), first occurrences only,
    without (0, 0)."""
    out: list[Cell] = []
    for di, dj in stencil:
        off = (di % m, dj % n)
        if off != (0, 0) and off not in out:
            out.append(off)
    return tuple(out)


@lru_cache(maxsize=None)
def von_neumann_offsets(m: int, n: int) -> tuple[Cell, ...]:
    """Distinct orthogonal neighbor offsets in the order right, left, down, up."""
    return _distinct_offsets(m, n, ((0, 1), (0, -1), (1, 0), (-1, 0)))


@lru_cache(maxsize=None)
def moore_offsets(m: int, n: int) -> tuple[Cell, ...]:
    """Distinct offsets of the eight surrounding cells, row-major over (-1..1)^2."""
    return _distinct_offsets(m, n, ((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)))


def von_neumann(m: int, n: int, cell: Cell) -> list[Cell]:
    """The distinct orthogonal toroidal neighbors of a cell, excluding itself."""
    i, j = cell[0] % m, cell[1] % n
    return [((i + di) % m, (j + dj) % n) for di, dj in von_neumann_offsets(m, n)]


def moore(m: int, n: int, cell: Cell) -> set[Cell]:
    """The cell plus the (distinct) eight cells surrounding it."""
    i, j = cell[0] % m, cell[1] % n
    return {(i, j)} | {((i + di) % m, (j + dj) % n) for di, dj in moore_offsets(m, n)}


def cyclic_distance(a, b, size: int):
    """Steps between two coordinates on a cycle of the given length, for ints
    or broadcast integer arrays alike: d = (a - b) mod size, or size - d when
    d is more than half the cycle."""
    d = (a - b) % size
    return d - (2 * d > size) * (2 * d - size)


def shifted(a: np.ndarray, di: int, dj: int) -> np.ndarray:
    """`a` read at offset (di, dj): out[..., i, j] = a[..., (i + di) % m,
    (j + dj) % n] over the last two axes, as np.roll by (-di, -dj) but with
    less per-call overhead.  Returns `a` itself for a zero offset."""
    m, n = a.shape[-2:]
    di %= m
    dj %= n
    if di:
        a = np.concatenate((a[..., di:, :], a[..., :di, :]), axis=-2)
    if dj:
        a = np.concatenate((a[..., dj:], a[..., :dj]), axis=-1)
    return a


def neighbor_sum(a: np.ndarray, offsets: Iterable[Cell]) -> np.ndarray:
    """Per cell, the sum of `a` over the cells at the given offsets; the last
    two axes of `a` (uint8) are the torus, any leading axes a batch."""
    total = np.zeros(a.shape, dtype=np.uint8)
    for di, dj in offsets:
        total += shifted(a, di, dj)
    return total


def threshold_step(a: np.ndarray, b: int) -> np.ndarray:
    """One Threshold-b step of a uint8 grid, or of a stack of grids along
    the leading axes."""
    counts = a + neighbor_sum(a, von_neumann_offsets(*a.shape[-2:]))
    return (counts >= b).astype(np.uint8)


def apply_rule(cfg: TorusConfig, rule: Rule) -> TorusConfig:
    """One synchronous step of the Threshold-b rule; the input is unmodified."""
    return TorusConfig(threshold_step(cfg.a, rule.b))


def double_step_cell(read: Callable[[Cell], int], m: int, n: int, rule: Rule, cell: Cell) -> int:
    """The state of `cell` after two rule applications, reading only its
    distance-2 neighborhood through `read`."""

    def step(c: Cell) -> int:
        count = read(c) + sum(read(p) for p in von_neumann(m, n, c))
        return 1 if count >= rule.b else 0

    count = step(cell) + sum(step(p) for p in von_neumann(m, n, cell))
    return 1 if count >= rule.b else 0


def is_cell_stable(cfg: TorusConfig, rule: Rule, cell: Cell) -> bool:
    """Whether the cell keeps its state after two rule applications."""
    cell = (cell[0] % cfg.m, cell[1] % cfg.n)
    return double_step_cell(cfg.read, cfg.m, cfg.n, rule, cell) == cfg[cell]


def is_stable(cfg: TorusConfig, rule: Rule) -> bool:
    """Exact global oracle: Thr_b^2(sigma) == sigma."""
    return apply_rule(apply_rule(cfg, rule), rule) == cfg


def classify_cells(cfg: TorusConfig, rule: Rule) -> np.ndarray:
    """Vectorized cell classification: 0 fixed, 1 toggling, 2 unstable."""
    one = apply_rule(cfg, rule)
    two = apply_rule(one, rule)
    out = np.full(cfg.shape, 2, dtype=np.uint8)
    out[(cfg.a == one.a) & (one.a == two.a)] = 0
    out[(cfg.a != one.a) & (cfg.a == two.a)] = 1
    return out


class PeriodNotFound(RuntimeError):
    """No repeat within the step budget; signals a bug since the period is <= 2."""


def find_period(cfg: TorusConfig, rule: Rule, max_steps: int | None = None) -> tuple[int, int]:
    """Iterate until a configuration repeats; returns (preperiod, period).

    Compares each iterate with its two predecessors only, which suffices
    because the eventual period is at most 2.
    """
    if max_steps is None:
        max_steps = 4 * cfg.m * cfg.n
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    prev2: TorusConfig | None = None
    prev1 = cfg
    for t in range(1, max_steps + 1):
        cur = apply_rule(prev1, rule)
        if cur == prev1:
            return (t - 1, 1)
        if prev2 is not None and cur == prev2:
            return (t - 2, 2)
        prev2, prev1 = prev1, cur
    raise PeriodNotFound(f"no period within {max_steps} steps")


class ParityError(ValueError):
    """Raised when a path parity query is ill-posed."""


def path_parity(m: int, n: int, cells: Iterable[Cell], l1: Cell, l2: Cell) -> int:
    """Parity of the length of a path from l1 to l2 within the connected set.

    Raises ParityError if the set is not connected, if either endpoint is
    missing, or if the set contains an odd wraparound (equivalently, the
    induced adjacency subgraph is not bipartite, so path parity is ambiguous).
    """
    cset = {(i % m, j % n) for i, j in cells}
    l1 = (l1[0] % m, l1[1] % n)
    l2 = (l2[0] % m, l2[1] % n)
    if l1 not in cset or l2 not in cset:
        raise ParityError("cell-not-in-set")
    parity: dict[Cell, int] = {l1: 0}
    queue = deque([l1])
    while queue:
        c = queue.popleft()
        for nb in von_neumann(m, n, c):
            if nb not in cset:
                continue
            if nb in parity:
                if parity[nb] != parity[c] ^ 1:
                    raise ParityError("contains-odd-wraparound")
            else:
                parity[nb] = parity[c] ^ 1
                queue.append(nb)
    if len(parity) != len(cset):
        raise ParityError("not-connected")
    return parity[l2]


def complement(cfg: TorusConfig) -> TorusConfig:
    """Bitwise complement; for m, n >= 3, Thr_b(sigma) == ~Thr_{6-b}(~sigma)."""
    return TorusConfig(1 - cfg.a)
