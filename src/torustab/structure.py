"""Component extraction and the structural characterizations of stability.

Threshold-2: a configuration is stable iff
  1. every state-1 monochromatic component and every chessboard component is a
     rectangle, and no monochromatic component is an almost-wraparound
     rectangle (a rectangle spanning a cyclic dimension of length >= 3 minus
     one cell);
  2. every cell outside those components has state 0;
  3. distinct components are at distance >= 2, and >= 3 whenever either one is
     monochromatic;
  4. no cell outside all components is adjacent to two state-0 chessboard
     cells (which toggle to 1 in unison and would activate it).

The Threshold-2 check decides all four on label arrays.  `torus_labels`
labels the components of a graph on the torus cells by min-label hooking
with pointer jumping over its flat edge list: mono components are the
state-1 cells under adjacency, chessboard components the pieces of the
alternation 2-core (peeled in whole-frontier rounds by `_two_core`) under
alternation edges.  A component is a rectangle iff its size is the product
of its numbers of distinct rows and columns (one sort of (label, row) and
(label, column) keys); a chessboard piece conflicts iff two adjacent cells
of one state share its label; coverage is a mask, the phase requirement a
count of state-0 chessboard neighbours; distances are one broadcast of
rectangle gaps over all pairs.  Without a state-1 cell the mono stage is
skipped, and with an empty core the chessboard stage and the phase test.

Components are listed, and a failing component or pair is reported, in the
order the set walk that the labels replaced found them: the iteration
order of a Python set of cells.  `_mono_walk` and `_chess_walk` rebuild
those sets exactly, only to list components or once a check fails.

Majority: a configuration is stable iff its cells split into fixed state-0
cells (P0), fixed state-1 cells (P1), toggling chessboard cells (P2) and
toggling width-2 zebra wraparound bands (P3), subject to local adjacency
requirements R1-R5.  Such a split exists on every configuration with no
unstable cell, so `majority_structure_check` tests only that and does not
build the partition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

import numpy as np

from .grid import MAJORITY, Cell, TorusConfig, is_stable, shifted, von_neumann

MONO = "mono"
CHESS = "chess"


def _almost_wraparound(m: int, n: int, height, width):
    """Whether a rectangle's row or column interval is the full cycle minus
    a single element; ints or arrays of heights and widths.  On a 2-cycle
    that element's two neighbors are one cell, so the uncovered line never
    activates and the clause does not apply."""
    return (height == (m - 1 if m >= 3 else -1)) | (width == (n - 1 if n >= 3 else -1))


@dataclass(frozen=True)
class Rect:
    """A torus rectangle given by cyclic coordinate intervals.

    `row0`/`col0` are the interval starts; `height`/`width` their lengths.
    A full-cycle projection may start anywhere: the components' rectangles
    start it at 0 (`_starts`), but `tester.cross_region` starts it where its
    arm stopped, so code comparing rectangles normalises it first
    (`stabilizer._canon_key`, `stabilizer._rect_contains`).
    """

    m: int
    n: int
    row0: int
    height: int
    col0: int
    width: int

    @property
    def almost_wraparound(self) -> bool:
        return _almost_wraparound(self.m, self.n, self.height, self.width)

    def rows(self) -> list[int]:
        return [(self.row0 + i) % self.m for i in range(self.height)]

    def cols(self) -> list[int]:
        return [(self.col0 + j) % self.n for j in range(self.width)]

    def __contains__(self, cell: Cell) -> bool:
        i = (cell[0] - self.row0) % self.m
        j = (cell[1] - self.col0) % self.n
        return i < self.height and j < self.width

    def size(self) -> int:
        return self.height * self.width


@dataclass
class Component:
    """A connected cell set with a kind tag and optional rectangle metadata."""

    kind: str  # MONO or CHESS
    cells: set[Cell]
    rect: Optional[Rect] = field(default=None)
    # True when the set contains an adjacent same-state pair, which violates
    # the alternation requirement of chessboard components.
    conflicted: bool = False


@lru_cache(maxsize=1)
def _tables(m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour indices of an m x n torus, read-only and shared: `around`
    (4, mn) holds the flat index of each cell's right, down, up and left
    neighbour (the cell itself across a side of 1), and `distinct` (4, 1)
    whether each row is a distinct neighbour, not the cell itself or a
    repeat of an earlier row.  Only the last shape's tables are kept, so a
    large torus pins no more than its own 16 bytes a cell."""
    idx = np.arange(m * n, dtype=np.int32).reshape(m, n)
    offsets = [(0, 1), (1, 0), (-1, 0), (0, -1)]
    around = np.array([shifted(idx, di, dj).ravel() for di, dj in offsets])
    reduced = [(di % m, dj % n) for di, dj in offsets]
    distinct = np.array([[r != (0, 0) and r not in reduced[:t]] for t, r in enumerate(reduced)])
    around.flags.writeable = distinct.flags.writeable = False
    return around, distinct


def torus_labels(edges: np.ndarray) -> np.ndarray:
    """Connected components of a graph on the cells of an m x n torus.

    `edges` is a (2, m, n) bool mask: `edges[0]` marks the edges from a
    cell to its right neighbour, `edges[1]` those to the cell below.
    Returns the flat (mn,) label of every cell: the smallest flat index of
    its component, so a cell without edges is labelled by its own index.

    Min-label hooking with pointer jumping over the flat edge list: every
    cell starts as its own label; each round reads both labels of every
    edge, lowers the larger one's label to the smaller (`np.minimum.at`)
    and jumps every label twice (`lab[lab]`), until every edge joins equal
    labels.  A label only decreases, never exceeds its cell's index and
    always names a cell of the same component; once every edge joins equal
    labels, each component carries a single label, so that label is its
    smallest index.  A jump halves every label chain, so the rounds stay
    far below a component's diameter: 6 on a path of 1,342 cells, 2 on most
    components of a few cells.
    """
    _, m, n = edges.shape
    e = edges.ravel().nonzero()[0]
    u, v = e % (m * n), _tables(m, n)[0][:2].ravel()[e]
    lab = np.arange(m * n)
    while True:
        lu, lv = lab[u], lab[v]
        if not np.count_nonzero(lu != lv):
            return lab
        np.minimum.at(lab, np.maximum(lu, lv), np.minimum(lu, lv))
        lab = lab[lab]
        lab = lab[lab]


def _alternation(a: np.ndarray) -> np.ndarray:
    """(4, mn): per row of `_tables`' `around` and cell, whether the cell
    and that neighbour are distinct cells of differing state, i.e. joined
    by an edge of the alternation graph."""
    around, distinct = _tables(*a.shape)
    flat = a.ravel()
    return (flat[around] != flat) & distinct


def _two_core(alt: np.ndarray, m: int, n: int) -> tuple[np.ndarray, int]:
    """The 2-core of the alternation graph `alt` (from `_alternation`) of an
    m x n grid as a flat (mn,) bool mask, and the number of peel rounds.

    Cells of alternation degree < 2 are peeled in whole-frontier rounds:
    each round lowers the degree of every live alternation neighbour of the
    cells peeled last round (`np.subtract.at`) and peels those now below 2.
    The 2-core does not depend on the peel order, so this is the core that
    peeling one cell at a time leaves.
    """
    around = _tables(m, n)[0]
    degree = alt.sum(axis=0)
    alive = degree >= 2
    # A cell without alternation edges changes no degree when peeled.
    frontier = (degree == 1).nonzero()[0]
    slot = np.empty(m * n, dtype=np.int32)
    rounds = 0
    while len(frontier):
        rounds += 1
        hit = np.take(around, frontier, axis=1)[np.take(alt, frontier, axis=1)]
        hit = hit[alive[hit]]
        np.subtract.at(degree, hit, 1)
        frontier = hit[degree[hit] < 2]
        # A cell hit twice is listed twice: keep the one occurrence whose
        # position its slot ends up holding.
        place = np.arange(len(frontier))
        slot[frontier] = place
        frontier = frontier[slot[frontier] == place]
        alive[frontier] = False
    return alive, rounds


def _mono_labels(a: np.ndarray) -> np.ndarray:
    """Labels of the state-1 cells under adjacency."""
    m, n = a.shape
    one = a.ravel().view(bool)
    return torus_labels((one[_tables(m, n)[0][:2]] & one).reshape(2, m, n))


def _chess_labels(
    a: np.ndarray, alt: np.ndarray, core: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Labels of the core cells under alternation edges, those cells (flat),
    and per label whether its piece holds two adjacent cells of one state."""
    m, n = a.shape
    around, distinct = _tables(m, n)
    step = around[:2]
    lab = torus_labels((alt[:2] & core[step] & core).reshape(2, m, n))
    # Two distinct neighbours are a right or a down pair of one of them.
    _, same = ((lab[step] == lab) & ~alt[:2] & distinct[:2]).nonzero()
    conflicted = np.zeros(m * n, dtype=bool)
    conflicted[lab[same]] = True
    return lab, core.nonzero()[0], conflicted


def _spans(lab: np.ndarray, cells: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The sets the labels of `cells` (flat, row-major) form, per label:
    `size` (mn,), the cell count, and `span` (2, mn), the numbers of
    distinct rows and of distinct columns of each set of two or more cells.

    A connected set's rows form a cyclic interval, as do its columns, so a
    component is a rectangle iff its size is the product of its spans."""
    labs = lab[cells]
    size = np.bincount(labs, minlength=m * n)
    keep = size[labs] >= 2
    cells, labs = cells[keep], labs[keep]
    rows = cells // n
    # One sort of (label, row) and (label, column) keys; a key's quotient
    # by `side` is its label for a row and mn plus its label for a column.
    side = max(m, n)
    base = labs * side
    keys = np.concatenate((base + rows, base + (cells - rows * n + m * n * side)))
    keys.sort()
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return size, np.bincount(keys[first] // side, minlength=2 * m * n).reshape(2, m * n)


def _starts(lab: np.ndarray, cells: np.ndarray, n: int) -> np.ndarray:
    """(2, mn): per label, the first row and the first column of the cyclic
    intervals a rectangular labelled set spans, read off its cells whose
    upper or left neighbour is outside it (0 on a full cycle)."""
    labs = lab[cells]
    rows = cells // n
    outside = lab[_tables(lab.size // n, n)[0][2:, cells]] != labs
    start = np.zeros((2, lab.size), dtype=np.int32)
    for axis, coord in enumerate((rows, cells - rows * n)):
        start[axis, labs[outside[axis]]] = coord[outside[axis]]
    return start


# Components are listed in the order a breadth-first walk of a Python set
# popped its seeds, which is the set's iteration order, and the witness of
# the structure check is the first failing component in that list.  The two
# sets below are built exactly as that walk built them, and only where an
# order is needed: to list components, or once a component or pair fails.


def _mono_walk(a: np.ndarray) -> set[Cell]:
    """The state-1 cells, in the set whose iteration order lists the mono
    components: a copy of the set built from them in row-major order."""
    return set(set(zip(*(x.tolist() for x in np.nonzero(a)))))


def _chess_walk(core: np.ndarray, m: int, n: int) -> set[Cell]:
    """The core cells, in the set whose iteration order lists the chessboard
    components last to first: a copy of the set of all cells from which the
    peeled cells were discarded one by one in row-major order.  The
    comprehension, the copy and the discards fix its table layout (`-=` may
    not)."""
    walk = set({(i, j) for i in range(m) for j in range(n)})
    for c in (~core).nonzero()[0].tolist():
        walk.discard(divmod(c, n))
    return set(walk)


def _list_order(
    kind: str, a: np.ndarray, core: Optional[np.ndarray], lab: np.ndarray, wanted: np.ndarray
) -> list[int]:
    """The labels marked in `wanted` (indexed by label) in the order
    `mono_components` or `chess_components` lists their components: by
    the first appearance of a cell in the kind's walk, reversed for
    chessboard components."""
    m, n = a.shape
    walk = _mono_walk(a) if kind == MONO else _chess_walk(core, m, n)
    labl, keep = lab.tolist(), wanted.tolist()
    order = list(dict.fromkeys(k for k in (labl[i * n + j] for i, j in walk) if keep[k]))
    return order if kind == MONO else order[::-1]


def _listed(
    kind: str,
    a: np.ndarray,
    core: Optional[np.ndarray],
    lab: np.ndarray,
    cells: np.ndarray,
    conflicted: Optional[np.ndarray] = None,
) -> list[Component]:
    """The components of two or more cells of a label array, listed."""
    m, n = a.shape
    size, span = _spans(lab, cells, m, n)
    start = _starts(lab, cells, n)
    cells = cells[size[lab[cells]] >= 2]
    groups: dict[int, set[Cell]] = {}
    for k, c in zip(lab[cells].tolist(), cells.tolist()):
        groups.setdefault(k, set()).add(divmod(c, n))
    out = []
    for k in _list_order(kind, a, core, lab, size >= 2):
        (h, w), (r0, c0) = span[:, k].tolist(), start[:, k].tolist()
        rect = Rect(m, n, r0, h, c0, w) if size[k] == h * w else None
        conflict = conflicted is not None and bool(conflicted[k])
        out.append(Component(kind, groups[k], rect=rect, conflicted=conflict))
    return out


def mono_components(cfg: TorusConfig) -> list[Component]:
    """Connected components of state-1 cells having at least 2 cells, in
    the iteration order of `_mono_walk`."""
    return _listed(MONO, cfg.a, None, _mono_labels(cfg.a), cfg.a.ravel().nonzero()[0])


def chess_components(cfg: TorusConfig) -> list[Component]:
    """Maximal chessboard components: the 2-core of the alternation graph
    (edges between adjacent cells of differing state), split into its
    connected pieces, listed last to first in the iteration order of
    `_chess_walk`.

    The core is what is left after repeatedly peeling cells with fewer than
    two alternation edges (`_two_core`).  Every piece keeps all alternation
    edges of its cells, so no piece peels further.
    """
    alt = _alternation(cfg.a)
    core, _ = _two_core(alt, *cfg.shape)
    if not np.count_nonzero(core):
        return []
    lab, cells, conflicted = _chess_labels(cfg.a, alt, core)
    return _listed(CHESS, cfg.a, core, lab, cells, conflicted)


def component_distance(m: int, n: int, a: Iterable[Cell], b: Iterable[Cell]) -> int:
    """Torus Manhattan distance between two cell sets (multi-source BFS)."""
    aset = set(a)
    bset = set(b)
    if aset & bset:
        return 0
    dist = dict.fromkeys(aset, 0)
    queue = deque(aset)
    while queue:
        c = queue.popleft()
        for nb in von_neumann(m, n, c):
            if nb in bset:
                return dist[c] + 1
            if nb not in dist:
                dist[nb] = dist[c] + 1
                queue.append(nb)
    raise ValueError("disconnected torus? unreachable")


def _interval_gap(a0, alen, b0, blen, size: int):
    """Cyclic distance between two coordinate intervals (0 when they meet,
    as they always do when one is the full cycle); ints or broadcast arrays.

    With b starting d = (b0 - a0) % size after a, the gap after a is
    d - alen and the gap after b is size - d - blen; the intervals meet iff
    one is negative, and otherwise the distance is the smaller gap plus 1.
    """
    d = (b0 - a0) % size
    after_a, after_b = d - alen, size - d - blen
    gap = after_b + (after_a < after_b) * (after_a - after_b) + 1
    return gap * (gap > 0)


def rect_distance(a: Rect, b: Rect) -> int:
    """Torus Manhattan distance between two rectangles (0 when they
    overlap): the sum of the per-axis cyclic interval gaps, equal to
    `component_distance` on their cell sets."""
    return _interval_gap(a.row0, a.height, b.row0, b.height, a.m) + _interval_gap(
        a.col0, a.width, b.col0, b.width, a.n
    )


@dataclass
class Verdict:
    """Outcome of `thr2_structure_check`, with a concrete witness on failure."""

    ok: bool
    witness_kind: Optional[str] = None
    witness_cells: list[Cell] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "check": "thr2-structure",
            "result": "StableStructured" if self.ok else "Violation",
            "witness_cells": [list(c) for c in sorted(self.witness_cells)],
            "witness_kind": self.witness_kind,
        }


def thr2_structure_check(cfg: TorusConfig) -> Verdict:
    """Check the Threshold-2 structural requirements; witness on violation.

    Every requirement is decided on label arrays.  The witness of a failing
    component or pair is the first one in the order `mono_components` and
    `chess_components` list them, so the sets that fix that order are built
    only once something fails (`_list_order`).
    """
    m, n = cfg.shape
    a = cfg.a
    one = a.ravel().view(bool)
    # Each kind that has components: (kind, labels, labelled cells, mask of
    # its component labels, their spans).
    kinds = []
    covered = np.zeros(m * n, dtype=bool)
    cells = one.nonzero()[0]
    if len(cells):
        lab = _mono_labels(a)
        size, span = _spans(lab, cells, m, n)
        mono = size >= 2
        rect = size == span[0] * span[1]
        bad = mono & (~rect | _almost_wraparound(m, n, span[0], span[1]))
        if np.count_nonzero(bad):
            k = _list_order(MONO, a, None, lab, bad)[0]
            kind = "almost-wraparound-mono" if rect[k] else "non-rectangle-mono"
            return Verdict(False, kind, _cells_of(lab, k, n)[:8])
        kinds.append((MONO, lab, cells, mono, span[:, mono]))
        covered = one & mono[lab]
        del size, span, rect, bad
    alt = _alternation(a)
    core, _ = _two_core(alt, m, n)
    if np.count_nonzero(core):
        lab, cells, conflicted = _chess_labels(a, alt, core)
        size, span = _spans(lab, cells, m, n)
        chess = size >= 2
        bad = chess & (conflicted | (size != span[0] * span[1]))
        if np.count_nonzero(bad):
            k = _list_order(CHESS, a, core, lab, bad)[0]
            kind = "non-alternating-chess" if conflicted[k] else "non-rectangle-chess"
            return Verdict(False, kind, _cells_of(lab, k, n)[:8])
        kinds.append((CHESS, lab, cells, chess, span[:, chess]))
        covered |= core
        del size, span, bad
    del alt

    stray = (one & ~covered).nonzero()[0][:8].tolist()
    if stray:
        return Verdict(False, "state-1-in-Z", [divmod(c, n) for c in stray])

    # Phase requirement: a cell outside all components must not be adjacent to
    # two state-0 chessboard cells; those toggle to 1 in unison and would
    # activate it two steps later.  Each such cell adds one to the count of
    # each of its distinct neighbours.  The witness is the first such cell in
    # row-major order and its first two such neighbors in von Neumann order.
    chess_zero = core & ~one
    hot = chess_zero.nonzero()[0]
    if len(hot):
        around, distinct = _tables(m, n)
        hits = np.take(around, hot, axis=1)[distinct[:, 0]]
        hot_count = np.bincount(hits.ravel(), minlength=m * n)
        in_phase = ((hot_count >= 2) & ~covered).nonzero()[0]
        if len(in_phase):
            cell = divmod(int(in_phase[0]), n)
            hot = [(i, j) for i, j in von_neumann(m, n, cell) if chess_zero[i * n + j]]
            return Verdict(False, "in-phase-chess-neighbors", [cell] + hot[:2])

    # Every component is a rectangle here, so the distance of two is the sum
    # of their row and column interval gaps, over all pairs at once.
    # Components are numbered kind by kind, each kind by its smallest cell.
    keys = [wanted.nonzero()[0] for _, _, _, wanted, _ in kinds]
    if sum(map(len, keys)) < 2:
        return Verdict(True)
    start = [_starts(lab, cells, n)[:, x] for (_, lab, cells, _, _), x in zip(kinds, keys)]
    start = np.concatenate(start, axis=1)
    span = np.concatenate([span for *_, span in kinds], axis=1)
    sides = np.array([m, n])[:, None, None]
    gaps = _interval_gap(start[:, :, None], span[:, :, None], start[:, None], span[:, None], sides)
    is_mono = np.concatenate([np.full(len(x), kind == MONO) for (kind, *_), x in zip(kinds, keys)])
    close = gaps.sum(axis=0) < 2 + (is_mono[:, None] | is_mono)
    close.flat[:: len(close) + 1] = False
    if not np.count_nonzero(close):
        return Verdict(True)
    # The first close pair in list order.
    order, comps = [], []
    for (kind, lab, _, wanted, _), x in zip(kinds, keys):
        listed = _list_order(kind, a, core, lab, wanted)
        order += (len(comps) + np.searchsorted(x, listed)).tolist()
        comps += [(lab, k) for k in listed]
    i, j = np.argwhere(np.triu(close[np.ix_(order, order)], 1))[0]
    w = [c for lab, k in (comps[i], comps[j]) for c in _cells_of(lab, k, n)[:2]]
    return Verdict(False, "components-too-close", w)


def _cells_of(lab: np.ndarray, k: int, n: int) -> list[Cell]:
    """The cells labelled k, in row-major order."""
    return [divmod(c, n) for c in (lab == k).nonzero()[0].tolist()]


def majority_structure_check(cfg: TorusConfig) -> bool:
    """True iff the configuration is Majority stable.

    The characterization of the module docstring holds on every
    configuration with no unstable cell, so only that test can reject.
    """
    return is_stable(cfg, MAJORITY)
