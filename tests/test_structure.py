"""Tests for component extraction and the structural stability checks.

The headline property in both rules: the structural check must agree with the
exact dynamic oracle (two rule applications return to the start).
"""

from collections import deque

import numpy as np
import pytest

from torustab import MAJORITY, THR2, TorusConfig, is_stable, von_neumann
from torustab.generators import GenSpec, gen_hard_thr2, gen_stable_thr2, perturb
from torustab.structure import (
    Rect,
    as_rect,
    chess_components,
    component_distance,
    detect_zebras,
    majority_partition,
    majority_structure_check,
    mono_components,
    rect_distance,
    thr2_structure_check,
)


def cfg_from(rows: list[str]) -> TorusConfig:
    return TorusConfig([[int(ch) for ch in row] for row in rows])


def fixpoint_chess_components(cfg: TorusConfig) -> list[tuple]:
    """Reference: the alternation-graph fixpoint (peel cells with fewer than
    two in-piece alternation edges, split into pieces, repeat on each piece),
    as [(cells, rect, conflicted)] in its output order."""
    m, n = cfg.shape
    a = cfg.a

    def alt_neighbors(cells, c):
        return [nb for nb in von_neumann(m, n, c) if nb in cells and a[nb] != a[c]]

    def peel(cells):
        cells = set(cells)
        degree = {c: len(alt_neighbors(cells, c)) for c in cells}
        queue = deque(c for c, d in degree.items() if d < 2)
        while queue:
            c = queue.popleft()
            if c not in cells:
                continue
            cells.discard(c)
            for nb in von_neumann(m, n, c):
                if nb in cells and a[nb] != a[c]:
                    degree[nb] -= 1
                    if degree[nb] < 2:
                        queue.append(nb)
        return cells

    def alt_pieces(cells):
        remaining = set(cells)
        out = []
        while remaining:
            seed = remaining.pop()
            piece = {seed}
            queue = deque([seed])
            while queue:
                c = queue.popleft()
                for nb in alt_neighbors(remaining, c):
                    remaining.discard(nb)
                    piece.add(nb)
                    queue.append(nb)
            out.append(piece)
        return out

    final = []
    pending = [{(i, j) for i in range(m) for j in range(n)}]
    while pending:
        cells = peel(pending.pop())
        if not cells:
            continue
        pieces = alt_pieces(cells)
        for piece in pieces:
            if len(pieces) == 1 and piece == cells:
                conflict = any(
                    a[nb] == a[c] for c in piece for nb in von_neumann(m, n, c) if nb in piece
                )
                final.append((piece, as_rect(m, n, piece), conflict))
            else:
                pending.append(piece)
    return final


class TestRect:
    def test_basic_membership(self):
        r = Rect(8, 8, 6, 3, 5, 4)  # wraps in both axes
        assert (6, 5) in r and (0, 0) in r and (1, 1) not in r
        assert len(r.cells()) == 12

    def test_as_rect_recognizes_wrapping_interval(self):
        cells = {(0, 0), (0, 4), (1, 0), (1, 4)}  # cols {4,0} wrap on n=5
        r = as_rect(6, 5, cells)
        assert r is not None and (r.col0, r.width) == (4, 2)

    def test_as_rect_rejects_l_shape(self):
        assert as_rect(6, 6, {(0, 0), (0, 1), (1, 0)}) is None

    def test_as_rect_rejects_two_runs(self):
        assert as_rect(6, 6, {(0, 0), (0, 2)}) is None

    def test_full_cycle(self):
        cells = {(2, j) for j in range(6)}
        r = as_rect(4, 6, cells)
        assert r is not None and r.full_cols and not r.almost_wraparound

    def test_almost_wraparound_any_thickness(self):
        assert Rect(5, 8, 0, 4, 0, 3).almost_wraparound  # height m-1
        assert Rect(5, 8, 2, 1, 1, 7).almost_wraparound  # width n-1
        assert not Rect(5, 8, 0, 5, 0, 3).almost_wraparound


class TestComponents:
    def test_mono_requires_two_cells(self):
        cfg = cfg_from(["00000", "00100", "00000", "00000", "00000"])
        assert mono_components(cfg, 1) == []

    def test_mono_domino(self):
        cfg = cfg_from(["00000", "01100", "00000", "00000", "00000"])
        comps = mono_components(cfg, 1)
        assert len(comps) == 1
        assert comps[0].cells == {(1, 1), (1, 2)}
        assert comps[0].rect is not None

    def test_mono_wraps(self):
        cfg = cfg_from(["10001", "10001", "00000", "00000"])
        comps = mono_components(cfg, 1)
        assert len(comps) == 1 and len(comps[0].cells) == 4

    def test_chess_rectangle_found(self):
        a = np.zeros((8, 8), np.uint8)
        for i in range(2, 5):
            for j in range(3, 7):
                a[i, j] = (i + j) % 2
        comps = chess_components(TorusConfig(a))
        assert len(comps) == 1
        assert comps[0].cells == {(i, j) for i in range(2, 5) for j in range(3, 7)}
        assert comps[0].rect is not None and not comps[0].conflicted

    def test_mono_block_yields_no_chess_component(self):
        a = np.zeros((8, 8), np.uint8)
        a[2:5, 2:5] = 1
        assert chess_components(TorusConfig(a)) == []

    def test_wraparound_chess_row(self):
        a = np.zeros((6, 8), np.uint8)
        a[3, :] = np.arange(8) % 2
        comps = chess_components(TorusConfig(a))
        assert len(comps) == 1
        assert comps[0].cells == {(3, j) for j in range(8)}

    def test_chess_components_match_fixpoint_reference(self):
        # List order included: it decides which bad component the structure
        # check reports.
        rng = np.random.default_rng(61)
        cfgs = []
        for m in range(1, 11):
            for n in range(1, 11):
                cfgs += [TorusConfig((rng.random((m, n)) < p).astype(np.uint8)) for p in (0.3, 0.5)]
        for _ in range(60):
            m, n = int(rng.integers(8, 25)), int(rng.integers(8, 25))
            a = np.zeros((m, n), np.uint8)
            for _ in range(4):
                r0, c0, h, w = (int(x) for x in rng.integers(0, 8, size=4))
                rows, cols = (r0 + np.arange(h + 1)) % m, (c0 + np.arange(w + 1)) % n
                a[np.ix_(rows, cols)] = np.add.outer(rows, cols + int(rng.integers(2))) % 2
            cfgs.append(TorusConfig(a))
        cfgs += [gen_hard_thr2(12), gen_hard_thr2(20)]
        cfgs += [
            perturb(gen_stable_thr2(GenSpec(m=32, n=32, rects=5, seed=s)), 3, rng) for s in range(4)
        ]
        multi = 0
        for cfg in cfgs:
            got = [(c.cells, c.rect, c.conflicted) for c in chess_components(cfg)]
            assert got == fixpoint_chess_components(cfg), cfg.to_text()
            multi += len(got) > 1
        assert multi > 50

    def test_rect_distance_matches_bfs(self):
        rng = np.random.default_rng(62)

        def random_rect(m, n):
            h, w = int(rng.integers(1, m + 1)), int(rng.integers(1, n + 1))
            r0 = 0 if h == m else int(rng.integers(m))
            c0 = 0 if w == n else int(rng.integers(n))
            return Rect(m, n, r0, h, c0, w)

        for m in range(1, 9):
            for n in range(1, 9):
                rects = [random_rect(m, n) for _ in range(12)]
                rects += [Rect(m, n, 0, m, 0, 1), Rect(m, n, 0, 1, 0, n), Rect(m, n, 0, m, 0, n)]
                for ra in rects:
                    for rb in rects:
                        want = component_distance(m, n, ra.cells(), rb.cells())
                        assert rect_distance(ra, rb) == want, (ra, rb)

    def test_component_distance(self):
        assert component_distance(8, 8, [(0, 0)], [(0, 3)]) == 3
        assert component_distance(8, 8, [(0, 0), (0, 1)], [(1, 1)]) == 1
        assert component_distance(8, 8, [(0, 0)], [(7, 7)]) == 2


class TestThr2Check:
    def test_agrees_with_oracle_random(self):
        rng = np.random.default_rng(20240817)
        for trial in range(1500):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(3, 9))
            p = [0.1, 0.3, 0.6][trial % 3]
            cfg = TorusConfig((rng.random((m, n)) < p).astype(np.uint8))
            assert thr2_structure_check(cfg).ok == is_stable(cfg, THR2), cfg.to_text()

    def test_witness_for_isolated_one(self):
        cfg = cfg_from(["000", "010", "000"])
        v = thr2_structure_check(cfg)
        assert not v.ok and (1, 1) in v.witness_cells
        assert v.witness_kind == "state-1-in-Z"

    def test_witness_for_almost_wraparound(self):
        a = np.ones((5, 5), np.uint8)
        a[:, 0] = 0
        v = thr2_structure_check(TorusConfig(a))
        assert not v.ok and v.witness_kind == "almost-wraparound-mono"

    def test_witness_for_close_mono_pair(self):
        cfg = cfg_from(["00000000", "01101100", "00000000", "00000000"])
        v = thr2_structure_check(cfg)
        assert not v.ok and v.witness_kind == "components-too-close"

    def test_in_phase_diagonal_blocks_rejected(self):
        # Two 2x2 chessboard blocks, diagonally placed at distance 2 with
        # their state-0 corners facing the same gap cell: the gap activates.
        a = np.zeros((7, 7), np.uint8)
        for c in [(3, 3), (4, 4), (5, 1), (6, 2)]:
            a[c] = 1
        cfg = TorusConfig(a)
        assert not is_stable(cfg, THR2)
        v = thr2_structure_check(cfg)
        assert not v.ok and v.witness_kind == "in-phase-chess-neighbors"

    def test_out_of_phase_diagonal_blocks_accepted(self):
        a = np.zeros((7, 7), np.uint8)
        for c in [(3, 4), (4, 3), (5, 1), (6, 2)]:
            a[c] = 1
        cfg = TorusConfig(a)
        assert is_stable(cfg, THR2)
        assert thr2_structure_check(cfg).ok

    def test_verdict_json_shape(self):
        v = thr2_structure_check(cfg_from(["000", "010", "000"]))
        d = v.to_json_dict()
        assert d["result"] == "Violation"
        assert d["check"] == "thr2-structure"
        assert d["witness_cells"] == [[1, 1]]


class TestZebras:
    def test_horizontal_band(self):
        a = np.zeros((8, 8), np.uint8)
        a[2, :] = np.arange(8) % 2
        a[3, :] = np.arange(8) % 2
        zebras = detect_zebras(TorusConfig(a), 2)
        assert len(zebras) == 1
        z = zebras[0]
        assert z.full_cols and z.height == 2 and z.rows() == [2, 3]

    def test_vertical_band(self):
        a = np.zeros((8, 8), np.uint8)
        a[:, 5] = np.arange(8) % 2
        a[:, 6] = np.arange(8) % 2
        zebras = detect_zebras(TorusConfig(a), 2)
        assert len(zebras) == 1 and zebras[0].full_rows

    def test_odd_cycle_has_no_band(self):
        a = np.zeros((8, 7), np.uint8)
        a[2, :] = np.arange(7) % 2
        a[3, :] = np.arange(7) % 2
        assert detect_zebras(TorusConfig(a), 2) == []

    def test_full_chessboard_is_not_a_width2_zebra(self):
        a = (np.indices((8, 8)).sum(axis=0) % 2).astype(np.uint8)
        assert detect_zebras(TorusConfig(a), 2) == []


class TestMajorityCheck:
    def test_agrees_with_oracle_random(self):
        rng = np.random.default_rng(20240818)
        for trial in range(1200):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(3, 9))
            cfg = TorusConfig((rng.random((m, n)) < 0.5).astype(np.uint8))
            assert majority_structure_check(cfg) == is_stable(cfg, MAJORITY), cfg.to_text()

    def test_stripes_accepted(self):
        a = np.zeros((12, 12), np.uint8)
        a[3:6, :] = 1
        assert majority_structure_check(TorusConfig(a))

    def test_full_chessboard_accepted(self):
        a = (np.indices((10, 12)).sum(axis=0) % 2).astype(np.uint8)
        assert majority_structure_check(TorusConfig(a))

    def test_partition_none_when_unstable(self):
        a = np.zeros((6, 6), np.uint8)
        a[2, 2] = 1
        a[2, 3] = 1
        assert majority_partition(TorusConfig(a)) is None

    def test_partition_covers_grid(self):
        a = np.zeros((12, 12), np.uint8)
        a[3:6, :] = 1
        part = majority_partition(TorusConfig(a))
        assert part is not None
        total = sum(len(c) for _, c in part.parts())
        assert total == 144
