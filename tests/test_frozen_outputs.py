"""Frozen outputs of the Threshold-2 structure check, the chessboard
components and the stabilizer.

The table in data/frozen_outputs.json was recorded from the per-cell
implementations (set BFS distances, the dict-based chessboard peel, one
`classify_wraparound` call per cell in stabilizer Step 1).  The whole-grid
kernels that replaced them must reproduce every verdict, witness, component
list (in order), output grid and report.  The exhaustive 4x4 family is
stored as one sha256 over its rows; every other family row by row.

Re-record only after an intended output change:
    PYTHONPATH=src python tests/test_frozen_outputs.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from torustab import TorusConfig
from torustab.generators import GenSpec, gen_hard_thr2, gen_stable_thr2, perturb
from torustab.stabilizer import StabilizerParams, stabilize
from torustab.structure import chess_components, thr2_structure_check

TABLE = Path(__file__).parent / "data" / "frozen_outputs.json"


def all_4x4():
    codes = np.arange(1 << 16, dtype=np.uint32)
    bits = ((codes[:, None] >> np.arange(16)) & 1).astype(np.uint8)
    return bits.reshape(-1, 4, 4)


def structure_row(cfg: TorusConfig) -> list:
    """[verdict JSON, [[sorted cells, rect, conflicted] per chess component]]."""
    comps = []
    for comp in chess_components(cfg):
        r = comp.rect
        rect = None if r is None else [r.row0, r.height, r.col0, r.width]
        comps.append([[list(c) for c in sorted(comp.cells)], rect, comp.conflicted])
    return [thr2_structure_check(cfg).to_json_dict(), comps]


def stabilize_row(cfg: TorusConfig, eps: float, c2: int = 68) -> list:
    """[output shape, sha256 of the output bytes, report JSON]."""
    out, report = stabilize(cfg, eps, StabilizerParams(eps=eps, c2=c2))
    return [list(out.shape), hashlib.sha256(out.a.tobytes()).hexdigest(), report.to_json_dict()]


def random_grid(rng, m: int, n: int, density: float) -> TorusConfig:
    return TorusConfig((rng.random((m, n)) < density).astype(np.uint8))


def placed_rects(rng, m: int, n: int, count: int, p_mono: float) -> TorusConfig:
    """Mono or chessboard rectangles at random, possibly wrapping, touching
    or overlapping places: configurations that reach the in-phase and
    distance phases of the structure check."""
    a = np.zeros((m, n), np.uint8)
    for _ in range(count):
        h, w = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        r0, c0 = int(rng.integers(m)), int(rng.integers(n))
        rows = (r0 + np.arange(h)) % m
        cols = (c0 + np.arange(w)) % n
        if rng.random() < p_mono:
            block = np.ones((h, w), np.uint8)
        else:
            block = ((np.add.outer(np.arange(h), np.arange(w)) + rng.integers(2)) % 2).astype(np.uint8)
        a[np.ix_(rows, cols)] = block
    return TorusConfig(a)


def noisy_wraparound(rng, m: int, n: int) -> TorusConfig:
    """Chessboard wraparound rows at random phases, 2 to 8 rows apart, plus
    sparse noise: inputs on which Step 1 finds and repairs lines."""
    a = np.zeros((m, n), np.uint8)
    for r in range(int(rng.integers(m)), m, int(rng.integers(2, 9))):
        a[r, :] = (np.arange(n) + rng.integers(2)) % 2
    a ^= (rng.random((m, n)) < 0.02).astype(np.uint8)
    return TorusConfig(a)


def stable_48(seed: int) -> TorusConfig:
    return gen_stable_thr2(GenSpec(m=48, n=48, rects=5, seed=seed, wraparound_row=seed % 2 == 0))


def stable_64(seed: int) -> TorusConfig:
    return gen_stable_thr2(GenSpec(m=64, n=64, rects=4, seed=seed, wraparound_row=seed % 2 == 0))


def structure_cases():
    """(family, configurations) for the structure rows, in table order."""
    rng = np.random.default_rng(501)
    yield "random-1x1-10x10", [
        random_grid(rng, m, n, density)
        for m in range(1, 11)
        for n in range(1, 11)
        for density in (0.3, 0.5)
    ]
    yield "placed-rects-5-16", [
        placed_rects(rng, int(rng.integers(5, 17)), int(rng.integers(5, 17)), int(rng.integers(2, 5)), 0.4)
        for _ in range(300)
    ]
    yield "chess-pairs-6-12", [
        placed_rects(rng, int(rng.integers(6, 13)), int(rng.integers(6, 13)), 2, 0.0)
        for _ in range(300)
    ]
    yield "hard-12-64", [gen_hard_thr2(n) for n in range(12, 65, 4)]
    yield "stable-48", [stable_48(seed) for seed in range(6)]
    rng = np.random.default_rng(502)
    yield "perturbed-48", [perturb(stable_48(seed), 6, rng) for seed in range(6)]


def stabilize_cases():
    """(family, [(configuration, eps, c2)]) for the stabilizer rows, in table
    order; c2 = 3 gives alpha = eps / 3, large enough for Step 1 to repair
    noisy lines on small tori."""
    rng = np.random.default_rng(503)
    cases = []
    for trial in range(30):
        m = int(rng.integers(4, 33))
        n = int(rng.integers(4, 33))
        cfg = random_grid(rng, m, n, (0.1, 0.3, 0.5, 0.8)[trial % 4])
        cases += [(cfg, eps, 68) for eps in (0.1, 0.5, 1.0)]
    yield "random-4-32", cases
    yield "stable-64", [(stable_64(seed), 0.1, 68) for seed in range(3)]
    rng = np.random.default_rng(504)
    perturbed = [perturb(stable_64(seed), 20, rng) for seed in range(3)]
    yield "perturbed-64", [(cfg, eps, 68) for cfg in perturbed for eps in (0.1, 0.5)]
    yield "perturbed-64-transposed", [(TorusConfig(cfg.a.T), 0.5, 68) for cfg in perturbed]
    yield "stable-64-transposed", [(TorusConfig(stable_64(seed).a.T), 0.1, 68) for seed in range(3)]
    yield "hard-12-48", [(gen_hard_thr2(n), 0.1, 68) for n in (12, 24, 48)]
    rng = np.random.default_rng(505)
    noisy = []
    for trial in range(20):
        m, n = int(rng.integers(8, 33)), 2 * int(rng.integers(4, 17))
        noisy.append(noisy_wraparound(rng, m, n))
    cases = [(cfg, eps, 3) for cfg in noisy for eps in (0.5, 1.0)]
    yield "noisy-wraparound-c2-3", cases
    yield "noisy-wraparound-c2-3-transposed", [(TorusConfig(cfg.a.T), eps, c2) for cfg, eps, c2 in cases]


def all_4x4_digest() -> str:
    h = hashlib.sha256()
    for grid in all_4x4():
        h.update(json.dumps(structure_row(TorusConfig(grid))).encode() + b"\n")
    return h.hexdigest()


def compute_table() -> dict:
    table = {"structure": {"all-4x4-sha256": all_4x4_digest()}, "stabilize": {}}
    for family, cfgs in structure_cases():
        table["structure"][family] = [structure_row(cfg) for cfg in cfgs]
    for family, cases in stabilize_cases():
        table["stabilize"][family] = [stabilize_row(*case) for case in cases]
    return table


def test_structure_rows_unchanged():
    want = json.loads(TABLE.read_text())["structure"]
    families = list(structure_cases())
    assert [f for f, _ in families] == [f for f in want if f != "all-4x4-sha256"]
    for family, cfgs in families:
        assert len(cfgs) == len(want[family])
        for idx, (cfg, row) in enumerate(zip(cfgs, want[family])):
            assert json.loads(json.dumps(structure_row(cfg))) == row, (family, idx)


def test_structure_all_4x4_unchanged():
    want = json.loads(TABLE.read_text())["structure"]["all-4x4-sha256"]
    assert all_4x4_digest() == want


def test_stabilize_rows_unchanged():
    want = json.loads(TABLE.read_text())["stabilize"]
    families = list(stabilize_cases())
    assert [f for f, _ in families] == list(want)
    for family, cases in families:
        assert len(cases) == len(want[family])
        for idx, (case, row) in enumerate(zip(cases, want[family])):
            assert json.loads(json.dumps(stabilize_row(*case))) == row, (family, idx)


if __name__ == "__main__":
    TABLE.write_text(json.dumps(compute_table(), separators=(",", ":")) + "\n")
