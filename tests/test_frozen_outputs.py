"""Frozen outputs of the Threshold-2 structure check, the chessboard
components and the stabilizer.

The table in data/frozen_outputs.json was recorded from the per-cell
implementations (set BFS distances, the dict-based chessboard peel, one
`classify_wraparound` call per cell in stabilizer Step 1).  The whole-grid
kernels that replaced them must reproduce every verdict, witness, component
list (in order), output grid and report.  The near-W families were recorded
from the cell-by-cell Step 3 box repair that the row and slice forms
replaced, the multi-tile ones from the near-W repair with the mono branch
and the compare against the W row that the row rule replaced.  The
structure families from hard-64-128 on were recorded from the set walk and
the per-cell peel queue that the torus labels and the frontier peel
replaced; they hold several failing components per torus, so the set order
that picks the witness is pinned above 8x8.  The compatibility-drops
families were recorded from the filter that kept each box's planned grid;
they are seeded runs in which it drops a box, which no other row does.
The exhaustive 4x4 family is stored as one sha256 over its rows; every
other family row by row.

Re-record only after an intended output change:
    PYTHONPATH=src python tests/test_frozen_outputs.py
which first prints every row that differs from the stored one.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from torustab import THR2, TorusConfig, is_stable, stabilizer
from torustab.generators import GenSpec, gen_hard_thr2, gen_stable_thr2, perturb
from torustab.stabilizer import StabilizerParams, stabilize
from torustab.structure import chess_components, thr2_structure_check

from grid_reference import near_w_boxes, noisy_wraparound, stabilizer_fuzz_inputs

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


def stabilize_row(cfg: TorusConfig, eps: float, c2: int = 68, c1: int = 48) -> list:
    """[output shape, sha256 of the output bytes, report JSON]."""
    out, report = stabilize(cfg, eps, StabilizerParams(eps=eps, c1=c1, c2=c2))
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


def chess_bands(rng, m: int, n: int, count: int) -> TorusConfig:
    """Chessboard bands 2 or 3 rows high across the whole width, at random
    rows and phases.  On odd n a band's seam holds a same-state pair, so a
    band is a non-alternating chessboard component; on even sides the torus
    grid is bipartite and no component can be one."""
    a = np.zeros((m, n), np.uint8)
    for _ in range(count):
        rows = (int(rng.integers(m)) + np.arange(int(rng.integers(2, 4)))) % m
        a[rows, :] = (np.add.outer(rows, np.arange(n)) + rng.integers(2)) % 2
    return TorusConfig(a)


# (seed, index, eps, c1, c2): item `index` of `stabilizer_fuzz_inputs(seed,
# ...)`, whose eps is `eps`, stabilized with c1 and c2.  In each of these runs
# Step 3's compatibility filter drops a box whose repair is unstable alone,
# or unstable beside a close box it already kept; the first 24 per reason
# found by wrapping `_compatible_boxes` on seeds 1-3.
DROPS_ALONE = [
    (1, 101, 1.0, 48, 3), (1, 101, 1.0, 48, 68), (1, 181, 1.0, 48, 3), (1, 181, 1.0, 48, 68),
    (1, 272, 0.75, 48, 3), (1, 373, 1.0, 48, 3), (1, 373, 1.0, 48, 68), (1, 376, 0.05, 48, 3),
    (1, 376, 0.05, 48, 68), (1, 659, 0.2, 48, 3), (1, 659, 0.2, 48, 68), (1, 779, 0.2, 48, 3),
    (1, 779, 0.2, 48, 68), (1, 788, 0.2, 48, 3), (1, 788, 0.2, 48, 68), (1, 828, 1.0, 48, 3),
    (1, 1159, 0.75, 48, 3), (1, 1159, 0.75, 48, 68), (1, 1699, 0.1, 48, 3), (1, 1699, 0.1, 48, 68),
    (1, 1769, 0.3, 48, 3), (1, 1769, 0.3, 48, 68), (1, 1925, 0.1, 48, 3), (1, 1925, 0.1, 48, 68),
]
DROPS_BESIDE = [
    (1, 11, 0.3, 48, 3), (1, 11, 0.3, 48, 68), (1, 413, 0.5, 48, 3), (1, 413, 0.5, 48, 68),
    (1, 454, 0.5, 48, 3), (1, 454, 0.5, 48, 68), (1, 1369, 0.2, 48, 3), (1, 1369, 0.2, 48, 68),
    (1, 1587, 0.1, 48, 3), (1, 1587, 0.1, 48, 68), (1, 1884, 0.2, 48, 3), (1, 1884, 0.2, 48, 68),
    (2, 5, 0.75, 48, 3), (2, 5, 0.75, 48, 68), (2, 846, 0.3, 48, 3), (2, 846, 0.3, 48, 68),
    (2, 1770, 1.0, 48, 3), (2, 1770, 1.0, 48, 68), (3, 21, 0.3, 48, 3), (3, 21, 0.3, 48, 68),
    (3, 30, 0.05, 48, 3), (3, 30, 0.05, 48, 68), (3, 581, 0.3, 48, 3), (3, 581, 0.3, 48, 68),
]


def fuzz_case(seed: int, index: int, eps: float, c1: int, c2: int) -> tuple:
    """The stabilize case (configuration, eps, c2, c1) of one drop tuple."""
    for idx, (a, fuzz_eps) in enumerate(stabilizer_fuzz_inputs(seed, index + 1)):
        if idx == index:
            assert fuzz_eps == eps, (seed, index, fuzz_eps, eps)
            return TorusConfig(a), eps, c2, c1


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
    yield "hard-64-128", [gen_hard_thr2(64), gen_hard_thr2(128)]
    yield "stable-128-wraparound", [
        gen_stable_thr2(GenSpec(m=128, n=128, rects=8, seed=seed, wraparound_row=True))
        for seed in range(2)
    ]
    # Several failing components per torus, so the order in which the check
    # meets them (the set walk's seed order) decides the witness.
    rng = np.random.default_rng(508)
    yield "placed-rects-48x48-40x56", [
        placed_rects(rng, m, n, int(rng.integers(10, 40)), (0.0, 0.0, 0.3, 1.0)[t % 4])
        for m, n in ((48, 48), (40, 56))
        for t in range(12)
    ]
    rng = np.random.default_rng(509)
    bands = [chess_bands(rng, m, n, int(rng.integers(2, 6))) for m, n in ((45, 51), (40, 33)) for _ in range(4)]
    yield "chess-bands-odd", bands + [TorusConfig(cfg.a.T) for cfg in bands]


def stabilize_cases():
    """(family, [(configuration, eps, c2[, c1])]) for the stabilizer rows, in
    table order; c2 = 3 gives alpha = eps / 3, large enough for Step 1 to
    repair noisy lines on small tori, and c1 = 4 or 6 at eps = 0.5 gives
    k = 8 or 12, so the multi-tile rows cut their tori into several tiles."""
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
    rng = np.random.default_rng(506)
    near = [near_w_boxes(rng, int(rng.integers(17, 25)), 2 * int(rng.integers(4, 13))) for _ in range(20)]
    cases = [(cfg, eps, 3) for cfg in near for eps in (0.5, 1.0)]
    yield "near-w-boxes-c2-3", cases
    yield "near-w-boxes-c2-3-transposed", [(TorusConfig(cfg.a.T), eps, c2) for cfg, eps, c2 in cases]
    rng = np.random.default_rng(507)
    near = [near_w_boxes(rng, int(rng.integers(24, 41)), 2 * int(rng.integers(12, 21))) for _ in range(20)]
    cases = [(cfg, 0.5, 3, c1) for cfg in near for c1 in (4, 6)]
    yield "near-w-boxes-multitile", cases
    yield "near-w-boxes-multitile-transposed", [(TorusConfig(cfg.a.T), *rest) for cfg, *rest in cases]
    yield "compatibility-drops-alone", [fuzz_case(*t) for t in DROPS_ALONE]
    yield "compatibility-drops-beside", [fuzz_case(*t) for t in DROPS_BESIDE]


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


def test_drop_families_drop_for_their_reason(monkeypatch):
    """Each run of the compatibility-drops families still drops a box for
    its family's reason: a box whose repair alone on an empty torus is
    unstable, or one whose repair alone is stable."""
    compatible = stabilizer._compatible_boxes
    reasons = set()

    def recorded(pairs, view):
        kept = compatible(pairs, view)
        for box, _ in pairs:
            if all(box is not other for other, _ in kept):
                alone = np.zeros((view.m, view.n), np.uint8)
                stabilizer._fix_box_inplace(alone, box, view.read(box.anchor))
                reasons.add("beside" if is_stable(TorusConfig(alone), THR2) else "alone")
        return kept

    monkeypatch.setattr(stabilizer, "_compatible_boxes", recorded)
    for reason, drops in (("alone", DROPS_ALONE), ("beside", DROPS_BESIDE)):
        for t in drops:
            reasons.clear()
            stabilize_row(*fuzz_case(*t))
            assert reason in reasons, (reason, t)


def summary(section: str, row) -> str:
    """A row's verdict: result and witness kind of a structure row, output
    digest and modification count of a stabilize row."""
    if section == "structure":
        return f"{row[0]['result']} {row[0]['witness_kind']}"
    return f"{row[1][:12]} modified={row[2]['modified']['total']}"


def changed_rows(old: dict, new: dict) -> list[str]:
    """One line per row of `new` (as read back from JSON) that differs from
    `old`, with the old and new verdicts; the 4x4 family by its digest."""
    lines = []
    for section, families in new.items():
        for family, rows in families.items():
            before = old[section].get(family) or []
            if family == "all-4x4-sha256":
                if rows != before:
                    lines.append(f"{section} {family}: {before} -> {rows}")
                continue
            for idx, row in enumerate(rows):
                was = before[idx] if idx < len(before) else None
                if row != was:
                    old_verdict = "missing" if was is None else summary(section, was)
                    lines.append(f"{section} {family}[{idx}]: {old_verdict} -> {summary(section, row)}")
    return lines


if __name__ == "__main__":
    new = json.loads(json.dumps(compute_table()))
    print("\n".join(changed_rows(json.loads(TABLE.read_text()), new)) or "no row changed")
    TABLE.write_text(json.dumps(new, separators=(",", ":")) + "\n")
