"""The benchmark workloads: seeded inputs, the ops of one cycle, and the
verification of every op's output.

A workload is a fixed list of ops (one cycle).  The harness repeats whole
cycles, so every op appears equally often and each cycle must produce the
same outputs as the first.  Ops call torustab through module attributes
(`structure.thr2_structure_check(...)`), so trace wrappers installed on those
attributes see them; verification uses the oracles bound below at import
time, before any wrapper exists, and runs with the tracer paused.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np
from click.testing import CliRunner

import torustab.cli as cli
from torustab import generators, grid, stabilizer, structure, tester
from torustab.generators import GenSpec
from torustab.grid import MAJORITY, THR2, TorusConfig
from torustab.grid import apply_rule as _apply_rule
from torustab.grid import find_period as _find_period
from torustab.grid import is_cell_stable as _is_cell_stable
from torustab.grid import is_stable as _is_stable


class Mismatch(Exception):
    """An op's output failed verification; the op counts as failed."""


class GuardError(RuntimeError):
    """The workload no longer exercises the code path it was chosen for."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Any]  # returns the op's fingerprint or raises Mismatch


@dataclass
class Counters:
    """Facts read from op results, summed over all cycles of a run."""

    tester_runs: int = 0
    tester_fallbacks: int = 0
    tester_queries: int = 0
    stabilize_boxes: int = 0
    stabilize_modified: int = 0

    def reset(self) -> None:
        for f in fields(self):
            setattr(self, f.name, 0)


def _need(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _grid_fp(cfg: TorusConfig) -> list:
    return [cfg.m, cfg.n, hashlib.sha256(cfg.a.tobytes()).hexdigest()]


def _text_fp(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _limit(cfg: TorusConfig, rule) -> TorusConfig:
    """The stable configuration the rule's dynamics reach from `cfg`."""
    pre, _ = _find_period(cfg, rule)
    for _ in range(pre):
        cfg = _apply_rule(cfg, rule)
    return cfg


def _reference_is_stable(a: np.ndarray, b: int) -> bool:
    """Double step written independently of torustab: every distinct
    orthogonal neighbour other than the cell itself counts once."""
    m, n = a.shape

    def step(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        for i in range(m):
            for j in range(n):
                nbs = {((i + 1) % m, j), ((i - 1) % m, j), (i, (j + 1) % n), (i, (j - 1) % n)}
                nbs.discard((i, j))
                out[i, j] = int(int(x[i, j]) + sum(int(x[p]) for p in nbs) >= b)
        return out

    return bool((step(step(a)) == a).all())


def _violation_fp(cfg: TorusConfig, violation) -> list | None:
    """Fingerprint of a tester witness; an unstable-cell witness is re-checked."""
    if violation is None:
        return None
    if violation.kind == "unstable-cell":
        cell = tuple(violation.cells[0])
        _need(not _is_cell_stable(cfg, THR2, cell), f"witness cell {cell} is stable")
    return [violation.kind, [list(c) for c in violation.cells], violation.step]


def _random(rng: np.random.Generator, m: int, n: int, density: float = 0.5) -> TorusConfig:
    return TorusConfig((rng.random((m, n)) < density).astype(np.uint8))


# -- ops ----------------------------------------------------------------------


def tester_op(name, cfg, eps, seed, stable, fallback, counters) -> Op:
    def run():
        return tester.run_tester(tester.QueryOracle(cfg), tester.TesterParams(eps=eps, seed=seed))

    def check(res):
        if res.fallback != fallback:
            raise GuardError(f"{name}: tester fallback={res.fallback}, workload needs {fallback}")
        counters.tester_runs += 1
        counters.tester_fallbacks += int(res.fallback)
        counters.tester_queries += res.queries
        if stable:
            _need(res.accepted, f"{name}: stable input rejected")
        _need(res.accepted == (res.violation is None), f"{name}: decision and witness disagree")
        return [res.accepted, res.queries, res.fallback, _violation_fp(cfg, res.violation)]

    return Op(name, run, check)


def naive_op(name, cfg, sample_size, seed) -> Op:
    def run():
        oracle = tester.QueryOracle(cfg)
        ok, report = tester.run_naive_tester(
            oracle, THR2, sample_size, np.random.default_rng(seed)
        )
        return ok, report, oracle.queries

    def check(res):
        ok, report, queries = res
        _need(ok == (report is None), f"{name}: decision and witness disagree")
        return [ok, queries, _violation_fp(cfg, report)]

    return Op(name, run, check)


def thr2_op(name, cfg) -> Op:
    want = _is_stable(cfg, THR2)

    def check(verdict):
        _need(verdict.ok == want, f"{name}: structure verdict {verdict.ok}, oracle {want}")
        return verdict.to_json_dict()

    return Op(name, lambda: structure.thr2_structure_check(cfg), check)


def majority_op(name, cfg) -> Op:
    want = _is_stable(cfg, MAJORITY)

    def check(ok):
        _need(ok == want, f"{name}: majority verdict {ok}, oracle {want}")
        return ok

    return Op(name, lambda: structure.majority_structure_check(cfg), check)


def is_stable_op(name, cfg) -> Op:
    want = _reference_is_stable(cfg.a, THR2.b)

    def check(ok):
        _need(ok == want, f"{name}: is_stable {ok}, reference {want}")
        return ok

    return Op(name, lambda: grid.is_stable(cfg, THR2), check)


def stabilize_op(name, cfg, eps, counters) -> Op:
    def check(res):
        out, report = res
        _need(_is_stable(out, THR2), f"{name}: output is not stable")
        _need(report.output == out, f"{name}: report output differs from the result")
        hamming = int((out.a != cfg.a).sum())
        _need(report.total_modified >= hamming, f"{name}: report undercounts modifications")
        counters.stabilize_boxes += len(report.boxes)
        counters.stabilize_modified += report.total_modified
        return [_grid_fp(out), report.to_json_dict()]

    return Op(name, lambda: stabilizer.stabilize(cfg, eps), check)


_runner = CliRunner()


def cli_op(name, args, stdin, exit_code, check_output) -> Op:
    """`torustab.cli.main` invoked in-process with TORUS_STAB_THREADS unset."""

    def run():
        return _runner.invoke(cli.main, args, input=stdin, env={"TORUS_STAB_THREADS": None})

    def check(res):
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            raise Mismatch(f"{name}: raised {res.exception!r}")
        _need(res.exit_code == exit_code, f"{name}: exit code {res.exit_code}, want {exit_code}")
        return [res.exit_code, check_output(res.stdout)]

    return Op(name, run, check)


# -- workloads ----------------------------------------------------------------
#
# Each workload has a timed `setup(seed)` that builds its inputs (instance
# generation and text serialization) and an untimed `ops(inputs, seed,
# counters, scratch)` that derives the expected outputs and returns one cycle.


def setup_sweep_small(seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    small = []
    for size in (6, 8):
        for density in (0.2, 0.3, 0.4, 0.5) * 4:
            raw = _random(rng, size, size, density)
            small += [("random", raw), ("thr2-limit", _limit(raw, THR2)), ("maj-limit", _limit(raw, MAJORITY))]
    # Two 64x64 tori of each kind: their stabilize calls dominate the cycle's
    # time, and averaging two inputs halves the variation between seeds.
    s64 = [
        generators.gen_stable_thr2(
            GenSpec(64, 64, rects=6, max_size=8, wraparound_row=True, seed=2 * seed + t)
        )
        for t in range(2)
    ]
    return {
        "small": small,
        "degenerate": [_random(rng, m, n) for m, n in ((1, 7), (1, 12), (2, 9), (2, 10))],
        "r16": [_random(rng, 16, 16) for _ in range(2)],
        "r64": [_random(rng, 64, 64) for _ in range(2)],
        "s64": s64,
        "p64": [generators.perturb(cfg, 40, rng) for cfg in s64],
    }


def ops_sweep_small(inp: dict, seed: int, counters: Counters, scratch: Path) -> list[Op]:
    ops = []
    for idx, (kind, cfg) in enumerate(inp["small"]):
        label = f"{cfg.m}x{cfg.n}-{kind}-{idx}"
        ops.append(thr2_op(f"thr2_structure_check/{label}", cfg))
        ops.append(majority_op(f"majority_structure_check/{label}", cfg))
    for cfg in inp["degenerate"]:
        ops.append(is_stable_op(f"is_stable/{cfg.m}x{cfg.n}", cfg))
    for idx, cfg in enumerate(inp["r16"]):
        ops.append(stabilize_op(f"stabilize/random-16-{idx}", cfg, 0.5, counters))
    for t in range(2):
        ops.append(stabilize_op(f"stabilize/random-64-{t}", inp["r64"][t], 0.1, counters))
        ops.append(stabilize_op(f"stabilize/perturbed-64-{t}", inp["p64"][t], 0.1, counters))
        ops.append(tester_op(f"run_tester/stable-64-{t}", inp["s64"][t], 0.5, seed, True, True,
                             counters))
        ops.append(tester_op(f"run_tester/perturbed-64-{t}", inp["p64"][t], 0.5, seed, False,
                             True, counters))
    return ops


def setup_tester_large(seed: int) -> dict:
    s800 = generators.gen_stable_thr2(
        GenSpec(800, 800, rects=12, max_size=40, wraparound_row=True, seed=seed)
    )
    return {
        "s800": s800,
        # Non-square, both sides >= 3k = 576 at eps = 0.25, even n.
        "s600x640": generators.gen_stable_thr2(
            GenSpec(600, 640, rects=12, max_size=40, wraparound_row=True, seed=seed + 1)
        ),
        "hard800": generators.gen_hard_thr2(800),
        "p800": generators.perturb(s800, 2000, np.random.default_rng([seed, 2])),
    }


def ops_tester_large(inp: dict, seed: int, counters: Counters, scratch: Path) -> list[Op]:
    # Six fast reject-path runs, four eps=0.5 runs and six eps=0.25 runs:
    # with three cycles both the median and the tail (eleventh slowest of 48)
    # fall in the middle of a group of like runs, not at its edge.
    ops = []
    for key in ("s800", "s600x640"):
        for eps, seeds in ((0.5, 2), (0.25, 3)):
            for t in range(seeds):
                ops.append(tester_op(
                    f"run_tester/{key}-eps{eps}-{t}", inp[key], eps, seed * 100 + t, True, False, counters
                ))
    for key in ("hard800", "p800"):
        for eps in (0.5, 0.25):
            ops.append(tester_op(
                f"run_tester/{key}-eps{eps}", inp[key], eps, seed * 100, False, False, counters
            ))
    for t in range(2):
        ops.append(naive_op(f"run_naive_tester/hard800-{t}", inp["hard800"], 1000, seed * 100 + t))
    return ops


def setup_wholegrid_large(seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    s256 = generators.gen_stable_thr2(
        GenSpec(256, 256, rects=8, min_size=16, max_size=16, wraparound_row=True, seed=seed)
    )
    return {
        "s256": s256,
        # 64 flips: few enough that the cost stays in the whole-grid passes
        # rather than in a seed-dependent number of repaired boxes.
        "p256": generators.perturb(s256, 64, rng),
        "r256": _random(rng, 256, 256),
        "hard512": generators.gen_hard_thr2(512),
        "zebra256": generators.gen_stable_majority(GenSpec(256, 256, zebra_bands=1, seed=seed)),
    }


def ops_wholegrid_large(inp: dict, seed: int, counters: Counters, scratch: Path) -> list[Op]:
    return [
        stabilize_op("stabilize/perturbed-256", inp["p256"], 0.1, counters),
        stabilize_op("stabilize/random-256", inp["r256"], 0.1, counters),
        thr2_op("thr2_structure_check/stable-256", inp["s256"]),
        thr2_op("thr2_structure_check/hard-512", inp["hard512"]),
        majority_op("majority_structure_check/zebra-256", inp["zebra256"]),
    ]


CLI_N = 2048
BENCH_TRIALS = 20


def setup_cli_large(seed: int) -> dict:
    rng = np.random.default_rng([seed, 4])
    random = _random(rng, CLI_N, CLI_N)
    stable = generators.gen_stable_thr2(
        GenSpec(CLI_N, CLI_N, rects=16, max_size=40, wraparound_row=True, seed=seed)
    )
    return {"random": random, "random_text": random.to_text(), "stable": stable,
            "stable_text": stable.to_text()}


def ops_cli_large(inp: dict, seed: int, counters: Counters, scratch: Path) -> list[Op]:
    stepped = _apply_rule(_apply_rule(inp["random"], MAJORITY), MAJORITY).to_text()
    hard_text = generators.gen_hard_thr2(CLI_N).to_text()
    _need(not _is_stable(inp["random"], THR2), "random grid unexpectedly stable")
    csv_path = scratch / "bench.csv"

    def same_text(want):
        def check(out):
            _need(out == want, "grid text differs from the oracle's")
            return _text_fp(out)
        return check

    def verdict(want):
        def check(out):
            _need(json.loads(out) == {"check": "stable", "result": want}, f"verdict {out!r}")
            return out
        return check

    def tested(out):
        payload = json.loads(out)
        if payload["fallback"]:
            raise GuardError("cli test fell back to the exact check")
        _need(payload["result"] == "Accept", "stable grid rejected")
        counters.tester_runs += 1
        counters.tester_queries += payload["queries"]
        return payload

    def benched(out):
        with open(csv_path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        csv_path.unlink()
        _need(rows[0] == cli.CSV_HEADER, "bench CSV header")
        _need([r[0] for r in rows[1:]] == [str(t) for t in range(BENCH_TRIALS)], "bench trial ids")
        for r in rows[1:]:
            _need(r[6] in ("accept", "reject") and int(r[7]) > 0, f"bench row {r}")
        # wall_ms, the last column, is the only nondeterministic field.
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(r[:-1] for r in rows)
        return _text_fp(buf.getvalue())

    return [
        cli_op("cli/step", ["step", "--rule", "maj", "--steps", "2"], inp["random_text"], 0,
               same_text(stepped)),
        cli_op("cli/stable-random", ["stable", "--rule", "thr2", "--json"], inp["random_text"], 1,
               verdict("Unstable")),
        cli_op("cli/stable-stable", ["stable", "--rule", "thr2", "--json"], inp["stable_text"], 0,
               verdict("Stable")),
        cli_op("cli/test", ["test", "--eps", "0.5", "--seed", str(seed), "--json"],
               inp["stable_text"], 0, tested),
        cli_op("cli/gen", ["gen", "--instance", "hard-thr2", "--n", str(CLI_N)], None, 0,
               same_text(hard_text)),
        cli_op("cli/bench", ["bench", "--instance", "hard-thr2", "--n", "800", "--eps", "0.5",
                             "--trials", str(BENCH_TRIALS), "--seed", str(seed),
                             "--out", str(csv_path)], None, 0, benched),
    ]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], dict]
    ops: Callable[[dict, int, Counters, Path], list[Op]]


WORKLOADS = {
    "sweep-small": Workload(setup_sweep_small, ops_sweep_small),
    "tester-large": Workload(setup_tester_large, ops_tester_large),
    "wholegrid-large": Workload(setup_wholegrid_large, ops_wholegrid_large),
    "cli-large": Workload(setup_cli_large, ops_cli_large),
}
