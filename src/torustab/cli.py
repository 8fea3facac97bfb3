"""Command-line front end: oracles, checkers, testers, stabilizer, generators,
and a CSV benchmark harness.

Exit codes: 0 for accept/ok, 1 for reject/violation, 2 for usage errors.
Grid files follow the shared text format ("m n" header plus 0/1 rows); all
randomized commands are deterministic given their seed.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from dataclasses import dataclass

import click
import numpy as np

from .generators import (
    GenSpec,
    InfeasibleSpec,
    gen_hard_majority,
    gen_hard_thr2,
    gen_stable_majority,
    gen_stable_thr2,
)
from .grid import MAJORITY, THR1, THR2, THR3, THR4, THR5, TorusConfig, apply_rule, is_stable
from .stabilizer import StabilizerParams, stabilize
from .structure import majority_structure_check, thr2_structure_check
from .tester import QueryOracle, TesterParams, run_naive_tester, run_tester

RULES = {
    "thr1": THR1,
    "thr2": THR2,
    "thr3": THR3,
    "thr4": THR4,
    "thr5": THR5,
    "maj": MAJORITY,
}

CSV_HEADER = ["trial", "m", "n", "eps", "seed", "algorithm", "decision", "queries", "wall_ms"]


@dataclass
class ExperimentConfig:
    """Benchmark sweep parameters."""

    instance: str
    n: int
    eps: float
    trials: int
    seed: int
    algorithm: str = "structural"
    sample_size: int = 50

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not (0 < self.eps <= 1):
            raise ValueError("eps must be in (0, 1]")
        if self.algorithm == "naive" and self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")


@dataclass
class TrialRecord:
    trial: int
    m: int
    n: int
    eps: float
    seed: int
    algorithm: str
    decision: str
    queries: int
    wall_ms: float

    def row(self) -> list:
        return [
            self.trial,
            self.m,
            self.n,
            self.eps,
            self.seed,
            self.algorithm,
            self.decision,
            self.queries,
            f"{self.wall_ms:.3f}",
        ]


def _read_grid(path: str | None) -> TorusConfig:
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return TorusConfig.from_text(text)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"bad grid input: {exc}")


def _write_grid(cfg: TorusConfig, path: str | None) -> None:
    text = cfg.to_text()
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}")


rule_option = click.option(
    "--rule",
    type=click.Choice(sorted(RULES)),
    default="thr2",
    show_default=True,
    help="Threshold rule (maj is an alias for thr3).",
)


@click.group()
def main() -> None:
    """Stability toolkit for threshold automata on the torus."""


@main.command()
@rule_option
@click.option("--steps", type=int, default=1, show_default=True, help="Number of rule applications.")
@click.option("--out", type=str, default=None, help="Output grid file (default stdout).")
@click.argument("grid", required=False)
def step(rule: str, steps: int, out: str | None, grid: str | None) -> None:
    """Apply the rule to a grid and print the result."""
    if steps < 0:
        raise click.UsageError("steps must be >= 0")
    cfg = _read_grid(grid)
    for _ in range(steps):
        cfg = apply_rule(cfg, RULES[rule])
    _write_grid(cfg, out)


@main.command()
@rule_option
@click.option("--json", "as_json", is_flag=True, help="Machine-readable verdict.")
@click.argument("grid", required=False)
def stable(rule: str, as_json: bool, grid: str | None) -> None:
    """Exact stability check: does the rule applied twice return the input?"""
    cfg = _read_grid(grid)
    ok = is_stable(cfg, RULES[rule])
    if as_json:
        click.echo(json.dumps({"check": "stable", "result": "Stable" if ok else "Unstable"}))
    else:
        click.echo("stable" if ok else "unstable")
    if not ok:
        sys.exit(1)


@main.command()
@rule_option
@click.option("--json", "as_json", is_flag=True, help="Machine-readable verdict.")
@click.argument("grid", required=False)
def structure(rule: str, as_json: bool, grid: str | None) -> None:
    """Structural stability check (thr2 and maj only)."""
    cfg = _read_grid(grid)
    if rule == "thr2":
        verdict = thr2_structure_check(cfg)
        ok = verdict.ok
        payload = verdict.to_json_dict()
    elif rule in ("thr3", "maj"):
        ok = majority_structure_check(cfg)
        payload = {"check": "majority-structure", "result": "StableStructured" if ok else "Violation"}
    else:
        raise click.UsageError(f"no structural characterization for rule {rule}")
    if as_json:
        click.echo(json.dumps(payload))
    else:
        click.echo("stable-structured" if ok else "violation")
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--eps", type=float, required=True, help="Accuracy parameter in (0, 1].")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="Machine-readable verdict.")
@click.argument("grid", required=False)
def test(eps: float, seed: int, as_json: bool, grid: str | None) -> None:
    """Run the sublinear Threshold-2 stability tester."""
    cfg = _read_grid(grid)
    try:
        params = TesterParams(eps=eps, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    result = run_tester(QueryOracle(cfg), params)
    if as_json:
        payload = {
            "check": "tester",
            "result": "Accept" if result.accepted else "Reject",
            "queries": result.queries,
            "fallback": result.fallback,
        }
        if result.violation is not None:
            payload["witness"] = result.violation.to_json_dict()
        click.echo(json.dumps(payload))
    else:
        word = "accept" if result.accepted else "reject"
        click.echo(f"{word} (queries={result.queries})")
    if not result.accepted:
        sys.exit(1)


@main.command(name="stabilize")
@click.option("--eps", type=float, required=True, help="Accuracy parameter in (0, 1].")
@click.option("--out", type=str, default=None, help="Output grid file (default stdout).")
@click.option("--json", "as_json", is_flag=True, help="Print the report as JSON to stderr.")
@click.argument("grid", required=False)
def stabilize_cmd(eps: float, out: str | None, as_json: bool, grid: str | None) -> None:
    """Transform a grid into a Threshold-2 stable one."""
    cfg = _read_grid(grid)
    try:
        params = StabilizerParams(eps=eps)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    result, report = stabilize(cfg, eps, params)
    _write_grid(result, out)
    summary = report.to_json_dict()
    if as_json:
        click.echo(json.dumps(summary), err=True)
    else:
        mods = summary["modified"]
        click.echo(
            f"modified {mods['total']} cells "
            f"(steps: {mods['step1']}/{mods['step2']}/{mods['step3']}/{mods['step4']})",
            err=True,
        )



@main.command()
@click.option(
    "--instance",
    type=click.Choice(["stable-thr2", "stable-maj", "hard-thr2", "hard-maj"]),
    required=True,
)
@click.option("--n", type=int, required=True, help="Side length (columns).")
@click.option("--m", type=int, default=None, help="Rows (defaults to n).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--rects", type=int, default=4, show_default=True)
@click.option("--wraparound-row", is_flag=True)
@click.option("--zebra-bands", type=int, default=0, show_default=True)
@click.option("--out", type=str, default=None, help="Output grid file (default stdout).")
def gen(
    instance: str,
    n: int,
    m: int | None,
    seed: int,
    rects: int,
    wraparound_row: bool,
    zebra_bands: int,
    out: str | None,
) -> None:
    """Generate an instance and print it in the grid format."""
    m = n if m is None else m
    try:
        if instance == "stable-thr2":
            cfg = gen_stable_thr2(
                GenSpec(m=m, n=n, rects=rects, seed=seed, wraparound_row=wraparound_row)
            )
        elif instance == "stable-maj":
            cfg = gen_stable_majority(GenSpec(m=m, n=n, seed=seed, zebra_bands=zebra_bands))
        elif instance == "hard-thr2":
            cfg = gen_hard_thr2(n)
        else:
            cfg = gen_hard_majority(n)
    except (InfeasibleSpec, ValueError) as exc:
        raise click.UsageError(str(exc))
    _write_grid(cfg, out)


def _bench_instance(config: ExperimentConfig) -> TorusConfig:
    if config.instance == "hard-thr2":
        return gen_hard_thr2(config.n)
    if config.instance == "hard-maj":
        return gen_hard_majority(config.n)
    if config.instance == "stable-thr2":
        return gen_stable_thr2(GenSpec(m=config.n, n=config.n, rects=4, seed=config.seed))
    raise click.UsageError(f"unknown bench instance {config.instance}")


def _run_trial(config: ExperimentConfig, cfg: TorusConfig, trial: int) -> TrialRecord:
    seed = config.seed + trial
    oracle = QueryOracle(cfg)
    t0 = time.perf_counter()
    if config.algorithm == "structural":
        result = run_tester(oracle, TesterParams(eps=config.eps, seed=seed))
        accepted = result.accepted
    else:
        rng = np.random.default_rng(seed)
        accepted, _ = run_naive_tester(oracle, THR2, config.sample_size, rng)
    wall_ms = (time.perf_counter() - t0) * 1000
    return TrialRecord(
        trial=trial,
        m=cfg.m,
        n=cfg.n,
        eps=config.eps,
        seed=seed,
        algorithm=config.algorithm,
        decision="accept" if accepted else "reject",
        queries=oracle.queries,
        wall_ms=wall_ms,
    )


def emit_csv(records: list[TrialRecord], path: str) -> None:
    """Write trial records as CSV, ordered by trial id."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rec in sorted(records, key=lambda r: r.trial):
            writer.writerow(rec.row())


@main.command()
@click.option(
    "--instance",
    type=click.Choice(["stable-thr2", "hard-thr2", "hard-maj"]),
    required=True,
)
@click.option("--n", type=int, required=True)
@click.option("--eps", type=float, default=0.05, show_default=True)
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--algorithm",
    type=click.Choice(["structural", "naive"]),
    default="structural",
    show_default=True,
)
@click.option("--sample-size", type=int, default=50, show_default=True, help="Naive sample size.")
@click.option("--out", type=str, required=True, help="CSV output path.")
def bench(
    instance: str,
    n: int,
    eps: float,
    trials: int,
    seed: int,
    algorithm: str,
    sample_size: int,
    out: str,
) -> None:
    """Run seeded tester trials and emit a CSV of decisions and query counts."""
    try:
        config = ExperimentConfig(
            instance=instance,
            n=n,
            eps=eps,
            trials=trials,
            seed=seed,
            algorithm=algorithm,
            sample_size=sample_size,
        )
        cfg = _bench_instance(config)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    records = [_run_trial(config, cfg, t) for t in range(trials)]
    try:
        emit_csv(records, out)
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}")
    rejected = sum(r.decision == "reject" for r in records)
    click.echo(f"{trials} trials, reject rate {rejected / trials:.3f}", err=True)


if __name__ == "__main__":
    main()
