"""Command-line front end: oracles, checkers, testers, stabilizer, generators,
and a CSV benchmark harness.

Exit codes: 0 for accept/ok, 1 for reject/violation, 2 for usage errors.
Grid files follow the shared text format ("m n" header plus 0/1 rows); all
randomized commands are deterministic given their seed. `gen` and `bench`
build instances with one builder (`--m` applies to the stable ones only).
`--out` (stdout when absent or "-") is opened after the input is read and
checked and before the work, so an unwritable path costs nothing. `bench`
writes the CSV header and then one row per trial as it finishes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import sys
import time

import click
import numpy as np

from .generators import GenSpec, gen_hard_majority, gen_hard_thr2, gen_stable_majority, gen_stable_thr2
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


def _open_out(path: str | None):
    """Stdout for None or "-", else `path` opened for writing."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}")


def _instance(
    instance: str,
    m: int,
    n: int,
    seed: int,
    rects: int = 4,
    wraparound_row: bool = False,
    zebra_bands: int = 0,
) -> TorusConfig:
    """The `gen`/`bench` instance; an infeasible spec is a usage error."""
    try:
        if instance == "stable-thr2":
            spec = GenSpec(m=m, n=n, rects=rects, seed=seed, wraparound_row=wraparound_row)
            return gen_stable_thr2(spec)
        if instance == "stable-maj":
            return gen_stable_majority(GenSpec(m=m, n=n, seed=seed, zebra_bands=zebra_bands))
        if m != n:
            raise ValueError(f"{instance} is square: m must equal n")
        return gen_hard_thr2(n) if instance == "hard-thr2" else gen_hard_majority(n)
    except ValueError as exc:
        raise click.UsageError(str(exc))


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
    with _open_out(out) as fh:
        for _ in range(steps):
            cfg = apply_rule(cfg, RULES[rule])
        fh.write(cfg.to_text())


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
    with _open_out(out) as fh:
        result, report = stabilize(cfg, eps, params)
        fh.write(result.to_text())
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
    cfg = _instance(instance, n if m is None else m, n, seed, rects, wraparound_row, zebra_bands)
    with _open_out(out) as fh:
        fh.write(cfg.to_text())


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
    if trials < 1:
        raise click.UsageError("trials must be >= 1")
    if not (0 < eps <= 1):
        raise click.UsageError("eps must be in (0, 1]")
    if algorithm == "naive" and sample_size < 1:
        raise click.UsageError("sample_size must be >= 1")
    cfg = _instance(instance, n, n, seed)
    rejected = 0
    with _open_out(out) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for trial in range(trials):
            trial_seed = seed + trial
            oracle = QueryOracle(cfg)
            t0 = time.perf_counter()
            if algorithm == "structural":
                accepted = run_tester(oracle, TesterParams(eps=eps, seed=trial_seed)).accepted
            else:
                rng = np.random.default_rng(trial_seed)
                accepted, _ = run_naive_tester(oracle, THR2, sample_size, rng)
            wall_ms = f"{(time.perf_counter() - t0) * 1000:.3f}"
            rejected += not accepted
            decision = "accept" if accepted else "reject"
            writer.writerow(
                [trial, cfg.m, cfg.n, eps, trial_seed, algorithm, decision, oracle.queries, wall_ms]
            )
    click.echo(f"{trials} trials, reject rate {rejected / trials:.3f}", err=True)


if __name__ == "__main__":
    main()
