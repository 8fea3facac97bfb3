"""Runs a workload's cycles and turns them into end-to-end or per-layer metrics."""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import measure
import tracing
import workloads
from torustab.generators import InfeasibleSpec

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MIN_OPS = measure.TAIL_BEYOND + 1  # so that latency_tail_ms always exists
# Per-op medians need three samples; the heavy workloads run exactly three
# cycles, which keeps their tail percentile on the same op from run to run.
MIN_CYCLES = 3
SETUP_REPEATS = 3

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics.  Counts and busy times are per cycle (one pass over the
# workload's ops), so a faster program that completes more cycles in the same
# time does not move them; generators.* cover one setup.
PER_LAYER = [
    "grid.from_text.busy_s",
    "grid.to_text.busy_s",
    "grid.apply_rule.calls",
    "grid.apply_rule.busy_s",
    "cli.apply_rule.calls",
    "cli.apply_rule.busy_s",
    "grid.is_stable.calls",
    "grid.is_stable.busy_s",
    "tester.double_step_cell.calls",
    "structure.thr2_structure_check.calls",
    "structure.thr2_structure_check.busy_s",
    "structure.thr2_structure_check.self_s",
    "structure.thr2_structure_check.p50_ms",
    "structure.component_distance.calls",
    "structure.component_distance.busy_s",
    "structure.chess_components.busy_s",
    "structure.mono_components.busy_s",
    "structure.majority_structure_check.calls",
    "structure.majority_structure_check.busy_s",
    "tester.run_tester.calls",
    "tester.run_tester.busy_s",
    "tester.run_tester.self_s",
    "tester.run_tester.p50_ms",
    "tester.queries.total",
    "tester.queries_per_test",
    "tester.fallback_ratio",
    "tester.classify_wraparound.calls",
    "tester.classify_wraparound.busy_s",
    "tester.is_violating_pair.calls",
    "tester.is_violating_pair.busy_s",
    "tester.pairs_per_run",
    "tester.cross_region.calls",
    "tester.cross_region.busy_s",
    "tester.perimeter_violation.calls",
    "tester.interior_violation.calls",
    "tester.run_naive_tester.busy_s",
    "stabilizer.stabilize.calls",
    "stabilizer.stabilize.busy_s",
    "stabilizer.stabilize.self_s",
    "stabilizer.stabilize.p50_ms",
    "stabilizer.classify_wraparound.calls",
    "stabilizer.classify_wraparound.busy_s",
    "stabilizer.rectangulate_exempt.busy_s",
    "stabilizer.classify_plus_kind.calls",
    "stabilizer.cross_region.calls",
    "stabilizer.cross_region.busy_s",
    "stabilizer.is_stable.calls",
    "stabilizer.is_stable.busy_s",
    "stabilizer.box_yield",
    "stabilizer.modified_total",
    "generators.gen_stable_thr2.busy_s",
    "generators.gen_hard_thr2.busy_s",
    "generators.perturb.busy_s",
    "cli.step.p50_ms",
    "cli.stable.p50_ms",
    "cli.test.p50_ms",
    "cli.gen.p50_ms",
    "cli.bench.p50_ms",
    "trace.overhead_ratio",
]
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "p50_ms": "ms"}
SPECIAL_UNITS = {
    "tester.queries.total": "count",
    "tester.queries_per_test": "count",
    "tester.fallback_ratio": "ratio",
    "tester.pairs_per_run": "count",
    "stabilizer.box_yield": "ratio",
    "stabilizer.modified_total": "count",
    "trace.overhead_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    return SPECIAL_UNITS.get(name) or UNITS[name.rsplit(".", 1)[1]]


@dataclass
class Cycles:
    latencies: list  # latencies[c][i]: speed-scaled seconds of op i in cycle c
    raw: list  # the same, unscaled
    first: list  # fingerprints of the first cycle
    failed: int

    @property
    def samples(self) -> list:
        return [dt for cycle in self.latencies for dt in cycle]

    @property
    def cycle_s(self) -> list:
        return [sum(cycle) for cycle in self.latencies]

    def ops_per_s(self, latencies=None) -> float:
        """Ops per second of op time, from each op's median over the cycles,
        so that a stall of the machine during one cycle does not count."""
        per_op = [measure.median(col) for col in zip(*(latencies or self.latencies))]
        return len(per_op) / sum(per_op)


def run_cycles(ops, speed: measure.SpeedTrack, seconds: float, min_cycles: int,
               min_ops: int = MIN_OPS, tracer=None) -> Cycles:
    """Run whole cycles until `seconds` passed, at least `min_cycles` cycles
    ran and there are `min_ops` latency samples.

    An op fails when its check raises Mismatch or when its fingerprint differs
    from the one it had in the first cycle.
    """
    latencies: list[list[float]] = []
    raw: list[list[float]] = []
    first: list | None = None
    failed = 0
    start = time.perf_counter()
    while True:
        fingerprints = []
        cycle = [0.0] * len(ops)
        for idx, op in enumerate(ops):
            speed.before_op()
            t0 = time.perf_counter()
            if tracer is None:
                out = op.run()
            else:
                with tracer.span("op/" + op.name):
                    out = op.run()
            speed.timed(t0, time.perf_counter(), cycle, idx)
            try:
                if tracer is None:
                    fp = op.check(out)
                else:
                    with tracer.paused():
                        fp = op.check(out)
            except workloads.Mismatch as exc:
                print(f"perfbench: FAILED {op.name}: {exc}", file=sys.stderr)
                failed += 1
                fp = ["mismatch", str(exc)]
            else:
                if first is not None and fp != first[idx]:
                    print(f"perfbench: FAILED {op.name}: output changed between cycles",
                          file=sys.stderr)
                    failed += 1
            fingerprints.append(fp)
        latencies.append(cycle)
        raw.append(list(cycle))
        if first is None:
            first = fingerprints
        if (time.perf_counter() - start >= seconds and len(latencies) >= min_cycles
                and len(latencies) * len(ops) >= min_ops):
            speed.finish()
            return Cycles(latencies, raw, first, failed)


def _setup(wl, seed: int) -> dict:
    try:
        return wl.setup(seed)
    except InfeasibleSpec as exc:
        raise SystemExit(f"perfbench: refusing to run, infeasible instance spec: {exc}")


def _digest_failures(workload: str, seed: int, got: str) -> int:
    if seed != measure.DEFAULT_SEED:
        return 0
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    bad = measure.digest_failures(stored, workload, got)
    if bad:
        print(f"perfbench: FAILED digest of {workload} at seed {seed}: {got}, "
              f"stored {stored[workload]}", file=sys.stderr)
    return bad


def run_plain(args, scratch: Path, out_dir: Path, info: dict) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    speed = measure.SpeedTrack()
    import_s = [0.0]
    t = time.perf_counter()
    speed.timed(t - info["import_s"], t, import_s, 0)
    setups = [0.0] * SETUP_REPEATS
    for i in range(SETUP_REPEATS):
        speed.before_op()
        t0 = time.perf_counter()
        inputs = _setup(wl, args.seed)
        speed.timed(t0, time.perf_counter(), setups, i)
    raw_setups = list(setups)
    ops = wl.ops(inputs, args.seed, workloads.Counters(), scratch)
    cyc = run_cycles(ops, speed, args.seconds, MIN_CYCLES)
    samples = cyc.samples
    dig = measure.digest(cyc.first)
    failed = cyc.failed + _digest_failures(args.workload, args.seed, dig)
    pct, tail = measure.tail(samples)
    raw = [dt for cycle in cyc.raw for dt in cycle]
    metrics = {
        "ops_per_s": cyc.ops_per_s(),
        "latency_p50_ms": measure.median(samples) * 1000,
        "latency_tail_ms": tail * 1000,
        "setup_s": import_s[0] + measure.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info.update(
        cycles=len(cyc.latencies), ops_per_cycle=len(ops), samples=len(samples),
        tail_percentile=pct, digest=dig, mean_probe_ms=speed.mean_probe() * 1000,
        probes=len(speed.probes),
        unscaled={"ops_per_s": cyc.ops_per_s(cyc.raw),
                  "latency_p50_ms": measure.median(raw) * 1000,
                  "latency_tail_ms": measure.tail(raw)[1] * 1000,
                  "setup_s": info["import_s"] + measure.median(raw_setups)},
        op_median_ms={op.name: measure.median(col) * 1000
                      for op, col in zip(ops, zip(*cyc.raw))},
    )
    if args.record_digest:
        stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        stored[args.workload] = dig
        DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    return _result(failed, len(samples), metrics, END_TO_END.get)


def per_layer_values(tracer, setup_tracer_stats, counters, cycles: int, overhead: float) -> dict:
    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "tester.queries.total": counters.tester_queries / cycles,
        "tester.queries_per_test": ratio(counters.tester_queries, counters.tester_runs),
        "tester.fallback_ratio": ratio(counters.tester_fallbacks, counters.tester_runs),
        "tester.pairs_per_run": ratio(tracer.stat("tester.is_violating_pair").calls,
                                      tracer.stat("tester.run_tester").calls),
        "stabilizer.box_yield": ratio(counters.stabilize_boxes,
                                      tracer.stat("stabilizer.cross_region").calls),
        "stabilizer.modified_total": counters.stabilize_modified / cycles,
        "trace.overhead_ratio": overhead,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        base, field = name.rsplit(".", 1)
        if base.startswith("generators."):
            stat = setup_tracer_stats.get(base)
            out[name] = stat.busy_s if stat else 0.0
        elif field == "p50_ms":
            durations = tracer.durations.get(base) or [0.0]
            out[name] = measure.median(durations) * 1000
        else:
            out[name] = getattr(tracer.stat(base), field) / cycles
    return out


def run_traced(args, scratch: Path, out_dir: Path, info: dict) -> dict:
    wl = workloads.WORKLOADS[args.workload]
    keep = tuple(n[: -len(".p50_ms")] for n in PER_LAYER if n.endswith(".p50_ms"))
    tracer = tracing.Tracer(keep_durations=keep)
    tracer.install()
    try:
        inputs = _setup(wl, args.seed)
    finally:
        tracer.uninstall()
    setup_stats = dict(tracer.stats)
    tracer.reset()
    counters = workloads.Counters()
    ops = wl.ops(inputs, args.seed, counters, scratch)
    speed = measure.SpeedTrack()
    plain = run_cycles(ops, speed, 0, 1, 0)
    counters.reset()
    tracer.install()
    try:
        # Per-layer counts are exact after one cycle, so the traced run needs
        # only --seconds of cycles, not MIN_CYCLES.
        traced = run_cycles(ops, speed, args.seconds, 1, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    cycles = len(traced.latencies)
    dig = measure.digest(traced.first)
    failed = plain.failed + traced.failed + _digest_failures(args.workload, args.seed, dig)
    if plain.first != traced.first:
        print("perfbench: FAILED traced outputs differ from untraced ones", file=sys.stderr)
        failed += 1
    overhead = measure.median(traced.cycle_s) / plain.cycle_s[0]
    metrics = per_layer_values(tracer, setup_stats, counters, cycles, overhead)
    info.update(cycles=cycles, ops_per_cycle=len(ops), digest=dig,
                untraced_cycle_s=plain.cycle_s[0], traced_cycle_s=traced.cycle_s)
    tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed, "cycles": cycles})
    attempted = len(plain.samples) + len(traced.samples)
    return _result(failed, attempted, metrics, per_layer_unit)


def _result(failed: int, attempted: int, metrics: dict, unit_of) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


