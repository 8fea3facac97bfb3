"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402


def test_tail_needs_eleven_samples():
    assert measure.tail([]) is None
    assert measure.tail([float(i) for i in range(10)]) is None
    pct, value = measure.tail([float(i) for i in range(11)])
    assert value == 0.0
    assert pct == pytest.approx(100 / 11)


def test_tail_leaves_ten_samples_beyond():
    samples = [float(i) for i in range(1, 1001)]
    pct, value = measure.tail(samples[::-1])
    assert pct == 99.0
    assert value == 990.0
    assert sum(s > value for s in samples) == measure.TAIL_BEYOND


def test_digest_mismatch_is_a_failure():
    got = measure.digest([["a", 1], True])
    assert measure.digest_failures({"w": got}, "w", got) == 0
    assert measure.digest_failures({"w": got}, "w", measure.digest([["a", 2], True])) == 1
    assert measure.digest_failures({}, "w", got) == 0


def test_digest_is_canonical():
    assert measure.digest({"b": 1, "a": [1, 2]}) == measure.digest({"a": [1, 2], "b": 1})


def _snapshot():
    snap = {}
    for module, path, _ in tracing.WRAP_POINTS:
        owner, attr = tracing.resolve_owner(module, path)
        snap[(module, path)] = (owner, vars(owner)[attr])
    return snap


def test_wrappers_restore_attributes():
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    installed = _snapshot()
    assert all(installed[key][1] is not raw for key, (_, raw) in before.items())
    tracer.uninstall()
    after = _snapshot()
    assert all(after[key][1] is raw for key, (_, raw) in before.items())


def test_wrappers_record_calling_module():
    from torustab import generators, grid, stabilizer

    tracer = tracing.Tracer(keep_durations=("stabilizer.stabilize",))
    tracer.install()
    try:
        cfg = generators.gen_stable_thr2(generators.GenSpec(16, 16, rects=2, seed=1))
        stabilizer.stabilize(cfg, 0.5)
        text = cfg.to_text()
        assert grid.TorusConfig.from_text(text) == cfg
    finally:
        tracer.uninstall()
    assert tracer.stat("generators.gen_stable_thr2").calls == 1
    assert tracer.stat("stabilizer.stabilize").calls == 1
    assert tracer.stat("stabilizer.classify_wraparound").calls == 16 * 16
    assert tracer.stat("stabilizer.is_stable").calls >= 1
    assert tracer.stat("grid.from_text").calls == 1
    assert len(tracer.durations["stabilizer.stabilize"]) == 1
    stab = tracer.stat("stabilizer.stabilize")
    assert 0 < stab.self_s <= stab.busy_s
    names = {span[3] for span in tracer.spans}
    assert "tester.classify_wraparound" not in names


def test_nested_calls_of_one_name_count_busy_once():
    tracer = tracing.Tracer()

    def outer(depth):
        if depth:
            inner(depth - 1)

    inner = tracer.wrap("f", outer)
    inner(3)
    stat = tracer.stat("f")
    assert stat.calls == 4
    root = [s for s in tracer.spans if s[1] == 0]
    assert len(root) == 1
    assert stat.busy_s == pytest.approx(root[0][5] - root[0][4])


def test_paused_tracer_records_nothing():
    tracer = tracing.Tracer()
    f = tracer.wrap("f", lambda: 1)
    with tracer.paused():
        f()
    assert tracer.stat("f").calls == 0


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == harness.PER_LAYER
    assert all(m["unit"] == harness.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(harness.workloads.WORKLOADS)
