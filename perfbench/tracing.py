"""Span tracing from outside the package.

Each traced function is wrapped where it is looked up: the attribute of the
calling module (or class, or click command) is replaced by a wrapper, so a
metric is named after the module whose code makes the call.  For example
`torustab.stabilizer.classify_wraparound` is traced as
`stabilizer.classify_wraparound`, while the same function reached through
`torustab.tester` is `tester.classify_wraparound`.

Spans (id, parent, root, name, start, end) stay in memory and are written out
when the run ends.  Per-name totals are kept for every call; the span list
itself is capped so that hot functions called millions of times do not
exhaust memory.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass

# (module, attribute path inside the module, metric name).  An attribute path
# "TorusConfig.from_text" patches the class attribute; "step.callback" patches
# the callback of the click command `torustab.cli.step`.
WRAP_POINTS = [
    ("torustab.grid", "TorusConfig.from_text", "grid.from_text"),
    ("torustab.grid", "TorusConfig.to_text", "grid.to_text"),
    ("torustab.grid", "apply_rule", "grid.apply_rule"),
    ("torustab.grid", "is_stable", "grid.is_stable"),
    ("torustab.structure", "thr2_structure_check", "structure.thr2_structure_check"),
    ("torustab.structure", "majority_structure_check", "structure.majority_structure_check"),
    ("torustab.structure", "component_distance", "structure.component_distance"),
    ("torustab.structure", "chess_components", "structure.chess_components"),
    ("torustab.structure", "mono_components", "structure.mono_components"),
    ("torustab.tester", "run_tester", "tester.run_tester"),
    ("torustab.tester", "run_naive_tester", "tester.run_naive_tester"),
    ("torustab.tester", "double_step_cell", "tester.double_step_cell"),
    ("torustab.tester", "classify_wraparound", "tester.classify_wraparound"),
    ("torustab.tester", "is_violating_pair", "tester.is_violating_pair"),
    ("torustab.tester", "cross_region", "tester.cross_region"),
    ("torustab.tester", "perimeter_violation", "tester.perimeter_violation"),
    ("torustab.tester", "interior_violation", "tester.interior_violation"),
    ("torustab.stabilizer", "stabilize", "stabilizer.stabilize"),
    ("torustab.stabilizer", "classify_wraparound", "stabilizer.classify_wraparound"),
    ("torustab.stabilizer", "rectangulate_exempt", "stabilizer.rectangulate_exempt"),
    ("torustab.stabilizer", "classify_plus_kind", "stabilizer.classify_plus_kind"),
    ("torustab.stabilizer", "cross_region", "stabilizer.cross_region"),
    ("torustab.stabilizer", "is_stable", "stabilizer.is_stable"),
    ("torustab.generators", "gen_stable_thr2", "generators.gen_stable_thr2"),
    ("torustab.generators", "gen_stable_majority", "generators.gen_stable_majority"),
    ("torustab.generators", "gen_hard_thr2", "generators.gen_hard_thr2"),
    ("torustab.generators", "perturb", "generators.perturb"),
    ("torustab.cli", "apply_rule", "cli.apply_rule"),
    ("torustab.cli", "step.callback", "cli.step"),
    ("torustab.cli", "stable.callback", "cli.stable"),
    ("torustab.cli", "test.callback", "cli.test"),
    ("torustab.cli", "gen.callback", "cli.gen"),
    ("torustab.cli", "bench.callback", "cli.bench"),
]


def resolve_owner(module: str, path: str):
    """The object holding the patched attribute, and the attribute's name."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


@dataclass
class Stat:
    calls: int = 0
    busy_s: float = 0.0  # outermost activations only, so recursion is not double counted
    self_s: float = 0.0  # span time not covered by child spans


class Tracer:
    """Collects spans and per-name totals from the installed wrappers."""

    SPAN_CAP = 100_000  # spans kept for the trace file; totals cover every call

    def __init__(self, keep_durations: tuple[str, ...] = ()) -> None:
        self.enabled = True
        self.keep_durations = set(keep_durations)
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.durations: dict[str, list[float]] = {n: [] for n in self.keep_durations}
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.dropped_spans = 0
        self._stack: list[list] = []  # [id, root, name, start, child_time]
        self._depth: dict[str, int] = {}
        self._next_id = 1

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> None:
        span_id = self._next_id
        self._next_id += 1
        root = self._stack[-1][1] if self._stack else span_id
        self._depth[name] = self._depth.get(name, 0) + 1
        self._stack.append([span_id, root, name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        span_id, root, name, start, child = self._stack.pop()
        dur = end - start
        parent = 0
        if self._stack:
            self._stack[-1][4] += dur
            parent = self._stack[-1][0]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.self_s += dur - child
        self._depth[name] -= 1
        if self._depth[name] == 0:
            stat.busy_s += dur
        if name in self.durations:
            self.durations[name].append(dur)
        if len(self.spans) < self.SPAN_CAP:
            self.spans.append((span_id, parent, root, name, start, end))
        else:
            self.dropped_spans += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around harness code, such as one benchmark op."""
        if not self.enabled:
            yield
            return
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    @contextlib.contextmanager
    def paused(self):
        """Suspend recording, e.g. while the harness verifies an output."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return traced

    # -- installing wrappers ---------------------------------------------

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("wrappers are already installed")
        for module, path, name in WRAP_POINTS:
            owner, attr = resolve_owner(module, path)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__))
            else:
                new = self.wrap(name, raw)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------

    def stat(self, name: str) -> Stat:
        return self.stats.get(name, Stat())

    def write(self, path, extra: dict) -> None:
        """Write the spans and per-name totals as JSON."""
        payload = {
            **extra,
            "spans_fields": ["id", "parent", "root", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
            "totals": {
                name: {"calls": s.calls, "busy_s": s.busy_s, "self_s": s.self_s}
                for name, s in sorted(self.stats.items())
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
