"""Statistics, output digests and the environment record of a run."""

from __future__ import annotations

import bisect
import gc
import hashlib
import json
import os
import platform
import statistics
import time
from collections import deque
from importlib import metadata
from pathlib import Path

DEFAULT_SEED = 0  # the seed whose output digests are stored in digests.json
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def tail(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value), where value is the sample with exactly
    TAIL_BEYOND samples above it in sorted order; None for fewer than
    TAIL_BEYOND + 1 samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples)


# The benchmark runs on shared machines whose speed changes under it.  On the
# 2-vCPU machine it was written on, a fixed pure-Python task takes either about
# 3.7 ms or about 5.7 ms, switching every few tens of milliseconds, and the
# share of slow time drifts over seconds to minutes (the mean probe time of a
# run ranged from 3.3 to 6.6 ms within one hour); identical work slows with
# it, and repetition inside a run cannot remove that.  So the harness times a
# probe -- a fixed task that uses no torustab code -- between the timed ops,
# and scales each op's time by PROBE_REF_S / (mean probe time around the op).
# Timings are thus in milliseconds (or seconds) on a machine where the probe
# takes PROBE_REF_S; the unscaled values are printed beside them.  The probe
# runs with the garbage collector off, so the number of objects the program
# keeps alive does not slow it.
PROBE_REF_S = 0.005
PROBE_SIDE = 64


def probe_once() -> float:
    """Seconds for a breadth-first search over a PROBE_SIDE^2 torus written
    with the tuples, sets, dicts and deques that torustab's loops use."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        m = n = PROBE_SIDE
        dist = {(0, 0): 0}
        queue = deque([(0, 0)])
        while queue:
            i, j = queue.popleft()
            for c in (((i + 1) % m, j), ((i - 1) % m, j), (i, (j + 1) % n), (i, (j - 1) % n)):
                if c not in dist:
                    dist[c] = dist[(i, j)] + 1
                    queue.append(c)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedTrack:
    """Probes taken between timed ops, and the scaling of each op's time.

    Before an op, one probe is taken per INTERVAL_S elapsed since the last
    probes (at most MAX_BURST), so probes cover the run evenly in time.  An
    op timed over [t0, t1] is scaled by the mean of the probes taken within
    WINDOW_S of that interval; the probes after it are taken before the next
    op, or by `finish`.
    """

    INTERVAL_S = 0.2
    MAX_BURST = 20
    WINDOW_S = 0.5

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (time taken, seconds)
        self._ops: list[tuple[float, float, list, int]] = []  # (t0, t1, out, slot)
        self._burst(5)

    def _burst(self, count: int) -> None:
        for _ in range(count):
            self.probes.append((time.perf_counter(), probe_once()))
        self._last = time.perf_counter()

    def before_op(self) -> None:
        due = int((time.perf_counter() - self._last) / self.INTERVAL_S)
        if due:
            self._burst(min(due, self.MAX_BURST))

    def timed(self, t0: float, t1: float, out: list, slot: int) -> None:
        """Record an op timed from t0 to t1; its scaled time lands in out[slot]
        when `finish` runs, and its raw time there until then."""
        out[slot] = t1 - t0
        self._ops.append((t0, t1, out, slot))

    def finish(self) -> None:
        """Take closing probes and scale every recorded op."""
        self._burst(5)
        times = [t for t, _ in self.probes]
        for t0, t1, out, slot in self._ops:
            lo = bisect.bisect_left(times, t0 - self.WINDOW_S)
            hi = bisect.bisect_right(times, t1 + self.WINDOW_S)
            near = [p for _, p in self.probes[lo:hi]]
            out[slot] = (t1 - t0) * PROBE_REF_S / statistics.fmean(near)
        self._ops.clear()

    def mean_probe(self) -> float:
        return statistics.fmean(p for _, p in self.probes)


def digest(fingerprints) -> str:
    """sha256 of the canonical JSON of a cycle's op fingerprints."""
    text = json.dumps(fingerprints, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def digest_failures(stored: dict, workload: str, got: str) -> int:
    """1 when a digest is stored for the workload and differs from `got`."""
    want = stored.get(workload)
    return int(want is not None and want != got)


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from the files; None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        return None
    return None


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "loadavg_at_start": list(os.getloadavg()),
    }
