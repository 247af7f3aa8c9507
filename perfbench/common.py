"""Helpers shared by the benchmark workloads: timing summaries, process
accounting read from ``/proc``, and the in-memory span recorder of the
traced run.

Nothing here imports ``repro``; the workload modules do, after
``run.py`` has put the checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Tail percentiles considered for the "highest percentile with at least
#: ten samples beyond it" report, lowest first.
TAIL_PERCENTILES = (90.0, 95.0, 99.0, 99.9)


class CheckFailed(Exception):
    """A correctness check rejected the program's output."""


def median(values) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of already-sorted values."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    rank = max(1, int(round(pct / 100.0 * len(sorted_values) + 0.4999)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail(values: list[float]) -> dict | None:
    """The highest tail percentile with at least ten samples beyond it.

    Returns None with fewer than forty samples: a percentile with fewer
    than ten samples above it is no tail.
    """
    if len(values) < 40:
        return None
    ordered = sorted(values)
    best = None
    for pct in TAIL_PERCENTILES:
        beyond = len(ordered) - int(pct / 100.0 * len(ordered))
        if beyond >= 10:
            best = {
                "percentile": pct,
                "value": percentile(ordered, pct),
                "beyond": beyond,
                "samples": len(ordered),
            }
    return best


#: Median seconds of one calibration unit of each kind on the reference
#: machine of the README; calibrated times are reported at this speed.
CALIBRATION_REFERENCE_S = {"python": 0.0065, "numpy": 0.016}

#: The calibrator: a process of its own with a small, steady heap, so
#: that what it measures is the machine and not the state of the process
#: that asks.  Each line it reads names a kind of work, and it answers
#: with the median seconds of seven units of it: fixed pure-Python work
#: (dicts, strings, JSON, a sort) or fixed NumPy work (unique, argsort,
#: bincount, searchsorted over 40,000 integers).
_CALIBRATOR_SOURCE = """
import gc, json, sys, time
import numpy as np
gc.disable()
def python_unit():
    rows = [{"id": i, "name": f"v{i % 97}", "w": (i * 2654435761) % 1000003}
            for i in range(2000)]
    rows = json.loads(json.dumps(rows))
    rows.sort(key=lambda row: (row["w"], row["name"]))
    total = 0
    for row in rows:
        total ^= row["w"] + row["id"]
    return total
rng = np.random.default_rng(0)
A = rng.integers(0, 1 << 16, 40_000)
B = rng.integers(0, 5000, 40_000)
def numpy_unit():
    values, _ = np.unique(A, return_counts=True)
    order = np.argsort(B, kind="stable")
    keys = A[order] * 5000 + B[order]
    return (int(np.bincount(B).max()) + len(np.unique(keys))
            + int(np.searchsorted(values, keys[:1000]).sum()))
UNITS = {"python": python_unit, "numpy": numpy_unit}
for line in sys.stdin:
    unit = UNITS[line.strip()]
    samples = []
    for _ in range(7):
        started = time.perf_counter()
        unit()
        samples.append(time.perf_counter() - started)
    samples.sort()
    sys.stdout.write(repr(samples[3]) + "\\n")
    sys.stdout.flush()
"""
_calibrator: subprocess.Popen | None = None


@contextlib.contextmanager
def calibrator():
    """Run the calibrator process for the duration of the block."""
    global _calibrator
    _calibrator = subprocess.Popen(
        [sys.executable, "-c", _CALIBRATOR_SOURCE],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        yield
    finally:
        proc, _calibrator = _calibrator, None
        proc.stdin.close()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def slowdown(kind: str) -> float:
    """How much slower than the reference machine this one runs right now.

    On the 2-vCPU VM of the README the speed of the same work drifts by a
    fifth to a third over minutes, in process CPU time as much as in wall
    time, while two measurements a moment apart agree far better.  Pure
    Python and NumPy work drift differently, so ``kind`` names the one
    the timed work is made of: ``"python"`` for a server answering
    requests, ``"numpy"`` for a statistics build or an update batch.
    """
    _calibrator.stdin.write(kind + "\n")
    _calibrator.stdin.flush()
    return (float(_calibrator.stdout.readline())
            / CALIBRATION_REFERENCE_S[kind])


class Calibrated:
    """The slowdown for ``kind`` of work measured on both sides of a span."""

    def __init__(self, kind: str) -> None:
        self.kind = kind

    def __enter__(self) -> "Calibrated":
        self.before = slowdown(self.kind)
        return self

    def __exit__(self, *exc) -> None:
        self.factor = (self.before + slowdown(self.kind)) / 2.0

    def scaled(self, seconds: float) -> float:
        """``seconds`` measured inside the span, at the reference speed."""
        return seconds / self.factor


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds a process has used (``/proc/<pid>/stat``)."""
    text = Path(f"/proc/{pid}/stat").read_text()
    # The command name may hold spaces; the fields after it are fixed.
    fields = text[text.rindex(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def tree_mib(directory: Path) -> float:
    """Bytes of every regular file under ``directory``, in MiB."""
    total = 0
    for root, _dirs, files in os.walk(directory):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total / (1024.0 * 1024.0)


class SpanRecorder:
    """In-memory spans around calls into the program's layers.

    Each span is ``(name, start, seconds, attrs)``; nothing touches the
    disk until :meth:`write` at the end of the run, so recording costs
    one ``perf_counter`` pair and a list append per call.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, dict]] = []
        self.counts: dict[str, float] = defaultdict(float)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(
                (name, started, time.perf_counter() - started, {})
            )

    def add(self, name: str, started: float, seconds: float, **attrs) -> None:
        """Record a span measured by the caller."""
        self.spans.append((name, started, seconds, attrs))

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a per-run counter."""
        self.counts[name] += amount

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``."""
        return [span[2] for span in self.spans if span[0] == name]

    def p50(self, name: str, scale: float) -> float:
        """Median span duration times ``scale`` (0.0 when never called)."""
        values = self.durations(name)
        return median(values) * scale if values else 0.0

    def wrap(self, owner, attribute: str, name: str):
        """Replace ``owner.attribute`` by a timing and counting wrapper.

        Returns a callable that restores the original attribute.
        """
        original = getattr(owner, attribute)
        recorder = self

        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                recorder.spans.append(
                    (name, started, time.perf_counter() - started, {})
                )

        setattr(owner, attribute, wrapper)
        return lambda: setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write every span and counter as NDJSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for name, started, seconds, attrs in self.spans:
                handle.write(json.dumps({
                    "type": "span", "name": name, "start": started,
                    "ms": seconds * 1000.0, **attrs,
                }) + "\n")
            handle.write(json.dumps({
                "type": "counters", "counts": dict(self.counts),
            }) + "\n")


def qerror_log10(estimates, truths) -> float:
    """Mean log10 q-error, ``max(e/t, t/e)`` with both floored at 1."""
    import math

    total = 0.0
    for estimate, truth in zip(estimates, truths, strict=True):
        estimate, truth = max(float(estimate), 1.0), max(float(truth), 1.0)
        total += abs(math.log10(estimate / truth))
    return total / len(truths)
