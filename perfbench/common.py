"""Shared pieces of the benchmark: statistics, fingerprint, tracer, output.

Nothing here imports the program under test at module level, so
``run.py`` can point ``sys.path`` at the checkout's ``src`` before any
``repro`` import happens.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import platform
import statistics
import time
import zlib
from pathlib import Path

#: Scratch directory (inside the checkout) for cache files, spans and
#: per-run detail; listed in the repository's ``.gitignore``.
OUT_DIR = Path(".perfbench")


def nproc() -> int:
    """Cores this process may run on (the load ceiling of every workload)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def derive_seed(seed: int, *labels: object) -> int:
    """A 32-bit seed derived from the run seed and a label path."""
    import numpy as np

    words = [seed & 0xFFFFFFFF] + [
        zlib.crc32(str(label).encode("utf-8")) for label in labels
    ]
    return int(np.random.SeedSequence(words).generate_state(1)[0])


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return float(ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo))


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------


def cpu_probe_ms(iterations: int = 400_000) -> float:
    """Fixed single-thread pure-Python work, timed (median of three).

    The same loop at the start and end of a run: when the two readings
    (or readings across runs) differ, the machine, not the program,
    changed speed.
    """
    laps = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(iterations):
            acc = (acc + i * i) % 1_000_003
        laps.append(time.perf_counter() - start)
    return round(median(laps) * 1e3, 3)


def cpu_ticks() -> "tuple[int, int] | None":
    """(steal, total) jiffies of the whole machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_pct(before, after) -> "float | None":
    """Share of CPU time the hypervisor took from this machine in between."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return round(100.0 * (after[0] - before[0]) / (after[1] - before[1]), 2)


def fingerprint() -> dict:
    import numpy as np
    from repro.engine.vector import kernel_tier_label

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_tier": kernel_tier_label(None),
        "machine": platform.machine(),
    }


# ----------------------------------------------------------------------
# Tracing: spans recorded around calls into the program's layers
# ----------------------------------------------------------------------


class Tracer:
    """In-memory span recorder that wraps functions of the program.

    :meth:`wrap` replaces ``owner.attr`` (a module function, method,
    classmethod or staticmethod) with a timing wrapper; :meth:`restore`
    puts every original back.  Each span records its name, start and
    end (``perf_counter_ns``), its parent span and the operation id
    set by :meth:`begin_op`, so self time (duration minus the part of
    the interval covered by child spans) falls out of the span list.
    Spans nest on one stack, so only single-threaded call paths are
    wrapped.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.op = -1

    def begin_op(self, op: int) -> None:
        self.op = op

    def wrap(self, owner: object, attr: str, name: str) -> None:
        raw = inspect.getattr_static(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        spans, stack, tracer = self.spans, self._stack, self

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, 0, 0, stack[-1] if stack else -1, tracer.op]
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()

        traced.__wrapped__ = func
        setattr(owner, attr, kind(traced) if kind is not None else traced)
        self._patched.append((owner, attr, raw))

    def wrap_async(self, owner: object, attr: str, name: str) -> None:
        """Like :meth:`wrap` for a coroutine method.

        Other calls run while it awaits, so its span is kept off the
        stack: it has no parent and no children, and its self time is
        its whole duration.
        """
        raw = inspect.getattr_static(owner, attr)
        spans, tracer = self.spans, self

        async def traced(*args, **kwargs):
            record = [name, time.perf_counter_ns(), 0, -1, tracer.op]
            spans.append(record)
            try:
                return await raw(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()

        traced.__wrapped__ = raw
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def self_seconds(self, ops: "set[int] | None" = None) -> dict[str, float]:
        """Total self time per span name (optionally for some ops only)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is not None and op not in ops:
                continue
            own = (end - start - child_ns[index]) / 1e9
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        """Write every span out (name, start_ns, end_ns, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                 "spans": self.spans},
                handle,
            )


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


class Result:
    """What a workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.detail: dict = {}

    @property
    def correct(self) -> bool:
        return not self.errors

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def fail(self, message: str, operations: int = 1) -> None:
        """Record a failed check: the operation counts as failed."""
        self.failed += operations
        if len(self.errors) < 20:
            self.errors.append(message)
