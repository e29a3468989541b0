"""Measurement plumbing shared by the benchmark phases.

Nothing here knows about sparse solvers: an in-memory span recorder
that exports Chrome trace-event JSON, the operation tally behind the
``attempted``/``failed`` counts, and the small statistics helpers the
phases report with.
"""

from __future__ import annotations

import gc
import itertools
import json
import resource
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

_NO_SPAN = nullcontext()


@dataclass(frozen=True)
class Span:
    """One timed call: perf_counter seconds, the causing span and a request id."""

    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: object
    tid: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; a disabled tracer records nothing.

    Spans opened with :meth:`span` nest on the calling thread's stack, so
    only the benchmark's own (main) thread opens them.  Spans measured
    elsewhere — a batch executed on the service's dispatcher thread — are
    added after the fact with :meth:`add`.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count(1)

    def span(self, name: str, rid: object = None):
        if not self.enabled:
            return _NO_SPAN
        return self._open(name, rid)

    @contextmanager
    def _open(self, name: str, rid: object):
        parent = self._stack[-1] if self._stack else None
        sid = next(self._ids)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, rid, 1))

    def add(self, name: str, start: float, end: float, *, rid: object = None,
            tid: int = 1) -> None:
        if self.enabled:
            self.spans.append(Span(next(self._ids), name, start, end, None, rid, tid))

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus what children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            covered = 0.0
            edge = s.start
            for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.name] += s.seconds - covered
        return dict(out)

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.seconds * 1e6,
                "pid": 1,
                "tid": s.tid,
                "args": {"id": s.sid, "parent": s.parent, "rid": s.rid},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failure is an exception, a refusal, a wrong answer or a request
    left unanswered; every one is counted, none is dropped.
    """

    attempted: int = 0
    failed: int = 0
    reasons: Counter = field(default_factory=Counter)

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] += 1

    def fail(self, reason: str) -> None:
        self.record(False, reason)


def same(got, want) -> bool:
    """Bitwise equality of two solutions (shape, dtype and every bit)."""
    return (
        isinstance(got, np.ndarray)
        and got.dtype == want.dtype
        and np.array_equal(got, want)
    )


def pct(values, q: float) -> float:
    """The *q*-th percentile (linear interpolation) of *values*."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def settle() -> None:
    """Collect garbage before a timed stretch.

    Cycles left by earlier stretches (discarded solvers, finished
    services) are freed here rather than inside a timed call.  Nothing
    is frozen: the program's own long-lived heap stays in the
    collector's reach, so its collection cost shows in the timings.
    """
    gc.collect()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
