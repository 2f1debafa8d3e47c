"""In-memory spans recorded around the benchmark's calls into each layer.

A :class:`Tracer` built with ``enabled=False`` hands out one shared no-op
context manager, so the untraced run pays an attribute lookup per call site
and nothing else.  Enabled, every span records its name, start, end, parent
and the operation (system or request) it belongs to; spans stay in memory
and are written out once the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NO_SPAN = _NoSpan()


class Span:
    """One recorded interval; ``parent`` is the enclosing span's id or None."""

    __slots__ = ("tracer", "op", "id", "parent", "name", "start", "end")

    def __init__(self, tracer: "Tracer", name: str, op: int, parent: Optional[int]):
        self.tracer = tracer
        self.op = op
        self.id = len(tracer.spans)
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        tracer.spans.append(self)

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self.id)
        self.start = self.tracer.clock()
        return self

    def __exit__(self, *exc) -> bool:
        self.end = self.tracer.clock()
        self.tracer._stack.pop()
        return False

    def as_dict(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
        }


class Tracer:
    """Span recorder for one thread of work (one per client connection).

    ``clock`` stamps the spans: process CPU time where the work is one
    compiling thread, wall clock where it waits on a daemon.
    """

    def __init__(self, enabled: bool, clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.clock = clock
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._op = -1

    def operation(self, name: str, op: int):
        """Root span of one system or request; ``op`` ties its subtree together."""
        if not self.enabled:
            return _NO_SPAN
        self._op = op
        return Span(self, name, op, None)

    def span(self, name: str):
        """A layer span nested under whatever span is open."""
        if not self.enabled:
            return _NO_SPAN
        return Span(self, name, self._op, self._stack[-1] if self._stack else None)


def self_times(tracers: Sequence[Tracer]) -> Dict[str, float]:
    """Seconds per span name, minus the time its direct children cover.

    Spans of one tracer nest strictly and siblings never overlap, so the
    children's covered interval is the sum of their durations.
    """
    totals: Dict[str, float] = defaultdict(float)
    for tracer in tracers:
        child_time: Dict[int, float] = defaultdict(float)
        for span in tracer.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for span in tracer.spans:
            totals[span.name] += (span.end - span.start) - child_time[span.id]
    return dict(totals)


def layer_seconds(tracers: Sequence[Tracer]) -> float:
    """Seconds covered by layer spans: every direct child of an operation root."""
    total = 0.0
    for tracer in tracers:
        roots = {span.id for span in tracer.spans if span.parent is None}
        total += sum(s.end - s.start for s in tracer.spans if s.parent in roots)
    return total


def span_cost_seconds(clock: Callable[[], float], samples: int = 20_000) -> float:
    """Measured cost of recording one nested span, for the overhead estimate."""
    tracer = Tracer(True, clock)
    with tracer.operation("calibrate", 0):
        started = clock()
        for _ in range(samples):
            with tracer.span("x"):
                pass
        elapsed = clock() - started
    return elapsed / samples


def write_spans(path: Path, tracers: Sequence[Tracer], header: Dict[str, object]) -> None:
    """Write every span of the run as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        **header,
        "spans": [
            {"thread": thread, **span.as_dict()}
            for thread, tracer in enumerate(tracers)
            for span in tracer.spans
        ],
    }
    path.write_text(json.dumps(document))
