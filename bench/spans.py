"""In-memory span recorder for the traced benchmark run.

A span brackets one public call into a layer: a name, a start and end
from a ``perf_counter_ns`` pair, the span that caused it, the workload
and unit it belongs to, and free-form counts.  Spans stay in memory and
are written once, when the run ends.  A layer's *self time* is its
span's duration minus the part of that interval its child spans cover.

Untraced runs hand the workloads :data:`NULL` instead of a
:class:`SpanRecorder`; its ``span`` returns one shared do-nothing
context, so no recorder code runs inside timed units.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Optional


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int = 0
    parent: Optional[int] = None
    workload: str = ""
    unit: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "parent": self.parent,
            "workload": self.workload,
            "unit": self.unit,
            "counts": dict(self.counts),
        }


class SpanRecorder:
    """Records nested spans from one thread; ``workload``/``unit`` tag
    every span opened while they are set."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.workload = ""
        self.unit: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, **counts):
        idx = len(self.spans)
        sp = Span(name, perf_counter_ns(),
                  parent=self._stack[-1] if self._stack else None,
                  workload=self.workload, unit=self.unit, counts=counts)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end_ns = perf_counter_ns()
            self._stack.pop()


class _NullSpans:
    """Stand-in recorder for untraced runs: every span is a no-op."""

    _CTX = contextlib.nullcontext()

    def span(self, name: str, **counts):
        return self._CTX


NULL = _NullSpans()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's self time in seconds, index-aligned with *spans*.

    Child intervals are clipped to the parent and unioned, so children
    that overlap each other are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start_ns, sp.end_ns))
    out = []
    for i, sp in enumerate(spans):
        covered, hi = 0, sp.start_ns
        for lo, end in sorted(children.get(i, ())):
            lo, end = max(lo, hi), min(end, sp.end_ns)
            if end > lo:
                covered += end - lo
                hi = end
        out.append((sp.end_ns - sp.start_ns - covered) / 1e9)
    return out


def self_time_table(spans: list[Span]) -> dict[str, dict]:
    """Per span name: occurrences, total duration and total self time."""
    table: dict[str, dict] = {}
    for sp, own in zip(spans, self_times(spans)):
        row = table.setdefault(sp.name, {"n": 0, "total_s": 0.0, "self_s": 0.0})
        row["n"] += 1
        row["total_s"] += sp.seconds
        row["self_s"] += own
    return table


def spans_document(spans: list[Span]) -> dict:
    """The JSON-ready span dump: every span plus the self-time table."""
    return {
        "spans": [sp.to_dict() for sp in spans],
        "self_times": self_time_table(spans),
    }
