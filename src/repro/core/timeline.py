"""Per-node call-timeline aggregates.

This is the capability that forced the paper away from gprof (§3.1): gprof
buckets time per function, but Tempest needs to know *which function was
executing at time X* so temperature samples can be attributed to source
code.  The profile engine (:class:`repro.core.streamprof.ProfileAccumulator`)
answers that question while it replays each process's ENTER/EXIT stream,
and folds the answers into per-function aggregates as frames close.  A
:class:`Timeline` is what a node profile keeps of it:

* per-function *inclusive* time as the union of its activations (so
  recursion — micro-benchmark E — never double-counts),
* per-function *exclusive* (self) time, the time it was top of a stack,
* dynamic call counts and the exact caller→callee arcs,
* the span from the first ENTER to the last close.
"""

from __future__ import annotations

from typing import Optional


class Timeline:
    """Reconstructed call-timeline aggregates for one node."""

    def __init__(
        self,
        exclusive_s: dict[str, float],
        call_counts: dict[str, int],
        arcs: Optional[dict[tuple[str, str], int]] = None,
        span: tuple[float, float] = (0.0, 0.0),
        *,
        inclusive_s: Optional[dict[str, float]] = None,
    ):
        self._exclusive = exclusive_s
        self._calls = call_counts
        self._inclusive = inclusive_s or {}
        #: exact caller->callee dynamic-call counts ("<root>" for top-level)
        self.arcs: dict[tuple[str, str], int] = arcs or {}
        #: (first ENTER, last close) across all processes
        self.span = span

    def function_names(self) -> list[str]:
        """Functions observed, ordered by decreasing inclusive time."""
        return sorted(self._inclusive, key=self.inclusive_time, reverse=True)

    def inclusive_time(self, name: str) -> float:
        """Union duration of all activations (recursion-safe)."""
        return self._inclusive.get(name, 0.0)

    def exclusive_time(self, name: str) -> float:
        """Self time: duration this function was top of some stack."""
        return self._exclusive.get(name, 0.0)

    def call_count(self, name: str) -> int:
        """Number of dynamic activations."""
        return self._calls.get(name, 0)
