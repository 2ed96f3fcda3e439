"""Discrete-event simulation kernel.

A minimal, deterministic event queue: events are ordered by (time, sequence
number) so same-time events fire in scheduling order.  The heap holds
``(time, seq, event)`` tuples, so its comparisons run in C.  All higher layers
(processes, thermal sampling, MPI transfers) are built on this kernel; no
component of the simulation ever reads the wall clock.

Two opt-in variants support the determinism detector
(:mod:`repro.check.determinism`):

* :class:`InstrumentedSimulator` records every group of events that fired
  at the same simulated time, with the call site that scheduled each —
  the raw material for flagging unstable tie-breaks.
* :class:`ScrambledTieSimulator` replaces the insertion-order tie-break
  with a seeded hash of the insertion index.  Running the same scenario
  under several scramble seeds and comparing results separates genuinely
  commuting same-time events from ones whose order silently matters.
"""

from __future__ import annotations

import heapq
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from repro.util.errors import SimulationError


@dataclass
class Event:
    """A scheduled callback.

    The queue orders events by ``(time, seq)`` so that insertion order
    breaks ties deterministically.  Cancelled events stay in the heap but
    are skipped when popped (lazy deletion).
    """

    time: float
    seq: int
    callback: Callable[[], None]
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark this event so the simulator skips it."""
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event simulator.

    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append("b"))
    >>> _ = sim.schedule(1.0, lambda: fired.append("a"))
    >>> sim.run()
    >>> fired
    ['a', 'b']
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._heap: list[tuple[float, int, Event]] = []
        self._live = 0  # non-cancelled events in the heap

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return self._live

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule *callback* at absolute simulated time *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        return self._push(float(time), self._seq, callback)

    def _push(self, time: float, key: int,
              callback: Callable[[], None]) -> Event:
        """Queue *callback* at *time*, ties broken by the unique *key*."""
        ev = Event(time, key, callback)
        self._seq += 1
        heapq.heappush(self._heap, (time, key, ev))
        self._live += 1
        return ev

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def step(self) -> bool:
        """Fire the next live event.  Returns False if the queue is empty."""
        heap = self._heap
        while heap:
            time, _, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            self._live -= 1
            self._now = time
            ev.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run until the queue drains, or simulated time passes *until*.

        When *until* is given, time is advanced to exactly *until* even if
        the last event fires earlier, so periodic observers see a full
        window.  ``max_events`` guards against runaway event loops.
        """
        count = 0
        while self._heap:
            nxt = self._peek_time()
            if nxt is None:
                break
            if until is not None and nxt > until:
                break
            if not self.step():
                break
            count += 1
            if count > max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and self._now < until:
            self._now = float(until)

    def _peek_time(self) -> Optional[float]:
        """Time of the next live event, skipping cancelled heads."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None


# ----------------------------------------------------------------------
# Determinism-detector variants


def _schedule_origin() -> str:
    """The call site that scheduled an event: first frame outside this
    module, as ``module:function`` (stable across runs, unlike ids)."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        frame = frame.f_back
    if frame is None:
        return "<unknown>"
    return f"{frame.f_globals.get('__name__', '?')}:{frame.f_code.co_name}"


@dataclass(frozen=True)
class TieGroup:
    """Events that fired at one identical simulated time, in fire order."""

    time: float
    origins: tuple[str, ...]

    @property
    def cross_site(self) -> bool:
        """True when the tie spans distinct scheduling call sites —
        the only ties whose order *could* encode a hidden dependency
        (same-site ties are ordered loop iterations by construction)."""
        return len(set(self.origins)) >= 2


class InstrumentedSimulator(Simulator):
    """A :class:`Simulator` that records same-time tie groups.

    Every scheduled event is tagged with its scheduling call site; as
    events fire, consecutive events at one simulated time are collected
    into :class:`TieGroup` entries (``ties``).  Pure observation — event
    order is exactly the base simulator's.
    """

    def __init__(self) -> None:
        super().__init__()
        self.ties: list[TieGroup] = []
        self._group_time: Optional[float] = None
        self._group: list[str] = []

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> Event:
        origin = _schedule_origin()

        def fire(t: float = float(time), origin: str = origin,
                 callback: Callable[[], None] = callback) -> None:
            self._record_fire(t, origin)
            callback()

        ev = super().schedule_at(time, fire)
        ev.origin = origin   # Event is a plain dataclass; tag rides along
        return ev

    def _record_fire(self, t: float, origin: str) -> None:
        if t == self._group_time:
            self._group.append(origin)
            return
        self._flush_group()
        self._group_time = t
        self._group = [origin]

    def _flush_group(self) -> None:
        if len(self._group) >= 2:
            self.ties.append(
                TieGroup(time=self._group_time, origins=tuple(self._group))
            )
        self._group = []
        self._group_time = None

    def finish(self) -> list[TieGroup]:
        """Close the trailing group and return every recorded tie."""
        self._flush_group()
        return list(self.ties)

    def cross_site_ties(self) -> list[TieGroup]:
        """Recorded ties spanning distinct scheduling call sites."""
        return [g for g in self.finish() if g.cross_site]


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a seeded bijection on 64-bit ints."""
    x &= 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class ScrambledTieSimulator(Simulator):
    """A :class:`Simulator` whose same-time tie-break is a seeded hash.

    Events still fire in non-decreasing time order, but ties resolve by
    ``splitmix64(seed + insertion_index)`` instead of insertion order —
    every seed yields a different (deterministic) permutation of each tie
    group.  A scenario whose observable result is identical across seeds
    has no hidden order dependence; one that diverges does.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self._scramble_seed = _mix64(int(seed) * 0x9E3779B97F4A7C15 + 1)

    def schedule_at(self, time: float,
                    callback: Callable[[], None]) -> Event:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        return self._push(float(time), _mix64(self._scramble_seed ^ self._seq),
                          callback)
