"""Tests for the discrete-event kernel."""

import pytest

from repro.simmachine.events import Simulator
from repro.util.errors import SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, lambda: fired.append("b"))
    sim.schedule(1.0, lambda: fired.append("a"))
    sim.schedule(3.0, lambda: fired.append("c"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_same_time_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(1.0, lambda i=i: fired.append(i))
    sim.run()
    assert fired == list(range(10))


def test_now_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_schedule_from_within_callback():
    sim = Simulator()
    fired = []

    def first():
        fired.append(("first", sim.now))
        sim.schedule(1.5, lambda: fired.append(("second", sim.now)))

    sim.schedule(1.0, first)
    sim.run()
    assert fired == [("first", 1.0), ("second", 2.5)]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(10.0, lambda: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0  # advanced exactly to the horizon
    sim.run()  # remaining event still live
    assert fired == [1, 10]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    ev = sim.schedule(1.0, lambda: fired.append("x"))
    sim.schedule(2.0, lambda: fired.append("y"))
    sim.cancel(ev)
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent_and_pending_tracks_live_events():
    sim = Simulator()
    ev = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    sim.cancel(ev)
    sim.cancel(ev)
    assert sim.pending == 1


def test_scheduling_into_the_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_step_returns_false_on_empty_queue():
    sim = Simulator()
    assert sim.step() is False


def test_zero_delay_event_fires_at_current_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_max_events_guard():
    sim = Simulator()

    def loop():
        sim.schedule(0.0, loop)

    sim.schedule(0.0, loop)
    with pytest.raises(SimulationError):
        sim.run(max_events=1000)


# -- the tuple heap keeps the kernel's contract -----------------------------


def test_ties_fire_in_insertion_order_across_interleaved_times():
    sim = Simulator()
    fired = []
    for i in range(12):
        sim.schedule_at(float(i % 3), lambda i=i: fired.append(i))

    def at_one():
        # scheduled for "now" from inside a tie group: runs after the
        # events already queued for this instant
        sim.schedule(0.0, lambda: fired.append("late-1"))

    sim.schedule_at(1.0, at_one)
    sim.run()
    assert fired == [0, 3, 6, 9, 1, 4, 7, 10, "late-1", 2, 5, 8, 11]


def test_cancelled_events_never_fire_and_pending_stays_right():
    sim = Simulator()
    fired = []
    evs = [sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(5)]
    tail = sim.schedule(2.0, lambda: fired.append("tail"))
    sim.cancel(evs[0])          # the heap's head
    sim.cancel(evs[3])
    sim.cancel(evs[3])          # idempotent
    assert sim.pending == 4
    sim.run(until=1.5)
    assert fired == [1, 2, 4]
    assert sim.pending == 1
    sim.cancel(tail)
    assert sim.pending == 0
    assert not sim.step()
    assert fired == [1, 2, 4]


def test_scrambled_tie_order_is_pinned():
    # Tie keys come from integer splitmix64 alone, so this order is the
    # same on every Python version and platform.
    from repro.simmachine.events import ScrambledTieSimulator

    sim = ScrambledTieSimulator(seed=7)
    fired = []
    for i in range(8):
        sim.schedule(1.0, lambda i=i: fired.append(i))
    sim.schedule(0.5, lambda: fired.append("early"))
    sim.schedule(2.0, lambda: fired.append("late"))
    sim.run()
    assert fired == ["early", 7, 1, 6, 3, 0, 5, 4, 2, "late"]
