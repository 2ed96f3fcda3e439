"""Tests for call-timeline reconstruction, including the Table 1 micro
shapes: interleaving (D) and recursion + interleaving (E).

Aggregates (times, calls, arcs, span) and strict errors are asserted on
the parser; per-interval output — activations, depths, top-of-stack
segments, point queries — on the post-mortem oracle, which keeps it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parser import TempestParser
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_ENTER,
    REC_EXIT,
    NodeTrace,
    TraceBundle,
)
from repro.util.errors import TraceError
from tests.core.oracle import build_timeline
from tests.rows import Row, to_array


def make_records(events, sym, pid=1, hz=1e9):
    """events: list of (kind, name, seconds) -> a record array."""
    return to_array(
        Row(kind, sym.address_of(name), int(t * hz), 0, pid)
        for kind, name, t in events
    )


def parse_records(recs, sym, strict=True):
    """The parser's timeline of one node holding *recs*."""
    trace = NodeTrace("n", 1e9, [])
    trace.extend_columns(recs)
    parser = TempestParser(TraceBundle(sym), strict=strict)
    return parser.parse_node(trace).timeline


def build(events, strict=True, pid=1):
    sym = SymbolTable()
    return parse_records(make_records(events, sym, pid=pid), sym, strict)


def build_oracle(events, strict=True, pid=1):
    sym = SymbolTable()
    recs = make_records(events, sym, pid=pid)
    return build_timeline(recs, sym, lambda tsc: tsc / 1e9, strict=strict)


def test_single_function():
    tl = build([
        (REC_ENTER, "main", 0.0),
        (REC_EXIT, "main", 10.0),
    ])
    assert tl.inclusive_time("main") == pytest.approx(10.0)
    assert tl.exclusive_time("main") == pytest.approx(10.0)
    assert tl.call_count("main") == 1
    assert tl.span == (0.0, 10.0)


def test_nested_calls_inclusive_vs_exclusive():
    tl = build([
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "foo1", 1.0),
        (REC_EXIT, "foo1", 8.0),
        (REC_EXIT, "main", 10.0),
    ])
    assert tl.inclusive_time("main") == pytest.approx(10.0)
    assert tl.exclusive_time("main") == pytest.approx(3.0)
    assert tl.inclusive_time("foo1") == pytest.approx(7.0)
    assert tl.exclusive_time("foo1") == pytest.approx(7.0)


def test_interleaving_micro_d_shape():
    """main -> foo1 -> foo2, then main -> foo2 (Table 1, benchmark D)."""
    events = [
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "foo1", 1.0),
        (REC_ENTER, "foo2", 2.0),
        (REC_EXIT, "foo2", 3.0),
        (REC_EXIT, "foo1", 5.0),
        (REC_ENTER, "foo2", 6.0),
        (REC_EXIT, "foo2", 7.5),
        (REC_EXIT, "main", 10.0),
    ]
    tl = build(events)
    assert tl.inclusive_time("foo2") == pytest.approx(2.5)
    assert tl.call_count("foo2") == 2
    assert tl.inclusive_time("foo1") == pytest.approx(4.0)
    assert tl.exclusive_time("foo1") == pytest.approx(3.0)
    assert tl.exclusive_time("main") == pytest.approx(4.5)
    # Depths recorded correctly.
    depths = {(iv.name, iv.depth) for iv in build_oracle(events).intervals}
    assert ("main", 0) in depths
    assert ("foo1", 1) in depths
    assert ("foo2", 2) in depths and ("foo2", 1) in depths


def test_recursion_micro_e_no_double_count():
    """Recursive activations overlap; inclusive time is the union."""
    tl = build([
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "fib", 1.0),
        (REC_ENTER, "fib", 2.0),
        (REC_ENTER, "fib", 3.0),
        (REC_EXIT, "fib", 4.0),
        (REC_EXIT, "fib", 5.0),
        (REC_EXIT, "fib", 6.0),
        (REC_EXIT, "main", 7.0),
    ])
    assert tl.inclusive_time("fib") == pytest.approx(5.0)  # union, not 3+2+1... = 9
    assert tl.call_count("fib") == 3
    # All fib self time: 1..6 minus nothing (fib is its own child).
    assert tl.exclusive_time("fib") == pytest.approx(5.0)


def test_active_at_and_contains():
    tl = build_oracle([
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "foo", 2.0),
        (REC_EXIT, "foo", 4.0),
        (REC_EXIT, "main", 6.0),
    ])
    assert set(tl.active_at(3.0)) == {"main", "foo"}
    assert set(tl.active_at(5.0)) == {"main"}
    assert tl.contains("foo", 2.0) and tl.contains("foo", 4.0)
    assert not tl.contains("foo", 4.5)
    assert not tl.contains("nope", 1.0)


def test_top_segments_sequence():
    tl = build_oracle([
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "foo", 2.0),
        (REC_EXIT, "foo", 4.0),
        (REC_EXIT, "main", 6.0),
    ])
    segs = [(s.name, s.start_s, s.end_s) for s in tl.top_segments]
    assert segs == [("main", 0.0, 2.0), ("foo", 2.0, 4.0), ("main", 4.0, 6.0)]


def test_multiple_pids_are_independent():
    sym = SymbolTable()
    recs = np.concatenate([make_records(
        [(REC_ENTER, "main", 0.0), (REC_EXIT, "main", 5.0)], sym, pid=1
    ), make_records(
        [(REC_ENTER, "worker", 1.0), (REC_EXIT, "worker", 9.0)], sym, pid=2
    )])
    tl = parse_records(recs, sym)
    assert tl.inclusive_time("main") == pytest.approx(5.0)
    assert tl.inclusive_time("worker") == pytest.approx(8.0)
    assert tl.span == (0.0, 9.0)


def test_function_names_ordered_by_inclusive_time():
    tl = build([
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "big", 1.0),
        (REC_EXIT, "big", 9.0),
        (REC_ENTER, "small", 9.0),
        (REC_EXIT, "small", 9.5),
        (REC_EXIT, "main", 10.0),
    ])
    assert tl.function_names() == ["main", "big", "small"]


def test_strict_mode_rejects_mismatched_exit():
    with pytest.raises(TraceError):
        build([
            (REC_ENTER, "a", 0.0),
            (REC_ENTER, "b", 1.0),
            (REC_EXIT, "a", 2.0),
        ])


def test_strict_mode_rejects_open_frames():
    with pytest.raises(TraceError):
        build([(REC_ENTER, "a", 0.0)])


def test_strict_mode_rejects_exit_on_empty_stack():
    with pytest.raises(TraceError):
        build([(REC_EXIT, "a", 0.0)])


def test_strict_mode_rejects_time_regression():
    with pytest.raises(TraceError):
        build([
            (REC_ENTER, "a", 5.0),
            (REC_EXIT, "a", 1.0),
        ])


def test_lenient_mode_repairs_crossed_frames():
    tl = build(
        [
            (REC_ENTER, "a", 0.0),
            (REC_ENTER, "b", 1.0),
            (REC_EXIT, "a", 3.0),   # b never exited
        ],
        strict=False,
    )
    assert tl.inclusive_time("b") == pytest.approx(2.0)
    assert tl.inclusive_time("a") == pytest.approx(3.0)


def test_lenient_mode_closes_open_frames_at_last_event():
    tl = build(
        [
            (REC_ENTER, "a", 0.0),
            (REC_ENTER, "b", 1.0),
            (REC_EXIT, "b", 4.0),
        ],
        strict=False,
    )
    assert tl.inclusive_time("a") == pytest.approx(4.0)


def test_empty_timeline():
    tl = build([])
    assert tl.function_names() == []
    assert tl.span == (0.0, 0.0)
    assert build_oracle([]).active_at(1.0) == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(["f", "g", "h"]), min_size=1, max_size=8))
def test_property_balanced_nesting_times_consistent(names):
    """Build a strictly nested call chain; inclusive times must telescope
    and exclusive times must sum to the outermost inclusive time."""
    events = []
    t = 0.0
    for i, n in enumerate(names):
        events.append((REC_ENTER, f"{n}{i}", t))
        t += 1.0
    for i in reversed(range(len(names))):
        events.append((REC_EXIT, f"{names[i]}{i}", t))
        t += 1.0
    tl = build(events)
    total = tl.inclusive_time(f"{names[0]}0")
    excl_sum = sum(tl.exclusive_time(f"{n}{i}") for i, n in enumerate(names))
    assert excl_sum == pytest.approx(total)
    # Inclusive times strictly decrease inward.
    incl = [tl.inclusive_time(f"{n}{i}") for i, n in enumerate(names)]
    assert all(a > b for a, b in zip(incl, incl[1:]))


def test_call_arcs_exact():
    """The timeline records the exact call graph (micro D shape)."""
    events = [
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "foo1", 1.0),
        (REC_ENTER, "foo2", 2.0),
        (REC_EXIT, "foo2", 3.0),
        (REC_EXIT, "foo1", 5.0),
        (REC_ENTER, "foo2", 6.0),
        (REC_EXIT, "foo2", 7.5),
        (REC_EXIT, "main", 10.0),
    ]
    tl = build(events)
    assert tl.arcs[("<root>", "main")] == 1
    assert tl.arcs[("main", "foo1")] == 1
    assert tl.arcs[("foo1", "foo2")] == 1
    assert tl.arcs[("main", "foo2")] == 1
    oracle = build_oracle(events)
    assert oracle.arcs == tl.arcs
    assert oracle.callers_of("foo2") == {"foo1": 1, "main": 1}
    assert oracle.callees_of("main") == {"foo1": 1, "foo2": 1}


def test_call_arcs_recursion_self_arc():
    tl = build([
        (REC_ENTER, "fib", 0.0),
        (REC_ENTER, "fib", 1.0),
        (REC_ENTER, "fib", 2.0),
        (REC_EXIT, "fib", 3.0),
        (REC_EXIT, "fib", 4.0),
        (REC_EXIT, "fib", 5.0),
    ])
    assert tl.arcs[("fib", "fib")] == 2
    assert tl.arcs[("<root>", "fib")] == 1


# ----------------------------------------------------------------------
# Lenient-unwind top-of-stack accounting (regression tests: the unwind
# path used to leave a stale ``top_since`` naming an already-popped frame,
# corrupting every later exclusive-time credit for that pid).

def test_lenient_unwind_credits_new_top_not_popped_frame():
    tl = build(
        [
            (REC_ENTER, "a", 0.0),
            (REC_ENTER, "b", 1.0),
            (REC_ENTER, "c", 2.0),
            (REC_EXIT, "b", 4.0),   # crosses c: c unwinds, b pops
            (REC_EXIT, "a", 6.0),
        ],
        strict=False,
    )
    assert tl.exclusive_time("a") == pytest.approx(3.0)  # 0-1 and 4-6
    assert tl.exclusive_time("b") == pytest.approx(1.0)  # 1-2
    assert tl.exclusive_time("c") == pytest.approx(2.0)  # 2-4
    # Exclusive times must tile the whole single-pid span exactly.
    total = sum(tl.exclusive_time(n) for n in ("a", "b", "c"))
    assert total == pytest.approx(6.0)


def test_lenient_unmatched_exit_clears_top_since():
    events = [
        (REC_ENTER, "a", 0.0),
        (REC_EXIT, "zz", 2.0),  # matches nothing: whole stack unwinds
        (REC_ENTER, "c", 3.0),
        (REC_EXIT, "c", 5.0),
    ]
    tl = build(events, strict=False)
    # "a" was force-closed at t=2; nothing may credit it beyond that.
    assert tl.exclusive_time("a") == pytest.approx(2.0)
    assert tl.exclusive_time("c") == pytest.approx(2.0)
    for seg in build_oracle(events, strict=False).top_segments:
        if seg.name == "a":
            assert seg.end_s <= 2.0


# ----------------------------------------------------------------------
# The parser (records through the profile engine) against the oracle
# (the same records through the event-at-a-time replay).

def _timeline_pair(events, pid=1):
    """The oracle's timeline and the parser's, of the same stream."""
    sym = SymbolTable()
    recs = make_records(events, sym, pid=pid)
    return (
        build_timeline(recs, sym, lambda tsc: tsc / 1e9),
        parse_records(recs, sym),
    )


def _assert_timelines_match(tl_obj, tl_col):
    assert tl_obj.span == pytest.approx(tl_col.span)
    names = set(tl_obj.function_names())
    assert names == set(tl_col.function_names())
    for n in names:
        assert tl_obj.inclusive_time(n) == pytest.approx(tl_col.inclusive_time(n))
        assert tl_obj.exclusive_time(n) == pytest.approx(tl_col.exclusive_time(n))
        assert tl_obj.call_count(n) == tl_col.call_count(n)
    assert tl_obj.arcs == tl_col.arcs


def test_columnar_matches_replay_micro_d():
    tl_obj, tl_col = _timeline_pair([
        (REC_ENTER, "main", 0.0),
        (REC_ENTER, "foo1", 1.0),
        (REC_ENTER, "foo2", 2.0),
        (REC_EXIT, "foo2", 3.0),
        (REC_EXIT, "foo1", 5.0),
        (REC_ENTER, "foo2", 6.0),
        (REC_EXIT, "foo2", 7.5),
        (REC_EXIT, "main", 10.0),
    ])
    _assert_timelines_match(tl_obj, tl_col)


def test_columnar_matches_replay_recursion():
    tl_obj, tl_col = _timeline_pair([
        (REC_ENTER, "fib", 0.0),
        (REC_ENTER, "fib", 1.0),
        (REC_ENTER, "fib", 2.0),
        (REC_EXIT, "fib", 3.0),
        (REC_EXIT, "fib", 4.0),
        (REC_EXIT, "fib", 5.0),
    ])
    _assert_timelines_match(tl_obj, tl_col)


def test_columnar_matches_replay_multi_pid():
    sym = SymbolTable()
    recs = np.concatenate([make_records(
        [(REC_ENTER, "main", 0.0), (REC_ENTER, "foo", 2.0),
         (REC_EXIT, "foo", 4.0), (REC_EXIT, "main", 6.0)], sym, pid=1,
    ), make_records(
        [(REC_ENTER, "worker", 1.0), (REC_ENTER, "foo", 3.0),
         (REC_EXIT, "foo", 5.0), (REC_EXIT, "worker", 9.0)], sym, pid=2,
    )])
    # interleave the two pids' events
    recs = recs[np.argsort(recs["tsc"], kind="stable")]
    _assert_timelines_match(
        build_timeline(recs, sym, lambda tsc: tsc / 1e9),
        parse_records(recs, sym),
    )


def test_columnar_anomalous_stream_falls_back_to_replay():
    events = [
        (REC_ENTER, "a", 0.0),
        (REC_ENTER, "b", 1.0),
        (REC_EXIT, "a", 3.0),   # crossed frames: not well-formed
    ]
    sym = SymbolTable()
    recs = make_records(events, sym)
    with pytest.raises(TraceError):
        parse_records(recs, sym, strict=True)
    _assert_timelines_match(
        build_timeline(recs, sym, lambda tsc: tsc / 1e9, strict=False),
        parse_records(recs, sym, strict=False),
    )


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_columnar_matches_replay_random_streams(data):
    """Random balanced multi-pid streams: parser and oracle must agree."""
    sym = SymbolTable()
    n_pids = data.draw(st.integers(min_value=1, max_value=3))
    names = ["f", "g", "h", "f"]  # repeats force recursion/self-arcs
    events = []
    tsc = 0
    stacks = {pid: [] for pid in range(1, n_pids + 1)}
    for _ in range(data.draw(st.integers(min_value=0, max_value=40))):
        pid = data.draw(st.integers(min_value=1, max_value=n_pids))
        stack = stacks[pid]
        tsc += data.draw(st.integers(min_value=0, max_value=1000))
        if stack and data.draw(st.booleans()):
            events.append(Row(REC_EXIT, sym.address_of(stack.pop()), tsc, 0,
                              pid))
        else:
            name = data.draw(st.sampled_from(names))
            stack.append(name)
            events.append(Row(REC_ENTER, sym.address_of(name), tsc, 0, pid))
    for pid, stack in stacks.items():  # close everything: well-formed
        while stack:
            tsc += 10
            events.append(Row(REC_EXIT, sym.address_of(stack.pop()), tsc, 0,
                              pid))
    events = to_array(events)
    _assert_timelines_match(
        build_timeline(events, sym, lambda t: t / 1e9),
        parse_records(events, sym),
    )
