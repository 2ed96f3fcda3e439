"""Cross-cutting property-based tests (hypothesis).

These stress the core data structures and algorithms with generated
inputs: random call trees through the oracle's timeline replay, random
payloads through the collectives, and random transfer sequences through
the network model.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT
from repro.mpisim.network import Network, NetworkParams
from repro.mpisim.runtime import mpi_spawn
from repro.simmachine.machine import ClusterConfig, Machine
from tests.core.oracle import build_timeline
from tests.rows import Row, rows, spool_records, to_array


# ----------------------------------------------------------------------
# Random balanced call trees -> timeline invariants


@st.composite
def call_tree_events(draw, max_depth=4, max_children=3):
    """Generate a balanced ENTER/EXIT event sequence with real timestamps."""
    names = ["f", "g", "h", "k"]
    events = []
    clock = {"t": 0.0}

    def emit(depth):
        name = draw(st.sampled_from(names))
        clock["t"] += draw(st.floats(min_value=0.001, max_value=1.0))
        events.append((REC_ENTER, name, clock["t"]))
        if depth < max_depth:
            for _ in range(draw(st.integers(min_value=0,
                                            max_value=max_children))):
                emit(depth + 1)
        clock["t"] += draw(st.floats(min_value=0.001, max_value=1.0))
        events.append((REC_EXIT, name, clock["t"]))

    emit(0)
    return events


def build(events):
    sym = SymbolTable()
    # Quantize event times exactly as the TSC does (integer ticks), so the
    # test's expectations and the timeline see identical timestamps.
    events = [(kind, name, int(t * 1e9) / 1e9) for kind, name, t in events]
    recs = to_array(
        Row(kind, sym.address_of(name), int(round(t * 1e9)), 0, 1)
        for kind, name, t in events
    )
    return build_timeline(recs, sym, lambda tsc: tsc / 1e9), events


@settings(max_examples=60, deadline=None)
@given(call_tree_events())
def test_property_timeline_conservation(events):
    """Exclusive times sum to the root span; inclusive >= exclusive; the
    top-of-stack segments tile the root interval exactly."""
    tl, events = build(events)
    root_name = events[0][1]
    t0, t1 = events[0][2], events[-1][2]
    span = t1 - t0

    excl_total = sum(tl.exclusive_time(n) for n in tl.function_names())
    assert excl_total == pytest.approx(span, rel=1e-9)

    for name in tl.function_names():
        assert tl.inclusive_time(name) >= tl.exclusive_time(name) - 1e-12
        assert tl.inclusive_time(name) <= span + 1e-12

    segs = sorted(tl.top_segments, key=lambda s: s.start_s)
    assert segs[0].start_s == pytest.approx(t0)
    assert segs[-1].end_s == pytest.approx(t1)
    for a, b in zip(segs, segs[1:]):
        assert b.start_s == pytest.approx(a.end_s, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(call_tree_events())
def test_property_timeline_active_at_matches_spans(events):
    tl, events = build(events)
    t0, t1 = events[0][2], events[-1][2]
    for frac in (0.25, 0.5, 0.75):
        t = t0 + frac * (t1 - t0)
        active = set(tl.active_at(t))
        for name in tl.function_names():
            assert (name in active) == tl.contains(name, t)
    # The root function is active the whole time.
    assert tl.contains(events[0][1], (t0 + t1) / 2)


# ----------------------------------------------------------------------
# Collectives with generated shapes


@settings(max_examples=15, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=6),
    values=st.lists(st.integers(min_value=-1000, max_value=1000),
                    min_size=6, max_size=6),
)
def test_property_allreduce_equals_local_sum(size, values):
    vals = values[:size]

    def prog(ctx):
        out = yield from ctx.comm.allreduce(vals[ctx.rank])
        return out

    m = Machine(ClusterConfig(n_nodes=min(size, 4), vary_nodes=False))
    _, procs = mpi_spawn(m, prog, size)
    m.run_to_completion(procs)
    assert [p.result for p in procs] == [sum(vals)] * size


@settings(max_examples=10, deadline=None)
@given(size=st.integers(min_value=2, max_value=5), seed=st.integers(0, 99))
def test_property_alltoall_is_transpose(size, seed):
    rng = np.random.default_rng(seed)
    matrix = rng.integers(0, 100, (size, size))

    def prog(ctx):
        out = yield from ctx.comm.alltoall(list(matrix[ctx.rank]))
        return out

    m = Machine(ClusterConfig(n_nodes=min(size, 4), vary_nodes=False))
    _, procs = mpi_spawn(m, prog, size)
    m.run_to_completion(procs)
    got = np.array([p.result for p in procs])
    np.testing.assert_array_equal(got, matrix.T)


@settings(max_examples=10, deadline=None)
@given(size=st.integers(min_value=1, max_value=5),
       root=st.integers(min_value=0, max_value=4))
def test_property_scatter_gather_roundtrip(size, root):
    root = root % size

    def prog(ctx):
        values = list(range(100, 100 + ctx.size)) if ctx.rank == root else None
        mine = yield from ctx.comm.scatter(values, root=root)
        back = yield from ctx.comm.gather(mine, root=root)
        return back

    m = Machine(ClusterConfig(n_nodes=min(size, 4), vary_nodes=False))
    _, procs = mpi_spawn(m, prog, size)
    m.run_to_completion(procs)
    assert procs[root].result == list(range(100, 100 + size))


# ----------------------------------------------------------------------
# Network model properties


@settings(max_examples=50, deadline=None)
@given(
    nbytes=st.integers(min_value=0, max_value=10**9),
    extra=st.integers(min_value=0, max_value=10**8),
)
def test_property_wire_time_monotone_in_size(nbytes, extra):
    net = Network()
    assert net.wire_time("a", "b", nbytes + extra) >= net.wire_time(
        "a", "b", nbytes
    )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b", "c"]),
            st.sampled_from(["a", "b", "c"]),
            st.integers(min_value=1, max_value=10**7),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_property_nic_serialization_never_overlaps_per_node(transfers):
    """All inter-node transfer windows touching one NIC are disjoint."""
    net = Network(NetworkParams())
    windows: dict[str, list[tuple[float, float]]] = {}
    for src, dst, nbytes in transfers:
        s, e = net.transfer(src, dst, nbytes, now=0.0)
        assert e >= s
        if src != dst:
            windows.setdefault(src, []).append((s, e))
            windows.setdefault(dst, []).append((s, e))
    for node, spans in windows.items():
        spans.sort()
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 >= e1 - 1e-12, f"overlap on NIC {node}"


# ----------------------------------------------------------------------
# Spool round-trip with generated records


@settings(max_examples=30, deadline=None)
@given(
    records_spec=st.lists(
        st.tuples(
            st.sampled_from([1, 2, 3]),                 # record kind
            st.integers(min_value=0, max_value=2**40),  # addr/sensor
            st.integers(min_value=0, max_value=2**50),  # tsc
            st.integers(min_value=0, max_value=63),     # core
            st.integers(min_value=1, max_value=9999),   # pid
            st.floats(min_value=-50.0, max_value=150.0,
                      allow_nan=False),                  # value
        ),
        max_size=60,
    )
)
def test_property_spool_roundtrip(records_spec, tmp_path_factory):
    from repro.core.spool import TraceSpool

    tmp = tmp_path_factory.mktemp("spool")
    records = [Row(*spec) for spec in records_spec]
    with TraceSpool(tmp / "x.spool") as spool:
        for r in records:
            spool.write_event(*r)
    assert rows(spool_records(tmp / "x.spool")) == records


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-40.0, max_value=125.0, allow_nan=False),
             min_size=1, max_size=60)
)
def test_property_fahrenheit_conversion_preserves_ordering(values):
    """to_fahrenheit keeps every ordering invariant of the statistics."""
    from tests.core.oracle import compute_sensor_stats

    st_f = compute_sensor_stats(values).to_fahrenheit()
    assert st_f.min <= st_f.avg <= st_f.max
    assert st_f.min <= st_f.med <= st_f.max
    assert st_f.var == pytest.approx(st_f.sdv**2, rel=1e-9, abs=1e-12)
