"""Property tests: row appends and bulk appends are the same pipeline.

For random record streams — TEMP/ENTER/EXIT interleavings, unbalanced
tails, torn record files — a trace filled one event at a time
(``append_event``, what the hooks do) and one filled in bulk
(``extend_columns``, what loaders do) must produce byte-identical
``.trace`` files, identical to the reference ``struct`` layout, that parse
to the same :class:`~repro.core.profilemodel.RunProfile`.
"""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parser import TempestParser
from repro.core.records import RECORD_SIZE
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    TraceBundle,
)
from tests.rows import Row, to_array

TSC_HZ = 1e9
SENSORS = ["CPU0", "MB"]
FUNCS = ["main", "foo1", "foo2", "adi_"]


@st.composite
def record_streams(draw):
    """Random single-node streams: balanced-ish calls from up to three
    pids, interleaved TEMP sweeps, optionally an unbalanced tail."""
    sym = SymbolTable()
    for name in FUNCS:
        sym.address_of(name)
    n_pids = draw(st.integers(min_value=1, max_value=3))
    stacks = {pid: [] for pid in range(1, n_pids + 1)}
    records = []
    tsc = 0
    for _ in range(draw(st.integers(min_value=0, max_value=60))):
        tsc += draw(st.integers(min_value=1, max_value=500_000))
        roll = draw(st.integers(min_value=0, max_value=9))
        if roll < 2:  # TEMP sweep from the daemon pid
            idx = draw(st.integers(min_value=0, max_value=len(SENSORS) - 1))
            temp = draw(st.floats(min_value=20.0, max_value=90.0,
                                  allow_nan=False))
            records.append(Row(REC_TEMP, idx, tsc, 3, 999, temp))
            continue
        pid = draw(st.integers(min_value=1, max_value=n_pids))
        stack = stacks[pid]
        if stack and draw(st.booleans()):
            records.append(Row(REC_EXIT, sym.address_of(stack.pop()), tsc,
                               0, pid))
        else:
            name = draw(st.sampled_from(FUNCS))
            stack.append(name)
            records.append(Row(REC_ENTER, sym.address_of(name), tsc, 0,
                               pid))
    # Usually close every open frame; sometimes leave a truncated tail of
    # dangling ENTERs (the lenient parser must repair both identically).
    if draw(st.booleans()):
        for pid, stack in stacks.items():
            while stack:
                tsc += 1000
                records.append(Row(REC_EXIT, sym.address_of(stack.pop()),
                                   tsc, 0, pid))
    return sym, records


def make_traces(records):
    """The same stream stored one row at a time and stored in bulk."""
    obj = NodeTrace("n0", TSC_HZ, SENSORS)
    for r in records:
        obj.append_event(*r)
    col = NodeTrace("n0", TSC_HZ, SENSORS)
    col.extend_columns(to_array(records))
    return obj, col


def assert_profiles_match(pa, pb):
    assert set(pa.nodes) == set(pb.nodes)
    for name in pa.nodes:
        na, nb = pa.nodes[name], pb.nodes[name]
        assert na.duration_s == pytest.approx(nb.duration_s)
        assert set(na.functions) == set(nb.functions)
        for fn in na.functions:
            fa, fb = na.functions[fn], nb.functions[fn]
            assert fa.total_time_s == pytest.approx(fb.total_time_s)
            assert fa.exclusive_time_s == pytest.approx(fb.exclusive_time_s)
            assert fa.n_calls == fb.n_calls
            assert fa.significant == fb.significant
            assert fa.n_samples == fb.n_samples
            assert set(fa.sensor_stats) == set(fb.sensor_stats)


@settings(max_examples=40, deadline=None)
@given(record_streams())
def test_property_object_and_columnar_paths_identical(stream):
    sym, records = stream
    obj_trace, col_trace = make_traces(records)

    # 1. Serialization is byte-identical, and identical to the historical
    #    per-record struct.pack loop.
    rec = struct.Struct("<Bqqiid")
    packed = b"".join(rec.pack(*r) for r in records)
    assert obj_trace.columns.to_bytes() == packed
    assert col_trace.columns.to_bytes() == packed

    # 2. Saved bundles are byte-identical on disk and parse identically.
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        for tag, trace in (("obj", obj_trace), ("col", col_trace)):
            bundle = TraceBundle(sym)
            bundle.meta = {"sampling_hz": 4.0}
            bundle.add_node(trace)
            bundle.save(td / tag)
        assert (td / "obj" / "n0.trace").read_bytes() \
            == (td / "col" / "n0.trace").read_bytes()
        profiles = [
            TempestParser(TraceBundle.load(td / tag), strict=False).parse()
            for tag in ("obj", "col")
        ]
    assert_profiles_match(*profiles)


@settings(max_examples=25, deadline=None)
@given(record_streams(), st.integers(min_value=1, max_value=2 * RECORD_SIZE))
def test_property_torn_tail_recovers_identically(stream, torn_bytes):
    """A torn record file recovers to the same truncated trace whether the
    bundle was written row by row or in bulk."""
    sym, records = stream
    obj_trace, col_trace = make_traces(records)
    loaded = []
    with tempfile.TemporaryDirectory() as td:
        td = Path(td)
        for tag, trace in (("obj", obj_trace), ("col", col_trace)):
            bundle = TraceBundle(sym)
            bundle.add_node(trace)
            bundle.save(td / tag)
            f = td / tag / "n0.trace"
            blob = f.read_bytes()
            f.write_bytes(blob[: max(0, len(blob) - torn_bytes)])
            loaded.append(
                TraceBundle.load(td / tag, tolerate_truncation=True))
    ta, tb = loaded[0].node("n0"), loaded[1].node("n0")
    assert np.array_equal(ta.columns.array, tb.columns.array)
    assert ta.truncated == tb.truncated
    if records:
        assert ta.truncated
        assert len(ta) == max(0, len(records) * RECORD_SIZE - torn_bytes) \
            // RECORD_SIZE
