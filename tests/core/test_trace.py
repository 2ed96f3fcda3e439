"""Tests for node traces and bundle round-trips."""

import json
import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import records_from_buffer
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    TraceBundle,
)
from repro.util.errors import TraceError
from tests.rows import Row, rows, to_array

_REC = struct.Struct("<Bqqiid")


def test_record_pack_unpack_roundtrip():
    r = Row(REC_TEMP, 3, 123456789012, 2, 41, 47.5)
    t = NodeTrace("n1", tsc_hz=1e9, sensor_names=["s0"])
    t.append_event(*r)
    blob = t.columns.to_bytes()
    assert blob == _REC.pack(*r)
    assert Row(*_REC.unpack(blob)) == r


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from([REC_ENTER, REC_EXIT, REC_TEMP]),
    addr=st.integers(min_value=0, max_value=2**60),
    tsc=st.integers(min_value=-(2**62), max_value=2**62),
    core=st.integers(min_value=-(2**31), max_value=2**31 - 1),
    pid=st.integers(min_value=0, max_value=2**31 - 1),
    value=st.floats(allow_nan=False, allow_infinity=False, width=32),
)
def test_property_record_roundtrip(kind, addr, tsc, core, pid, value):
    r = Row(kind, addr, tsc, core, pid, float(value))
    blob = to_array([r]).tobytes()
    assert blob == _REC.pack(*r)
    assert rows(records_from_buffer(blob)) == [r]


def test_node_trace_filters_and_seconds():
    t = NodeTrace("n1", tsc_hz=2e9, sensor_names=["s0"])
    t.append_event(REC_ENTER, 1, 2_000_000_000, 0, 1)
    t.append_event(REC_TEMP, 0, 3_000_000_000, 0, 2, 40.0)
    t.append_event(REC_EXIT, 1, 4_000_000_000, 0, 1)
    assert len(t) == 3
    assert t.func_columns()["kind"].tolist() == [REC_ENTER, REC_EXIT]
    assert t.temp_columns()["value"].tolist() == [40.0]
    assert t.seconds(2_000_000_000) == pytest.approx(1.0)


def test_invalid_tsc_hz_rejected():
    with pytest.raises(TraceError):
        NodeTrace("n1", tsc_hz=0.0, sensor_names=[])


@pytest.mark.parametrize("hz", [math.nan, math.inf, -1.0, "fast"])
def test_non_finite_or_non_positive_tsc_hz_rejected(hz):
    # NaN passes a bare ``hz <= 0`` test; it must be refused all the same.
    with pytest.raises(TraceError, match="finite and positive"):
        NodeTrace("n1", tsc_hz=hz, sensor_names=[])


def make_bundle():
    sym = SymbolTable()
    a_main = sym.address_of("main")
    bundle = TraceBundle(sym)
    bundle.meta = {"sampling_hz": 4.0}
    t = NodeTrace("node1", tsc_hz=1.8e9, sensor_names=["CPU0", "MB"])
    t.append_event(REC_ENTER, a_main, 0, 0, 1)
    t.append_event(REC_TEMP, 0, 450_000_000, 3, 2, 45.0)
    t.append_event(REC_TEMP, 1, 450_000_000, 3, 2, 31.0)
    t.append_event(REC_EXIT, a_main, 1_800_000_000, 0, 1)
    bundle.add_node(t)
    return bundle


def test_bundle_save_load_roundtrip(tmp_path):
    bundle = make_bundle()
    bundle.save(tmp_path / "trace")
    loaded = TraceBundle.load(tmp_path / "trace")
    assert loaded.meta == {"sampling_hz": 4.0}
    assert list(loaded.nodes) == ["node1"]
    t = loaded.node("node1")
    assert t.tsc_hz == 1.8e9
    assert t.sensor_names == ["CPU0", "MB"]
    assert t.columns.to_bytes() == bundle.node("node1").columns.to_bytes()
    assert loaded.symtab.name_of(loaded.symtab.address_of("main")) == "main"


def test_bundle_duplicate_node_rejected():
    bundle = make_bundle()
    with pytest.raises(TraceError):
        bundle.add_node(NodeTrace("node1", 1e9, []))


def test_bundle_missing_node_lookup():
    bundle = make_bundle()
    with pytest.raises(TraceError):
        bundle.node("node9")


def test_load_rejects_corrupt_blob(tmp_path):
    bundle = make_bundle()
    bundle.save(tmp_path / "trace")
    # Truncate the record file mid-record.
    f = tmp_path / "trace" / "node1.trace"
    f.write_bytes(f.read_bytes()[:-5])
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path / "trace")


def test_load_rejects_missing_meta(tmp_path):
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path)


def test_load_rejects_unknown_format(tmp_path):
    (tmp_path / "meta.json").write_text(json.dumps({"format": "v999"}))
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path)


def test_total_records():
    assert make_bundle().total_records() == 4


# ----------------------------------------------------------------------
# The per-node ``truncated`` flag must survive a save/load cycle
# (regression: save() used to drop it, so a recovered-then-resaved bundle
# silently forgot its coverage story).

def test_truncated_flag_roundtrips_through_save(tmp_path):
    bundle = make_bundle()
    bundle.node("node1").truncated = True
    bundle.save(tmp_path / "trace")
    info = json.loads((tmp_path / "trace" / "meta.json").read_text())
    assert info["nodes"]["node1"]["truncated"] is True
    loaded = TraceBundle.load(tmp_path / "trace")
    assert loaded.node("node1").truncated is True


def test_untruncated_bundle_header_omits_flag(tmp_path):
    # Intact traces keep the pre-columnar header shape: no "truncated" key.
    make_bundle().save(tmp_path / "trace")
    info = json.loads((tmp_path / "trace" / "meta.json").read_text())
    assert "truncated" not in info["nodes"]["node1"]
    assert TraceBundle.load(tmp_path / "trace").node("node1").truncated is False


def test_recovered_bundle_stays_truncated_after_resave(tmp_path):
    bundle = make_bundle()
    bundle.save(tmp_path / "torn")
    f = tmp_path / "torn" / "node1.trace"
    f.write_bytes(f.read_bytes()[:-5])  # tear the tail mid-record
    recovered = TraceBundle.load(tmp_path / "torn", tolerate_truncation=True)
    assert recovered.node("node1").truncated is True
    recovered.save(tmp_path / "resaved")
    reloaded = TraceBundle.load(tmp_path / "resaved")
    assert reloaded.node("node1").truncated is True
    assert len(reloaded.node("node1")) == 3  # torn record stayed dropped
