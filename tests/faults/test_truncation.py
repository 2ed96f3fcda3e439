"""TraceBundle round-trip and damaged-bundle recovery.

Every way a bundle can arrive damaged — chopped record file, torn
header, missing node file — must surface as a clean TraceError or, in
tolerant mode, a partial recovery.  Never a raw struct/json exception.
Each case runs on the closed spool ``TraceBundle.save`` writes and on a
legacy ``meta.json`` bundle (``tests/legacy.py``)."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.records import RECORD_SIZE as REC_SIZE
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    TraceBundle,
)
from repro.util.errors import TraceError

from tests.legacy import LAYOUTS


def build_bundle(n_pairs=6):
    symtab = SymbolTable()
    main = symtab.address_of("main")
    kern = symtab.address_of("kernel")
    trace = NodeTrace("node1", 1.8e9, ["S0", "S1"])
    tsc = 0
    trace.append_event(REC_ENTER, main, tsc, 0, 1)
    for _ in range(n_pairs):
        tsc += 50_000_000
        trace.append_event(REC_ENTER, kern, tsc, 0, 1)
        tsc += 10_000_000
        trace.append_event(REC_TEMP, 0, tsc, 3, 2, 44.5)
        trace.append_event(REC_TEMP, 1, tsc, 3, 2, 41.0)
        tsc += 40_000_000
        trace.append_event(REC_EXIT, kern, tsc, 0, 1)
    tsc += 1_000_000
    trace.append_event(REC_EXIT, main, tsc, 0, 1)
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0, "workload": "unit"}
    return bundle


def test_save_load_round_trip(tmp_path):
    bundle = build_bundle()
    for layout, (save, _, _) in LAYOUTS.items():
        loaded = TraceBundle.load(save(bundle, tmp_path / layout))
        assert loaded.meta == bundle.meta
        assert loaded.symtab.to_dict() == bundle.symtab.to_dict()
        assert list(loaded.nodes) == ["node1"]
        got = loaded.node("node1")
        want = bundle.node("node1")
        assert np.array_equal(got.columns.array, want.columns.array)
        assert got.tsc_hz == want.tsc_hz
        assert got.sensor_names == want.sensor_names
        assert not got.truncated


@settings(max_examples=40, deadline=None)
@given(chop=st.integers(min_value=1))
def test_any_chop_never_escapes_as_struct_error(chop):
    """Chop K bytes off the tail: strict load raises TraceError; tolerant
    load recovers exactly the surviving whole records, flagged truncated."""
    bundle = build_bundle()
    total = len(bundle.node("node1")) * REC_SIZE
    chop = 1 + chop % (total - 1)               # 1..total-1
    for save, _, suffix in LAYOUTS.values():
        with tempfile.TemporaryDirectory() as td:
            path = save(bundle, Path(td) / "b")
            rec_file = path / f"node1{suffix}"
            blob = rec_file.read_bytes()
            rec_file.write_bytes(blob[: len(blob) - chop])

            with pytest.raises(TraceError):
                TraceBundle.load(path)

            loaded = TraceBundle.load(path, tolerate_truncation=True)
            got = loaded.node("node1")
            assert got.truncated
            n_survive = (total - chop) // REC_SIZE
            assert np.array_equal(
                got.columns.array,
                bundle.node("node1").columns.array[:n_survive])


def test_extra_records_rejected_even_tolerant(tmp_path):
    """Tolerant mode forgives loss, not fabrication: a record file longer
    than the header promised is corruption either way."""
    bundle = build_bundle()
    for layout, (save, _, suffix) in LAYOUTS.items():
        path = save(bundle, tmp_path / layout)
        rec_file = path / f"node1{suffix}"
        rec_file.write_bytes(rec_file.read_bytes() + b"\x00" * REC_SIZE)
        with pytest.raises(TraceError):
            TraceBundle.load(path)
        with pytest.raises(TraceError):
            TraceBundle.load(path, tolerate_truncation=True)


def test_missing_record_file(tmp_path):
    bundle = build_bundle()
    for layout, (save, _, suffix) in LAYOUTS.items():
        path = save(bundle, tmp_path / layout)
        (path / f"node1{suffix}").unlink()
        with pytest.raises(TraceError):
            TraceBundle.load(path)
        loaded = TraceBundle.load(path, tolerate_truncation=True)
        got = loaded.node("node1")
        assert got.truncated
        assert len(got) == 0
        assert got.sensor_names == ["S0", "S1"]     # metadata still usable


def test_torn_meta_json(tmp_path):
    bundle = build_bundle()
    for layout, (save, header_name, _) in LAYOUTS.items():
        meta = save(bundle, tmp_path / layout) / header_name
        text = meta.read_text()
        meta.write_text(text[: len(text) // 2])     # torn mid-write
        with pytest.raises(TraceError):
            TraceBundle.load(meta.parent)
        with pytest.raises(TraceError):
            TraceBundle.load(meta.parent, tolerate_truncation=True)


def test_meta_json_wrong_shape(tmp_path):
    for fmt, header_name in (("tempest-spool-v1", "header.json"),
                             ("tempest-trace-v1", "meta.json")):
        d = tmp_path / header_name
        d.mkdir()
        (d / header_name).write_text(json.dumps([1, 2, 3]))
        with pytest.raises(TraceError):
            TraceBundle.load(d)

        (d / header_name).write_text(
            json.dumps({"format": "something-else"}))
        with pytest.raises(TraceError):
            TraceBundle.load(d)

        (d / header_name).write_text(
            json.dumps({"format": fmt, "symtab": "nope", "nodes": {}})
        )
        with pytest.raises(TraceError):
            TraceBundle.load(d)


def test_malformed_node_entry(tmp_path):
    bundle = build_bundle()
    for layout, (save, header_name, _) in LAYOUTS.items():
        meta = save(bundle, tmp_path / layout) / header_name
        header = json.loads(meta.read_text())
        del header["nodes"]["node1"]["tsc_hz"]
        meta.write_text(json.dumps(header))
        with pytest.raises(TraceError):
            TraceBundle.load(meta.parent, tolerate_truncation=True)


def test_not_a_bundle(tmp_path):
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path)              # exists, but no header
