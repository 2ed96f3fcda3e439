"""Tests for the columnar record store (RecordColumns).

The columnar core's load-bearing promise is byte-compatibility: the
structured dtype must match the historical ``<Bqqiid`` struct layout
exactly, so every ``tempest-trace-v1`` bundle and spool written by the
per-object code loads unchanged, and bundles written by the columnar code
load under the old reader.
"""

import struct

import pytest

from repro.core.records import (
    RECORD_DTYPE,
    RECORD_SIZE,
    RecordColumns,
    empty_records,
    records_from_buffer,
    records_to_bytes,
)
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP
from repro.util.errors import TraceError
from tests.rows import Row, rows, to_array

_REC = struct.Struct("<Bqqiid")


def pack(r) -> bytes:
    """The reference per-record layout, packed independently of numpy."""
    return _REC.pack(*r)


def some_records(n=10):
    out = []
    for i in range(n):
        kind = (REC_ENTER, REC_EXIT, REC_TEMP)[i % 3]
        out.append(Row(kind, i, i * 1000, i % 4, 1 + i % 2, float(i) / 2))
    return out


def test_dtype_matches_struct_layout():
    assert RECORD_SIZE == _REC.size == 33
    assert RECORD_DTYPE.itemsize == 33  # packed: no padding inserted
    r = Row(REC_TEMP, 3, 123456789012, 2, 41, 47.5)
    arr = records_from_buffer(pack(r))
    assert arr["kind"][0] == r.kind
    assert arr["addr"][0] == r.addr
    assert arr["tsc"][0] == r.tsc
    assert arr["core"][0] == r.core
    assert arr["pid"][0] == r.pid
    assert arr["value"][0] == r.value


def test_to_bytes_matches_per_record_pack():
    recs = some_records(50)
    cols = RecordColumns.from_array(to_array(recs))
    assert cols.to_bytes() == b"".join(pack(r) for r in recs)


def test_from_buffer_roundtrip():
    recs = some_records(7)
    blob = b"".join(pack(r) for r in recs)
    cols = RecordColumns.from_buffer(blob)
    assert len(cols) == 7
    assert rows(cols.array) == recs
    assert cols.to_bytes() == blob


def test_from_buffer_rejects_torn_tail():
    blob = b"".join(pack(r) for r in some_records(3))
    with pytest.raises(TraceError):
        records_from_buffer(blob[:-1])


def test_append_grows_past_initial_capacity():
    cols = RecordColumns(capacity=2)
    for r in some_records(100):
        cols.append_row(*r)
    assert len(cols) == 100
    assert rows(cols.array) == some_records(100)


def test_extend_array_bulk_append():
    bulk = to_array(some_records(20))
    cols = RecordColumns(capacity=4)
    cols.extend_array(bulk[:10])
    cols.extend_array(bulk[10:])
    cols.extend_array(empty_records())
    assert cols.to_bytes() == records_to_bytes(bulk)


def test_clear_retains_nothing_live():
    cols = RecordColumns.from_array(to_array(some_records(5)))
    cols.clear()
    assert len(cols) == 0
    assert cols.to_bytes() == b""
