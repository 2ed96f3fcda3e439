"""Tests for incremental trace spooling."""

import numpy as np
import pytest

from repro.core import TempestSession, TempestParser
from repro.core.spool import (
    SpoolingNodeTrace,
    TraceSpool,
    iter_spool_chunks,
    read_spool_columns,
    spool_to_bundle,
    write_spool_header,
)
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_TEMP
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.errors import TraceError
from repro.workloads.microbench import micro_d
from tests.rows import Row, rows


def test_spool_write_read_roundtrip(tmp_path):
    spool = TraceSpool(tmp_path / "n1.spool")
    records = [Row(REC_ENTER, 0x400000, 1000 + i, 0, 1) for i in range(50)]
    with spool:
        for r in records:
            spool.write_event(*r)
    assert spool.records_written == 50
    assert rows(read_spool_columns(tmp_path / "n1.spool")) == records


def test_spool_rejects_writes_after_close(tmp_path):
    spool = TraceSpool(tmp_path / "x.spool")
    spool.close()
    with pytest.raises(TraceError):
        spool.write_event(REC_ENTER, 1, 1, 0, 1)


def test_truncated_tail_tolerated(tmp_path):
    spool = TraceSpool(tmp_path / "t.spool")
    with spool:
        for i in range(10):
            spool.write_event(REC_TEMP, 0, i, 0, 2, 40.0)
    f = tmp_path / "t.spool"
    f.write_bytes(f.read_bytes()[:-7])  # crash mid-record
    recs = read_spool_columns(f)
    assert len(recs) == 9
    with pytest.raises(TraceError):
        read_spool_columns(f, tolerate_truncation=False)


def test_spooling_node_trace_writes_through(tmp_path):
    spool = TraceSpool(tmp_path / "n.spool")
    trace = SpoolingNodeTrace("n1", 1.8e9, ["s0"], spool)
    rec = Row(REC_ENTER, 0x400000, 42, 0, 1)
    trace.append_event(*rec)
    spool.close()
    assert rows(trace.columns.array) == [rec]                    # in memory
    assert rows(read_spool_columns(tmp_path / "n.spool")) == [rec]  # on disk


def test_constant_memory_mode(tmp_path):
    spool = TraceSpool(tmp_path / "n.spool")
    trace = SpoolingNodeTrace("n1", 1.8e9, ["s0"], spool,
                              keep_in_memory=False)
    for i in range(100):
        trace.append_event(REC_ENTER, 0x400000, i, 0, 1)
    spool.close()
    assert len(trace) == 0
    assert len(read_spool_columns(tmp_path / "n.spool")) == 100


def test_session_spooling_end_to_end(tmp_path):
    """A spooled session's on-disk trace parses identically to in-memory."""
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=13))
    session = TempestSession(m, spool_dir=tmp_path / "spools")
    session.run_serial(micro_d, "node1", 0, 5.0, 0.05)
    in_memory = session.profile()

    bundle = spool_to_bundle(tmp_path / "spools")
    from_disk = TempestParser(bundle).parse()

    a = in_memory.node("node1").function("foo1")
    b = from_disk.node("node1").function("foo1")
    assert a.total_time_s == pytest.approx(b.total_time_s)
    assert a.sensor_stats == b.sensor_stats


def test_context_manager_flushes_buffered_chunk_on_exception(tmp_path):
    """An error between flushes must not drop the buffered records: the
    CM drains the partial chunk to disk before the handle closes."""
    path = tmp_path / "boom.spool"
    with pytest.raises(RuntimeError, match="workload died"):
        with TraceSpool(path) as spool:
            for i in range(100):                    # < one 4096-record chunk
                spool.write_event(REC_ENTER, 7, i, 0, 1)
            raise RuntimeError("workload died")
    assert spool.closed
    assert len(read_spool_columns(path)) == 100            # nothing dropped


def test_tail_records_cursor_reads(tmp_path):
    spool = TraceSpool(tmp_path / "c.spool")
    for i in range(10):
        spool.write_event(REC_ENTER, 1, i, 0, 1)
    first = spool.tail_records(0)                   # flushes, reads all 10
    assert len(first) == 10
    for i in range(10, 17):
        spool.write_event(REC_ENTER, 1, i, 0, 1)
    rest = spool.tail_records(10)                   # only the new records
    assert len(rest) == 7
    assert rest["tsc"].tolist() == list(range(10, 17))
    spool.close()
    assert len(spool.tail_records(0)) == 17         # works after close too


def test_iter_spool_chunks_sizes_and_content(tmp_path):
    path = tmp_path / "i.spool"
    with TraceSpool(path) as spool:
        for i in range(1000):
            spool.write_event(REC_TEMP, 0, i, 0, 2, 40.0)
    chunks = list(iter_spool_chunks(path, chunk_records=256))
    assert [len(c) for c in chunks] == [256, 256, 256, 232]
    whole = np.concatenate(chunks)
    assert np.array_equal(whole, read_spool_columns(path))
    tail = list(iter_spool_chunks(path, chunk_records=256, start_record=900))
    assert sum(len(c) for c in tail) == 100


def test_iter_spool_chunks_truncated_tail(tmp_path):
    path = tmp_path / "t2.spool"
    with TraceSpool(path) as spool:
        for i in range(10):
            spool.write_event(REC_TEMP, 0, i, 0, 2, 40.0)
    path.write_bytes(path.read_bytes()[:-5])        # torn final record
    chunks = list(iter_spool_chunks(path, chunk_records=4))
    assert sum(len(c) for c in chunks) == 9         # tolerated by default
    with pytest.raises(TraceError, match="not a whole record"):
        list(iter_spool_chunks(path, chunk_records=4,
                               tolerate_truncation=False))


def test_session_emergency_flush_preserves_spool(tmp_path):
    """A workload exception mid-run still leaves a parseable spool dir,
    including the records buffered in the spool's open chunk."""
    from repro.simmachine.process import Compute

    def crashing(proc):
        yield Compute(0.3, 0.9)
        raise RuntimeError("segfault, simulated")

    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=5))
    session = TempestSession(m, spool_dir=tmp_path / "spools")
    with pytest.raises(RuntimeError, match="segfault"):
        session.run_serial(crashing, "node1", 0)

    bundle = spool_to_bundle(tmp_path / "spools")   # header was written
    trace = bundle.node("node1")
    assert len(trace) > 0                           # buffered chunk flushed
    assert trace.temp_columns() is not None


def test_spool_to_bundle_validation(tmp_path):
    with pytest.raises(TraceError):
        spool_to_bundle(tmp_path)  # no header
    write_spool_header(tmp_path, SymbolTable(), {}, {})
    bundle = spool_to_bundle(tmp_path)
    assert bundle.nodes == {}
    (tmp_path / "header.json").write_text('{"format": "v999"}')
    with pytest.raises(TraceError):
        spool_to_bundle(tmp_path)
