"""Tests for incremental trace spooling."""

import numpy as np
import pytest

from repro.core import TempestSession, TempestParser
from repro.core.records import RECORD_DTYPE
from repro.core.spool import (
    SpoolingNodeTrace,
    TraceSpool,
    iter_spool_chunks,
    write_spool_header,
)
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_ENTER,
    REC_TEMP,
    TraceBundle,
    read_trace_header,
)
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.errors import TraceError
from repro.workloads.microbench import micro_d
from tests.rows import Row, rows, spool_records


def test_spool_write_read_roundtrip(tmp_path):
    spool = TraceSpool(tmp_path / "n1.spool")
    records = [Row(REC_ENTER, 0x400000, 1000 + i, 0, 1) for i in range(50)]
    with spool:
        for r in records:
            spool.write_event(*r)
    assert spool.records_written == 50
    assert rows(spool_records(tmp_path / "n1.spool")) == records


def test_spool_rejects_writes_after_close(tmp_path):
    spool = TraceSpool(tmp_path / "x.spool")
    spool.close()
    with pytest.raises(TraceError):
        spool.write_event(REC_ENTER, 1, 1, 0, 1)


def close_spool(directory, name, n_records):
    """Write the header that closes *directory*'s one spool at
    *n_records*, as ``TraceBundle.save`` would."""
    write_spool_header(directory, SymbolTable(), {name: {
        "tsc_hz": 1.8e9, "sensor_names": ["s0"], "n_records": n_records}},
        {})


def test_truncated_tail_tolerated(tmp_path):
    spool = TraceSpool(tmp_path / "t.spool")
    with spool:
        for i in range(10):
            spool.write_event(REC_TEMP, 0, i, 0, 2, 40.0)
    f = tmp_path / "t.spool"
    f.write_bytes(f.read_bytes()[:-7])  # crash mid-record
    recs = spool_records(f)
    assert len(recs) == 9
    close_spool(tmp_path, "t", 10)      # a closed trace may not be torn
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path)
    loaded = TraceBundle.load(tmp_path, tolerate_truncation=True)
    assert len(loaded.node("t")) == 9 and loaded.node("t").truncated


def test_spooling_node_trace_writes_through(tmp_path):
    spool = TraceSpool(tmp_path / "n.spool")
    trace = SpoolingNodeTrace("n1", 1.8e9, ["s0"], spool)
    rec = Row(REC_ENTER, 0x400000, 42, 0, 1)
    trace.append_event(*rec)
    spool.close()
    assert rows(trace.columns.array) == [rec]                    # in memory
    assert rows(spool_records(tmp_path / "n.spool")) == [rec]  # on disk


def test_constant_memory_mode(tmp_path):
    spool = TraceSpool(tmp_path / "n.spool")
    trace = SpoolingNodeTrace("n1", 1.8e9, ["s0"], spool,
                              keep_in_memory=False)
    for i in range(100):
        trace.append_event(REC_ENTER, 0x400000, i, 0, 1)
    spool.close()
    assert len(trace) == 0
    assert len(spool_records(tmp_path / "n.spool")) == 100


def test_session_spooling_end_to_end(tmp_path):
    """A spooled session's on-disk trace parses identically to in-memory."""
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=13))
    session = TempestSession(m, spool_dir=tmp_path / "spools")
    session.run_serial(micro_d, "node1", 0, 5.0, 0.05)
    in_memory = session.profile()

    bundle = TraceBundle.load(tmp_path / "spools")
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
    assert len(spool_records(path)) == 100            # nothing dropped


def test_spool_cursor_reads_after_flush(tmp_path):
    path = tmp_path / "c.spool"
    spool = TraceSpool(path)
    for i in range(10):
        spool.write_event(REC_ENTER, 1, i, 0, 1)
    spool.flush()                                   # every accepted record
    assert len(spool_records(path)) == 10
    for i in range(10, 17):
        spool.write_event(REC_ENTER, 1, i, 0, 1)
    spool.flush()
    rest = spool_records(path, start_record=10)     # only the new records
    assert len(rest) == 7
    assert rest["tsc"].tolist() == list(range(10, 17))
    spool.close()
    assert len(spool_records(path)) == 17           # works after close too


def test_iter_spool_chunks_sizes_and_content(tmp_path):
    path = tmp_path / "i.spool"
    with TraceSpool(path) as spool:
        for i in range(1000):
            spool.write_event(REC_TEMP, 0, i, 0, 2, 40.0)
    chunks = list(iter_spool_chunks(path, chunk_records=256))
    assert [len(c) for c in chunks] == [256, 256, 256, 232]
    whole = np.concatenate(chunks)
    assert np.array_equal(
        whole, np.frombuffer(path.read_bytes(), dtype=RECORD_DTYPE))
    tail = list(iter_spool_chunks(path, chunk_records=256, start_record=900))
    assert sum(len(c) for c in tail) == 100


def test_iter_spool_chunks_truncated_tail(tmp_path):
    path = tmp_path / "t2.spool"
    with TraceSpool(path) as spool:
        for i in range(10):
            spool.write_event(REC_TEMP, 0, i, 0, 2, 40.0)
    path.write_bytes(path.read_bytes()[:-5])        # torn final record
    chunks = list(iter_spool_chunks(path, chunk_records=4))
    assert sum(len(c) for c in chunks) == 9         # the torn tail dropped
    close_spool(tmp_path, "t2", 10)
    with pytest.raises(TraceError, match="not a multiple"):
        TraceBundle.load(tmp_path)


def test_finished_session_closes_its_spools(tmp_path, capsys):
    """stop() declares every node's record count, the records its spool
    wrote: the directory is closed, and the strict checkers pass it."""
    from repro.cli import main

    spools = tmp_path / "spools"
    m = Machine(ClusterConfig(n_nodes=2, vary_nodes=False, seed=11))
    session = TempestSession(m, spool_dir=spools)
    session.run_mpi(lambda ctx: micro_d(ctx, 2.0, 0.1), 2)
    header = read_trace_header(spools)
    assert header.closed
    for name, node in header.nodes.items():
        written = session.tracers[name].trace.spool.records_written
        assert node.n_records == written == node.stat_records().n > 0
    assert main(["check", "--strict", str(spools)]) == 0
    assert main(["race", "--strict", str(spools)]) == 0


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

    bundle = TraceBundle.load(tmp_path / "spools")   # header was written
    trace = bundle.node("node1")
    assert len(trace) > 0                           # buffered chunk flushed
    assert trace.temp_columns() is not None
    # the run never finished: the directory stays live, and a lenient
    # parse profiles what reached it
    assert not read_trace_header(tmp_path / "spools").closed
    from repro.cli import main
    assert main(["parse", "--lenient", str(tmp_path / "spools")]) == 0


def test_spool_to_bundle_validation(tmp_path):
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path)  # no header
    write_spool_header(tmp_path, SymbolTable(), {}, {})
    bundle = TraceBundle.load(tmp_path)
    assert bundle.nodes == {}
    (tmp_path / "header.json").write_text('{"format": "v999"}')
    with pytest.raises(TraceError):
        TraceBundle.load(tmp_path)
