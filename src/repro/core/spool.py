"""Incremental on-disk trace spooling.

The real Tempest appends trace records to a file *during* execution — a
long run must not hold its whole trace in memory.  A :class:`TraceSpool`
attaches to a :class:`~repro.core.trace.NodeTrace` and sinks each record
as it is appended; :func:`write_spool_header` saves the directory's
header.  This is the only trace-directory layout written: a header
without record counts makes the directory live (still growing, or left
by a dead workload), and one written last that declares every node's
count makes it closed, as a finished session and :meth:`TraceBundle.save
<repro.core.trace.TraceBundle.save>` leave it.  Readers open either
through :func:`repro.core.trace.read_trace_header` and read records
through :meth:`NodeHeader.iter_chunks
<repro.core.trace.NodeHeader.iter_chunks>`, which drops a torn tail (a
crash mid-append) from a live spool.

Spooling is buffered and columnar: records accumulate in a small
structured-array chunk and hit the file as one ``write`` per
:data:`SPOOL_CHUNK_RECORDS` records (or on ``flush``/``close``), instead
of one ``struct.pack`` + ``write`` per record.  The flush contract is:
after ``flush()`` or ``close()`` every accepted record is on disk; a
crash between flushes loses at most one chunk, and a crash mid-write
loses at most one torn record at the tail — which
:func:`iter_spool_chunks` drops.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.core.records import (
    RECORD_DTYPE,
    RECORD_SIZE,
    RecordColumns,
    records_to_bytes,
)
from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace
from repro.util.canonjson import dump_canonical
from repro.util.errors import TraceError

#: records buffered per chunk before the spool writes to its file
SPOOL_CHUNK_RECORDS = 4096

#: records per chunk when *reading* a spool into the streaming profiler.
#: Larger than the write granularity: the vectorized segment reduction
#: amortizes per-chunk overhead over more records.  Its pipeline
#: temporaries cost ~340 bytes/record at peak, so 32 Ki records ≈ 11 MB
#: resident whatever the trace length — the constant-memory property the
#: streaming gate holds to 1.1x (``test_streaming_memory_gate``).
STREAM_CHUNK_RECORDS = 32768


class TraceSpool:
    """File-backed buffered sink for one node's trace records."""

    def __init__(self, path: Path, *, chunk_records: int = SPOOL_CHUNK_RECORDS):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("wb")
        self._chunk = RecordColumns(capacity=max(1, chunk_records))
        self._chunk_records = max(1, int(chunk_records))
        self.records_written = 0
        self.closed = False

    def write_event(self, kind: int, addr: int, tsc: int, core: int,
                    pid: int, value: float = 0.0) -> None:
        """Buffer one event; the chunk drains to disk when full."""
        if self.closed:
            raise TraceError(f"spool {self.path} already closed")
        self._chunk.append_row(kind, addr, tsc, core, pid, value)
        self.records_written += 1
        if len(self._chunk) >= self._chunk_records:
            self._drain()

    def write_array(self, arr: np.ndarray) -> None:
        """Sink a whole structured record array in one write."""
        if self.closed:
            raise TraceError(f"spool {self.path} already closed")
        if not len(arr):
            return
        self._drain()
        self._fh.write(records_to_bytes(arr))
        self.records_written += len(arr)

    def _drain(self) -> None:
        if len(self._chunk):
            self._fh.write(self._chunk.to_bytes())
            self._chunk.clear()

    def flush(self) -> None:
        """Drain the buffered chunk and flush the OS file buffer.

        A no-op once closed: ``close`` already drained everything, and a
        collector tail-reading the spool may flush concurrently with the
        session finalizing it — the double flush must not raise.
        """
        if self.closed:
            return
        self._drain()
        self._fh.flush()

    def close(self) -> None:
        if not self.closed:
            try:
                self._drain()
            finally:
                self._fh.close()
                self.closed = True

    def __enter__(self) -> "TraceSpool":
        return self

    def __exit__(self, *exc) -> bool:
        # The context-manager guarantee: however the block exits —
        # normally or by exception — the buffered chunk (up to
        # chunk_records-1 records) reaches the file before the handle
        # closes.  ``close`` drains first, so nothing is dropped.
        self.close()
        return False


class SpoolingNodeTrace(NodeTrace):
    """A NodeTrace that writes every record through to a spool.

    ``keep_in_memory=False`` drops records after spooling — the
    constant-memory mode for very long runs (the in-memory columns stay
    empty; parse from the spool afterwards).
    """

    def __init__(self, node_name: str, tsc_hz: float,
                 sensor_names: list[str], spool: TraceSpool,
                 keep_in_memory: bool = True):
        super().__init__(node_name, tsc_hz, sensor_names)
        self.spool = spool
        self.keep_in_memory = keep_in_memory

    def append_event(self, kind: int, addr: int, tsc: int, core: int,
                     pid: int, value: float = 0.0) -> None:
        self.spool.write_event(kind, addr, tsc, core, pid, value)
        if self.keep_in_memory:
            self.columns.append_row(kind, addr, tsc, core, pid, value)

    def extend_columns(self, arr: np.ndarray) -> None:
        self.spool.write_array(arr)
        if self.keep_in_memory:
            super().extend_columns(arr)


def iter_spool_chunks(path: Path, *, chunk_records: int = SPOOL_CHUNK_RECORDS,
                      start_record: int = 0):
    """Yield a spool file's records as bounded structured-array chunks.

    The constant-memory read path: at most ``chunk_records`` records are
    resident per iteration regardless of file size, which is what lets
    the streaming engine profile arbitrarily long spools.  Each chunk is
    read with ``readinto`` straight into a fresh, writable record array
    the caller may keep (no intermediate bytes).  ``start_record``
    skips records already consumed (cursor-style tail reads).  A torn
    trailing record is dropped; whether a closed trace may have one is
    :meth:`NodeHeader.count_records
    <repro.core.trace.NodeHeader.count_records>`'s to decide.
    """
    path = Path(path)
    n = max(1, int(chunk_records))
    with path.open("rb") as fh:
        if start_record:
            fh.seek(start_record * RECORD_SIZE)
        while True:
            # the whole records left (a torn trailing one is not)
            left = (os.fstat(fh.fileno()).st_size - fh.tell()) // RECORD_SIZE
            if left <= 0:
                break
            chunk = np.empty(min(n, left), dtype=RECORD_DTYPE)
            whole = fh.readinto(chunk.view(np.uint8)) // RECORD_SIZE
            if whole < len(chunk):      # the file shrank while we read
                if whole:
                    yield chunk[:whole]
                break
            yield chunk


def write_spool_header(directory: Path, symtab: SymbolTable,
                       nodes: dict[str, dict], meta: dict) -> None:
    """Persist the header alongside per-node spools (a tmp file renamed
    into place).

    ``nodes`` maps node name -> {"tsc_hz": ..., "sensor_names": [...]},
    plus, when the directory is closed, every node's ``"n_records"``
    (and ``"truncated": True`` when set).
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dump_canonical(directory / "header.json", {
        "format": "tempest-spool-v1",
        "symtab": symtab.to_dict(),
        "nodes": nodes,
        "meta": meta,
    })
