"""Incremental on-disk trace spooling.

The real Tempest appends trace records to a file *during* execution — a
long run must not hold its whole trace in memory.  A :class:`TraceSpool`
attaches to a :class:`~repro.core.trace.NodeTrace` and sinks each record
as it is appended; :func:`read_spool_columns` recovers the records later
(tolerating a truncated tail, e.g. after a crash), and
:func:`spool_to_bundle` reassembles a full
:class:`~repro.core.trace.TraceBundle` from a directory of spools plus the
saved header.

Spooling is buffered and columnar: records accumulate in a small
structured-array chunk and hit the file as one ``write`` per
:data:`SPOOL_CHUNK_RECORDS` records (or on ``flush``/``close``), instead
of one ``struct.pack`` + ``write`` per record.  The flush contract is:
after ``flush()`` or ``close()`` every accepted record is on disk; a
crash between flushes loses at most one chunk, and a crash mid-write
loses at most one torn record at the tail — both are what
:func:`read_spool_columns`'s tolerant mode recovers from.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.records import (
    RECORD_SIZE,
    RecordColumns,
    records_from_buffer,
    records_to_bytes,
)
from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace, TraceBundle
from repro.util.canonjson import dump_canonical
from repro.util.errors import TraceError

#: records buffered per chunk before the spool writes to its file
SPOOL_CHUNK_RECORDS = 4096

#: records per chunk when *reading* a spool into the streaming profiler.
#: Larger than the write granularity: the vectorized segment reduction
#: amortizes per-chunk overhead over more records.  Its pipeline
#: temporaries cost ~340 bytes/record at peak, so 32 Ki records ≈ 11 MB
#: resident — inside the ≤25%-of-batch peak-memory gate even for the
#: reduced 200k-record CI benchmark scale.
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

    def tail_records(self, start_record: int = 0) -> np.ndarray:
        """Everything accepted from *start_record* on, as a record array.

        The incremental read API behind live profiling: flushes the
        buffered chunk first (so "accepted" means *every* record, not just
        the drained ones), then reads from the byte offset of
        *start_record* — a caller keeping a cursor sees each record
        exactly once across successive calls.  A torn trailing record is
        dropped, mirroring :func:`read_spool_columns`.
        """
        if not self.closed:
            self.flush()
        with self.path.open("rb") as fh:
            fh.seek(start_record * RECORD_SIZE)
            blob = fh.read()
        remainder = len(blob) % RECORD_SIZE
        if remainder:
            blob = blob[: len(blob) - remainder]
        return records_from_buffer(blob)

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
            super().append_event(kind, addr, tsc, core, pid, value)

    def extend_columns(self, arr: np.ndarray) -> None:
        self.spool.write_array(arr)
        if self.keep_in_memory:
            super().extend_columns(arr)


def read_spool_columns(path: Path, *, tolerate_truncation: bool = True
                       ) -> np.ndarray:
    """Read a spool file as one structured record array (vectorized).

    A partially written final record (machine crashed mid-append) is
    dropped when ``tolerate_truncation`` is set; otherwise it raises.
    """
    blob = Path(path).read_bytes()
    remainder = len(blob) % RECORD_SIZE
    if remainder:
        if not tolerate_truncation:
            raise TraceError(
                f"{path}: {len(blob)} bytes is not a multiple of {RECORD_SIZE}"
            )
        blob = blob[: len(blob) - remainder]
    return records_from_buffer(blob)


def iter_spool_chunks(path: Path, *, chunk_records: int = SPOOL_CHUNK_RECORDS,
                      start_record: int = 0,
                      tolerate_truncation: bool = True):
    """Yield a spool file's records as bounded structured-array chunks.

    The constant-memory read path: at most ``chunk_records`` records are
    resident per iteration regardless of file size, which is what lets
    the streaming engine profile arbitrarily long spools.  ``start_record``
    skips records already consumed (cursor-style tail reads).  A torn
    trailing record is dropped when ``tolerate_truncation`` is set,
    otherwise it raises :class:`TraceError`.
    """
    path = Path(path)
    chunk_bytes = max(1, int(chunk_records)) * RECORD_SIZE
    with path.open("rb") as fh:
        if start_record:
            fh.seek(start_record * RECORD_SIZE)
        pending = b""
        while True:
            blob = fh.read(chunk_bytes)
            if not blob:
                break
            if pending:
                blob = pending + blob
                pending = b""
            remainder = len(blob) % RECORD_SIZE
            if remainder:
                pending = blob[len(blob) - remainder:]
                blob = blob[: len(blob) - remainder]
            if blob:
                yield records_from_buffer(blob)
    if pending and not tolerate_truncation:
        raise TraceError(
            f"{path}: trailing {len(pending)} bytes are not a whole record"
        )


def write_spool_header(directory: Path, symtab: SymbolTable,
                       nodes: dict[str, dict], meta: dict) -> None:
    """Persist the bundle header alongside per-node spools.

    ``nodes`` maps node name -> {"tsc_hz": ..., "sensor_names": [...]}.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    dump_canonical(directory / "header.json", {
        "format": "tempest-spool-v1",
        "symtab": symtab.to_dict(),
        "nodes": nodes,
        "meta": meta,
    })


def read_spool_header(directory: Path) -> dict:
    """Load and validate a spool directory's ``header.json``."""
    directory = Path(directory)
    header_path = directory / "header.json"
    if not header_path.exists():
        raise TraceError(f"{directory} has no header.json")
    header = json.loads(header_path.read_text())
    if header.get("format") != "tempest-spool-v1":
        raise TraceError(f"unknown spool format {header.get('format')!r}")
    return header


def spool_to_bundle(directory: Path) -> TraceBundle:
    """Reassemble a TraceBundle from ``header.json`` + ``<node>.spool`` files."""
    directory = Path(directory)
    header = read_spool_header(directory)
    bundle = TraceBundle(SymbolTable.from_dict(header["symtab"]))
    bundle.meta = header.get("meta", {})
    for name, info in header["nodes"].items():
        trace = NodeTrace(name, info["tsc_hz"], info["sensor_names"])
        spool_file = directory / f"{name}.spool"
        if spool_file.exists():
            trace.extend_columns(read_spool_columns(spool_file))
        bundle.add_node(trace)
    return bundle
