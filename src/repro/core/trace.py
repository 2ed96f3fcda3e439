"""Trace records, per-node traces, and the on-disk trace bundle.

Three record kinds flow through a node's trace, matching the two data
streams of §3.2 plus sensor identity:

* ``REC_ENTER`` / ``REC_EXIT`` — a function hook fired: the function's
  synthetic *address*, the raw TSC value, the core the hook executed on, and
  the pid of the process.
* ``REC_TEMP`` — tempd sampled one sensor: sensor index, raw TSC of the
  tempd core, and the quantized temperature in degC.

Timestamps are stored as raw TSC ticks (what rdtsc returns); converting to
seconds is the *parser's* job, using the per-node calibration stored in the
bundle — exactly the division of labour in the paper.

Storage is columnar: a :class:`NodeTrace` holds one
:class:`~repro.core.records.RecordColumns` (a numpy structured array in the
exact ``<Bqqiid`` byte layout); there is no per-record object type.  A
single event enters through :meth:`NodeTrace.append_event` as six
scalars, a batch through :meth:`NodeTrace.extend_columns`, and every
reader — save, spooling, parsing, diagnostics — moves whole arrays.

On disk a trace is a directory: a JSON header, ``header.json`` (symbol
table, node metadata, calibration), plus one binary record file per
node, ``<node>.spool``.  A session appends to the record files while it
runs (:mod:`repro.core.spool`); a header without record counts makes
the directory *live*.  A finished session, and :meth:`TraceBundle.save`,
write the header last and declare every node's record count: the
directory is *closed*.  :func:`read_trace_header` is the one reader of
a header, and :meth:`NodeHeader.iter_chunks` the one
reader of a node's record file; everything that opens a trace
directory goes through them.  Bundles written before the two layouts
became one are still read (:func:`read_trace_header`), never written.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.core.records import RECORD_SIZE, RecordColumns
from repro.core.symtab import SymbolTable
from repro.util.errors import TraceError

REC_ENTER = 1
REC_EXIT = 2
REC_TEMP = 3
# Communication events (PR 9): emitted by repro.mpisim when a traced rank
# posts/completes point-to-point messages or crosses a collective phase
# boundary.  They ride the same <Bqqiid layout: ``addr`` packs
# (rank, peer, tag, flags) — see repro.core.commrec — ``core`` carries the
# emitting rank's Lamport clock component, and ``value`` is kind-specific
# (payload bytes, matched-send clock, or collective op code).
REC_MSG_SEND = 4
REC_MSG_RECV = 5
REC_COLL_ENTER = 6
REC_COLL_EXIT = 7

#: kinds introduced by the communication sanitizer; readers that predate
#: them must skip-with-warning rather than reject the stream (the
#: forward-compat contract TL005 encodes)
COMM_KINDS = frozenset(
    (REC_MSG_SEND, REC_MSG_RECV, REC_COLL_ENTER, REC_COLL_EXIT))

#: every record kind this reader understands
KNOWN_KINDS = frozenset((REC_ENTER, REC_EXIT, REC_TEMP)) | COMM_KINDS

#: binary layout: kind, addr-or-sensor, tsc, core, pid, value
#: (kept as the reference layout; RECORD_DTYPE matches it byte-for-byte)
_REC_STRUCT = struct.Struct("<Bqqiid")
assert _REC_STRUCT.size == RECORD_SIZE, "columnar dtype diverged from <Bqqiid"


def check_tsc_hz(tsc_hz, where: str) -> float:
    """*tsc_hz* as a float; :class:`TraceError` unless finite and positive.

    Every ``tsc_hz`` a reader is handed (bundle header, spool header,
    wire HELLO, API call) passes here: a NaN or infinite calibration
    would otherwise turn every time in the profile into NaN or 0.0.
    """
    try:
        hz = float(tsc_hz)
    except (TypeError, ValueError):
        hz = math.nan
    if not (math.isfinite(hz) and hz > 0):
        raise TraceError(
            f"{where}: tsc_hz must be finite and positive, got {tsc_hz!r}")
    return hz


class NodeTrace:
    """Append-only record stream for one node, plus calibration metadata.

    Records live in :attr:`columns`, one structured array; readers take
    :meth:`func_columns` / :meth:`temp_columns` or ``columns.array``.
    Subclasses that intercept the record stream (spooling, fault
    injection) override :meth:`append_event` — every append funnels
    through it.
    """

    def __init__(self, node_name: str, tsc_hz: float,
                 sensor_names: list[str]):
        self.node_name = node_name
        # calibrated nominal TSC frequency
        self.tsc_hz = check_tsc_hz(tsc_hz, f"node {node_name!r}")
        self.sensor_names = list(sensor_names)
        self.columns = RecordColumns()
        #: set by tolerant loaders when this trace lost its tail on disk
        self.truncated = False

    def append_event(self, kind: int, addr: int, tsc: int, core: int,
                     pid: int, value: float = 0.0) -> None:
        """Append one event straight into the columns (the canonical sink;
        events arrive in per-core time order)."""
        self.columns.append_row(kind, addr, tsc, core, pid, value)

    def extend_columns(self, arr: np.ndarray) -> None:
        """Bulk-append a structured record array (vectorized sink).

        The base implementation is a single array copy; subclasses that
        intercept per-record appends override this with their vectorized
        equivalent (e.g. fault masks) so bulk loads stay bulk.
        """
        self.columns.extend_array(arr)

    def seconds(self, tsc):
        """Convert raw TSC value(s) to seconds using this node's calibration.

        Accepts a scalar or a numpy array (vectorized).
        """
        return tsc / self.tsc_hz

    def temp_columns(self) -> np.ndarray:
        """Temperature samples as a structured array, in arrival order."""
        arr = self.columns.array
        return arr[arr["kind"] == REC_TEMP]

    def func_columns(self) -> np.ndarray:
        """Function ENTER/EXIT events as a structured array, in arrival order."""
        arr = self.columns.array
        kind = arr["kind"]
        return arr[(kind == REC_ENTER) | (kind == REC_EXIT)]

    def iter_column_chunks(self, chunk_records: int):
        """Yield the record stream as bounded structured-array views.

        The in-memory twin of :func:`repro.core.spool.iter_spool_chunks`:
        feeding every chunk to a streaming consumer in order is equivalent
        to handing it the whole array at once — the chunk boundary carries
        no semantics.  Views, not copies; do not append while iterating.
        """
        if chunk_records < 1:
            raise TraceError(
                f"chunk_records must be positive, got {chunk_records}"
            )
        arr = self.columns.array
        for lo in range(0, len(arr), chunk_records):
            yield arr[lo:lo + chunk_records]

    def __len__(self) -> int:
        return len(self.columns)


class TraceBundle:
    """All nodes' traces for one profiled run, plus the symbol table."""

    def __init__(self, symtab: SymbolTable):
        self.symtab = symtab
        self.nodes: dict[str, NodeTrace] = {}
        self.meta: dict = {}

    def add_node(self, trace: NodeTrace) -> None:
        if trace.node_name in self.nodes:
            raise TraceError(f"duplicate node trace {trace.node_name!r}")
        self.nodes[trace.node_name] = trace

    def node(self, name: str) -> NodeTrace:
        try:
            return self.nodes[name]
        except KeyError:
            raise TraceError(f"no trace for node {name!r}; have {list(self.nodes)}")

    def total_records(self) -> int:
        """Record count across all nodes."""
        return sum(len(t) for t in self.nodes.values())

    # ------------------------------------------------------------------
    # Binary directory round-trip

    def save(self, path: Path) -> None:
        """Write the bundle to *path* (a directory, created if needed) as
        a closed spool.

        Each node's records go through :meth:`TraceSpool.write_array
        <repro.core.spool.TraceSpool.write_array>` to ``<node>.spool`` —
        one ``tobytes`` of its column array.  The header is written
        last (:func:`~repro.core.spool.write_spool_header`, a tmp file
        renamed into place) and declares each node's ``n_records``; the
        ``truncated`` key is only emitted when set.  Until the header
        lands, a fresh directory is not a trace directory.
        """
        from repro.core.spool import TraceSpool, write_spool_header

        path = Path(path)
        nodes = {}
        for name, t in self.nodes.items():
            with TraceSpool(path / f"{name}.spool") as spool:
                spool.write_array(t.columns.array)
            nodes[name] = {
                "tsc_hz": t.tsc_hz,
                "sensor_names": t.sensor_names,
                "n_records": len(t),
            }
            if t.truncated:
                nodes[name]["truncated"] = True
        write_spool_header(path, self.symtab, nodes, self.meta)

    @classmethod
    def load(cls, path: Path, *,
             tolerate_truncation: bool = False) -> "TraceBundle":
        """Read a trace directory, closed or live.

        Every malformation — unreadable or torn header, a bad symbol
        table or node entry, a missing, torn or miscounted record file —
        surfaces as a clean :class:`TraceError`; the record-file rules
        are :meth:`NodeHeader.iter_chunks`'s.  With
        ``tolerate_truncation`` a closed node whose record file lost its
        tail (node died mid-write, partial copy off the cluster) is
        recovered instead: the torn partial record is dropped, and the
        node's trace is marked ``truncated`` so the parser's consumers
        know the coverage story.  A ``truncated`` flag persisted by
        :meth:`save` (a trace that was itself recovered before
        re-saving) is restored on load.

        A live node's torn tail is a record still being written and its
        missing record file a node that has not spooled yet: the tail is
        dropped, the node loads empty, and neither marks it truncated.
        """
        header = read_trace_header(path)
        bundle = cls(header.symtab)
        bundle.meta = header.meta
        for node in header.nodes.values():
            trace = NodeTrace(node.name, node.tsc_hz, node.sensor_names)
            n, lost = node.count_records(
                tolerate_truncation=tolerate_truncation)
            trace.truncated = node.truncated or lost
            for chunk in node.iter_chunks(
                    max(n, 1), tolerate_truncation=tolerate_truncation):
                if len(trace):
                    trace.extend_columns(chunk)
                else:
                    # a fresh array read for this trace: adopt, no copy
                    trace.columns = RecordColumns.adopt(chunk)
            bundle.add_node(trace)
        return bundle


# ----------------------------------------------------------------------
# Trace directories: one header reader, one record reader


@dataclass(frozen=True)
class RecordStat:
    """One ``stat`` of a node's record file against its header: *n*
    whole records and *torn* trailing bytes, or the *error* that kept
    the file from being stat'ed; *declared* is None for a live node."""

    n: int
    torn: int
    declared: Optional[int]
    error: Optional[OSError] = None

    @property
    def size(self) -> int:
        return self.n * RECORD_SIZE + self.torn

    @property
    def short(self) -> bool:
        return self.declared is not None and self.n < self.declared

    @property
    def extra(self) -> bool:
        return self.declared is not None and self.n > self.declared


@dataclass(frozen=True)
class NodeHeader:
    """One node's entry in a trace directory header, validated."""

    name: str
    #: the header's calibration, a number; TL012 judges its plausibility
    tsc_hz: float
    sensor_names: list
    #: the record count a closed header declares; None in a live one,
    #: whose record file may still grow
    n_records: Optional[int]
    truncated: bool
    #: the node's record file (a live node's may not exist yet)
    path: Path

    def stat_records(self) -> RecordStat:
        """The node's record file held against the header's count: the
        verdict :meth:`count_records` and TraceLint judge by."""
        try:
            whole, torn = divmod(self.path.stat().st_size, RECORD_SIZE)
        except OSError as exc:
            return RecordStat(0, 0, self.n_records, exc)
        return RecordStat(whole, torn, self.n_records)

    def count_records(self, *, tolerate_truncation: bool = False
                      ) -> tuple[int, bool]:
        """The whole records in the node's record file, and whether a
        closed node lost records, by :meth:`stat_records`.

        A live node's torn tail is dropped and a missing record file
        holds no records.  A closed node's record file must hold exactly
        the declared count, whole, or :class:`TraceError` is raised —
        unless it is short (missing, torn or fewer records) and the
        caller tolerates truncation or the header marks the node
        ``truncated``: then it lost records.
        """
        st = self.stat_records()
        if st.declared is None:
            return st.n, False
        if st.error is not None and not tolerate_truncation:
            raise TraceError(f"cannot read {self.path}: {st.error}")
        if st.torn and not tolerate_truncation:
            raise TraceError(f"{self.path.name} is corrupt: {st.size} "
                             f"bytes is not a multiple of {RECORD_SIZE}")
        if st.extra or (st.short and not (
                tolerate_truncation or self.truncated)):
            raise TraceError(f"{self.path.name} has {st.n} records, "
                             f"header says {st.declared}")
        return st.n, st.error is not None or bool(st.torn) or st.short

    def iter_chunks(self, chunk_records: int, *,
                    tolerate_truncation: bool = False):
        """The node's records as bounded chunks: the one reader of a
        record file.

        :meth:`count_records` applies the header's count before any
        chunk is yielded; a torn tail is dropped.
        """
        from repro.core.spool import iter_spool_chunks

        if not self.count_records(
                tolerate_truncation=tolerate_truncation)[0]:
            return
        try:
            yield from iter_spool_chunks(self.path,
                                         chunk_records=chunk_records)
        except OSError as exc:
            raise TraceError(f"cannot read {self.path}: {exc}")


@dataclass(frozen=True)
class TraceHeader:
    """A trace directory's header: what every reader needs before it
    touches a record."""

    #: True when every node declares its record count (a finished
    #: session or :meth:`TraceBundle.save` wrote it); False for a live
    #: spool a session may still be appending to
    closed: bool
    symtab: SymbolTable
    meta: dict
    nodes: dict[str, NodeHeader]


def _is_number(x) -> bool:
    """A JSON number that fits a float (a boolean is not a number here)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        float(x)
    except OverflowError:
        return False
    return True


def is_trace_dir(path) -> bool:
    """Whether *path* holds a trace directory header (or a legacy one)."""
    path = Path(path)
    return (path / "header.json").is_file() or (path / "meta.json").is_file()


def read_trace_header(path) -> TraceHeader:
    """Read and validate the header of the trace directory *path*.

    The format string, the symbol table, ``meta`` and every node entry
    are checked here, once, for every reader; anything malformed raises
    :class:`TraceError`.  The directory is closed when every node
    declares ``n_records`` and live when none does; a header declaring
    counts for only some nodes is malformed.  Without ``header.json``, a
    legacy ``meta.json`` bundle (format ``tempest-trace-v1``, records in
    ``<node>.trace``, every count declared) is read as a closed
    directory.  Plausibility of well-typed values (a zero ``tsc_hz``,
    duplicate sensor names) is left to TraceLint.
    """
    path = Path(path)
    header_path, fmt, suffix = path / "header.json", "tempest-spool-v1", ".spool"
    legacy = not header_path.is_file()
    if legacy:
        # the layout bundles had before they became closed spools: read-only
        header_path, fmt, suffix = (path / "meta.json", "tempest-trace-v1",
                                    ".trace")
        if not header_path.is_file():
            raise TraceError(f"{path} is not a trace directory: it has "
                             "no header.json (nor a legacy meta.json)")
    try:
        doc = json.loads(header_path.read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise TraceError(f"{header_path} is unreadable: {exc}")
    if not isinstance(doc, dict):
        raise TraceError(f"{header_path} is not a JSON object")
    if doc.get("format") != fmt:
        raise TraceError(f"{header_path} declares format "
                         f"{doc.get('format')!r}, not {fmt!r}")
    meta, nodes = doc.get("meta", {}), doc.get("nodes")
    if not isinstance(meta, dict) or not isinstance(nodes, dict):
        raise TraceError(f"{header_path}: meta and nodes must be objects")
    if not _is_number(meta.get("sampling_hz", 0)):
        raise TraceError(f"{header_path}: sampling_hz "
                         f"{meta['sampling_hz']!r} is not a number")
    try:
        symtab = SymbolTable.from_dict(doc["symtab"])
    except (KeyError, TypeError, ValueError, OverflowError,
            AttributeError) as exc:
        raise TraceError(f"{header_path}: symbol table is malformed: {exc!r}")

    def node_header(node: str, info) -> NodeHeader:
        if not isinstance(info, dict):
            problem = "it is not an object"
        elif node in ("", ".", "..") or "/" in node or "\\" in node:
            problem = "the name is not a file name"
        elif not _is_number(info.get("tsc_hz")):
            problem = f"tsc_hz {info.get('tsc_hz')!r} is not a number"
        elif not (isinstance(info.get("sensor_names"), list) and all(
                isinstance(s, str) for s in info["sensor_names"])):
            problem = (f"sensor_names {info.get('sensor_names')!r} is not "
                       "a list of names")
        elif (legacy or "n_records" in info) and not (
                type(info.get("n_records")) is int
                and info["n_records"] >= 0):
            problem = f"n_records {info.get('n_records')!r} is not a count"
        elif not isinstance(info.get("truncated", False), bool):
            problem = f"truncated {info['truncated']!r} is not a boolean"
        else:
            return NodeHeader(node, info["tsc_hz"], info["sensor_names"],
                              info.get("n_records"),
                              info.get("truncated", False),
                              path / f"{node}{suffix}")
        raise TraceError(f"node entry {node!r} in {header_path} is "
                         f"malformed: {problem}")

    headers = {node: node_header(node, info) for node, info in nodes.items()}
    counted = [node for node, h in headers.items() if h.n_records is not None]
    if counted and len(counted) < len(headers):
        raise TraceError(f"{header_path} declares n_records for "
                         f"{sorted(counted)} but not for "
                         f"{sorted(set(headers) - set(counted))}")
    return TraceHeader(len(counted) == len(headers), symtab, meta, headers)
