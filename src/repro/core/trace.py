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

A :class:`TraceBundle` round-trips to disk as a directory containing a
JSON header (symbol table, node metadata, calibration) plus one compact
binary record file per node.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from repro.core.records import (
    RECORD_SIZE,
    RecordColumns,
    records_from_buffer,
)
from repro.core.symtab import SymbolTable
from repro.util.canonjson import dump_canonical
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
        """Write the bundle to *path* (a directory, created if needed).

        Each node's record file is one ``tobytes`` of its column array —
        byte-identical to the per-record ``struct.pack`` loop this
        replaced.  The optional per-node ``truncated`` key is only
        emitted when set, so bundles of intact traces stay byte-identical
        to pre-columnar writers.
        """
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)

        def node_info(t: NodeTrace) -> dict:
            info = {
                "tsc_hz": t.tsc_hz,
                "sensor_names": t.sensor_names,
                "n_records": len(t),
            }
            if t.truncated:
                info["truncated"] = True
            return info

        header = {
            "format": "tempest-trace-v1",
            "symtab": self.symtab.to_dict(),
            "meta": self.meta,
            "nodes": {name: node_info(t) for name, t in self.nodes.items()},
        }
        dump_canonical(path / "meta.json", header)
        for name, t in self.nodes.items():
            (path / f"{name}.trace").write_bytes(t.columns.to_bytes())

    @classmethod
    def load(cls, path: Path, *,
             tolerate_truncation: bool = False) -> "TraceBundle":
        """Read a bundle previously written by :meth:`save`.

        Every malformation — unreadable or torn ``meta.json``, a bad symbol
        table, a missing or truncated record file — surfaces as a clean
        :class:`TraceError`, never a ``json`` or ``struct`` exception from
        mid-record.  With ``tolerate_truncation`` a record file whose tail
        was lost (node died mid-write, partial copy off the cluster) is
        recovered instead: the torn partial record and anything the header
        promised beyond it are dropped, and the node's trace is marked
        ``truncated`` so the parser's consumers know the coverage story.
        A ``truncated`` flag persisted by :meth:`save` (a trace that was
        itself recovered before re-saving) is restored on load.
        """
        path = Path(path)
        meta_path = path / "meta.json"
        if not meta_path.exists():
            raise TraceError(f"{path} is not a trace bundle (no meta.json)")
        try:
            header = json.loads(meta_path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TraceError(f"{meta_path} is unreadable: {exc}")
        if not isinstance(header, dict):
            raise TraceError(f"{meta_path} is not a JSON object")
        if header.get("format") != "tempest-trace-v1":
            raise TraceError(f"unknown trace format {header.get('format')!r}")
        try:
            bundle = cls(SymbolTable.from_dict(header["symtab"]))
            node_infos = dict(header["nodes"])
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TraceError(f"{meta_path} header is malformed: {exc}")
        bundle.meta = header.get("meta", {})
        for name, info in node_infos.items():
            try:
                trace = NodeTrace(name, info["tsc_hz"], info["sensor_names"])
                trace.truncated = bool(info.get("truncated", False))
                declared = int(info["n_records"])
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceError(
                    f"node entry {name!r} in {meta_path} is malformed: {exc}"
                )
            rec_path = path / f"{name}.trace"
            try:
                blob = rec_path.read_bytes()
            except OSError as exc:
                if not tolerate_truncation:
                    raise TraceError(f"cannot read {rec_path}: {exc}")
                trace.truncated = True
                bundle.add_node(trace)
                continue
            remainder = len(blob) % RECORD_SIZE
            if remainder:
                if not tolerate_truncation:
                    raise TraceError(
                        f"{name}.trace is corrupt: {len(blob)} bytes is not "
                        f"a multiple of {RECORD_SIZE}"
                    )
                blob = blob[: len(blob) - remainder]
                trace.truncated = True
            n = len(blob) // RECORD_SIZE
            if n != declared:
                if not (tolerate_truncation and n < declared):
                    raise TraceError(
                        f"{name}.trace has {n} records, header says "
                        f"{declared}"
                    )
                trace.truncated = True
            trace.extend_columns(records_from_buffer(blob))
            bundle.add_node(trace)
        return bundle
