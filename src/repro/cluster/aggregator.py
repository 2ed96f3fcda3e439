"""Cluster-side aggregation of ``tempest-wire-v1``/``v2`` streams.

The paper runs one ``tempd`` per node and merges the per-node streams
into a cluster profile after the fact; this module is the live version
of that merge.  An :class:`Aggregator` holds the protocol/merge logic
with **no I/O at all** — bytes in, response bytes out — so every path is
deterministically testable over the in-memory loopback transport.
:class:`AggregatorConnection` wraps it in the per-connection state
machine, a :class:`RunRegistry` hosts many concurrent runs behind one
listener, and :class:`repro.cluster.asyncserver.AsyncAggregatorServer`
adds the non-blocking selectors event loop on top.

Two kinds of source feed an aggregator:

* **collectors** (wire-v1, unchanged) stream raw record CHUNKs — the
  leaf/standalone role;
* **leaf aggregators** (wire-v2) stream cumulative
  ``tempest-summary-v3`` SUMMARY snapshots — the fan-in tier.  A root
  composes the global profile from the latest snapshot per leaf
  (last-write-wins by ``seq``; duplication, loss, and reorder are
  absorbed because every snapshot is cumulative) without ever seeing a
  raw record.

Delivery semantics: the wire is at-least-once (collectors retransmit
after reconnects; :class:`~repro.faults.LossyWire` duplicates and drops
frames on purpose), and the aggregator makes it exactly-once by keeping
one authoritative cursor per node — ``n_records`` accepted so far:

* a chunk starting exactly at the cursor is appended;
* a chunk entirely below the cursor is a duplicate — dropped, counted;
* a chunk straddling the cursor has its already-seen prefix trimmed;
* a chunk starting *beyond* the cursor is a gap (frames were lost or
  dropped under backpressure) — the connection resets, and the
  collector's reconnect HELLO learns ``resume_from`` = the cursor, so
  lost data costs a retransmit, never a hole in the profile.

Each node's accepted record bytes accumulate verbatim (the zero
re-encode invariant), so the drained bundle is byte-identical to what
the node's own spool would have produced, and the merged profile is
computed by the same per-node fold the in-process path uses — equality
with the single-process profile is exact, not approximate.  The bundle
views those bytes without a copy, and the merged profile folds its
nodes one per CPU.

Connection state machine (drift-documented in ``docs/INTERNALS.md``)::

    WAIT_HELLO --HELLO/ack--> STREAMING ----EOF/ack----> DRAINED
         |                        |
         |  (role=leaf)           +--> closed (WireError; client
         +--HELLO/ack--> SUMMARIZING         reconnects and resumes)
                              |
                              +--EOF/ack (caught up)--> DRAINED
                              +--EOF/ack (behind)--> SUMMARIZING
"""

from __future__ import annotations

import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

from repro.cluster.wire import (
    DEFAULT_RUN,
    FRAME_TYPES,
    FT_CHUNK,
    FT_EOF,
    FT_EOF_ACK,
    FT_ERROR,
    FT_HEARTBEAT,
    FT_HELLO,
    FT_HELLO_ACK,
    FT_SUMMARY,
    WIRE_FORMAT,
    WIRE_FORMAT_V2,
    FrameDecoder,
    WireError,
    decode_chunk,
    decode_json,
    encode_json_frame,
)
from repro.core.parser import attach_sensor_series
from repro.core.profilemodel import RunProfile
from repro.core.records import RECORD_SIZE, RecordColumns, records_from_buffer
from repro.core.streamprof import (
    StreamingRunProfiler,
    bundle_sources,
    fold_profile,
)
from repro.core.summary import RunSummary
from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace, TraceBundle, check_tsc_hz
from repro.util.errors import TraceError

_log = logging.getLogger(__name__)

#: connection states
ST_WAIT_HELLO = "WAIT_HELLO"
ST_STREAMING = "STREAMING"
ST_SUMMARIZING = "SUMMARIZING"
ST_DRAINED = "DRAINED"

#: ``merged_profile`` pool ceiling.  Each worker holds about one fold
#: chunk's working set (~7.6 MB at collect-64's 31k records per node);
#: there 8 workers peaked below the serial copy-then-parse path and 16
#: above it (docs/INTERNALS.md).
_MAX_WORKERS = 8


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    has no affinity mask)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class WireMetrics:
    """Aggregator-side counters for one run.

    Every field is one metric; :meth:`to_dict` is the serialized form and
    ``docs/INTERNALS.md`` carries the catalogue — a drift test asserts
    the two stay in sync (same mechanism as the diagnostics catalogue).
    """

    #: complete frames accepted (all types, across all connections)
    frames_in: int = 0
    #: payload + header bytes of those frames
    bytes_in: int = 0
    #: records accepted into node buffers (after dedup/trim)
    records_in: int = 0
    #: records discarded as already-seen duplicates
    dup_records: int = 0
    #: connections reset because a chunk started beyond the cursor
    gap_resets: int = 0
    #: HELLOs for a node that had already said HELLO before
    reconnects: int = 0
    #: records the collectors reported dropping under backpressure
    client_drops: int = 0
    #: deepest send-queue depth any collector reported
    client_queue_peak: int = 0
    #: heartbeat frames received
    heartbeats: int = 0
    #: summary snapshots accepted from leaf aggregators (after seq dedup)
    summaries_in: int = 0
    #: connections evicted after the stale-source timeout
    stale_evictions: int = 0
    #: protocol errors (bad frames, bad state, symtab conflicts)
    errors: int = 0

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: metric-name registry (drift-tested against docs/INTERNALS.md)
METRIC_NAMES: tuple[str, ...] = tuple(f.name for f in fields(WireMetrics))


class RecordBuffer:
    """Append-heavy byte sink for one node's accepted records.

    A plain ``bytearray`` is pathological here: tens of per-connection
    buffers growing round-robin defeat realloc's in-place growth, so
    every ``extend`` copies the whole buffer — O(n²) bytes moved per
    node, and the aggregation server's actual hot loop.  Chunks are
    kept as-is and joined once, on first read; a read compacts, so
    repeated ``bytes()`` calls stay O(1) until the next append.
    """

    __slots__ = ("_chunks", "_n")

    def __init__(self):
        self._chunks: list[bytes] = []
        self._n = 0

    def extend(self, data) -> None:
        self._chunks.append(bytes(data))
        self._n += len(self._chunks[-1])

    def __len__(self) -> int:
        return self._n

    def __bytes__(self) -> bytes:
        if len(self._chunks) != 1:
            self._chunks = [b"".join(self._chunks)]
        return self._chunks[0]


@dataclass
class NodeState:
    """Everything the aggregator knows about one node's stream."""

    name: str
    tsc_hz: float
    sensor_names: list[str]
    meta: dict
    #: accepted record bytes, verbatim (the zero re-encode buffer)
    buf: RecordBuffer = field(default_factory=RecordBuffer)
    #: authoritative cursor: records accepted so far
    n_records: int = 0
    #: the node sent EOF and it was fully satisfied
    drained: bool = False
    #: records_total the last EOF declared (None until first EOF)
    declared_total: Optional[int] = None
    #: monotonic timestamp of the last frame seen from this node (any
    #: type — HEARTBEAT, CHUNK, or EOF all count as liveness)
    last_heartbeat: float = 0.0
    #: the stale-timeout reaper gave up on this node; its accepted
    #: records stay in the profile but its silence no longer blocks drain
    evicted: bool = False


@dataclass
class LeafState:
    """Everything a root aggregator knows about one downstream leaf.

    A leaf's snapshots are cumulative, so the root keeps only the latest
    one (highest ``seq``) — duplication, loss, and reorder on the uplink
    are all absorbed by last-write-wins.
    """

    name: str
    #: highest snapshot sequence number accepted so far
    last_seq: int = 0
    #: records the latest snapshot said the leaf had accepted
    records: int = 0
    #: the latest cumulative snapshot (None until the first SUMMARY)
    summary: Optional[RunSummary] = None
    #: seq the leaf's EOF declared final (None until EOF)
    final_seq: Optional[int] = None
    #: monotonic timestamp of the last frame seen from this leaf
    last_heartbeat: float = 0.0
    #: the stale-timeout reaper gave up on this leaf (its latest
    #: snapshot still counts; its silence no longer blocks drain)
    evicted: bool = False

    @property
    def drained(self) -> bool:
        """The leaf sent EOF and its final snapshot has landed."""
        return self.final_seq is not None and self.last_seq >= self.final_seq


class Aggregator:
    """Protocol-and-merge core: frames in, per-node record buffers out.

    Thread-safe (the socket server's selectors loop drives it from one
    background thread while other threads read snapshots and metrics);
    I/O-free (the loopback transport drives it directly).
    With ``live=True`` every accepted chunk is *also* folded into a
    streaming :class:`~repro.core.streamprof.ProfileAccumulator` per
    node, so :meth:`live_snapshot` yields a mid-run merged profile at
    O(functions × sensors) extra memory.
    """

    def __init__(self, *, live: bool = False,
                 hcct_budget: Optional[int] = None,
                 now_fn: Callable[[], float] = time.monotonic):
        self.live = live
        #: HCCT budget for the live profiler (None = flat profiles only)
        self.hcct_budget = hcct_budget
        self.now_fn = now_fn
        self.symtab = SymbolTable()
        self.nodes: dict[str, NodeState] = {}
        self.leaves: dict[str, LeafState] = {}
        self.metrics = WireMetrics()
        self.meta: dict = {}
        self._lock = threading.Lock()
        self._live_profiler: Optional[StreamingRunProfiler] = None

    # ------------------------------------------------------------------
    # Frame handling (called under one connection's thread)

    def on_hello(self, payload: bytes) -> tuple[str, bytes]:
        """Process a HELLO; return (node_name, HELLO_ACK bytes)."""
        obj = decode_json(payload)
        fmt = obj.get("format")
        if fmt not in (WIRE_FORMAT, WIRE_FORMAT_V2):
            raise WireError(
                f"HELLO declares format {fmt!r}, expected {WIRE_FORMAT!r} "
                f"or {WIRE_FORMAT_V2!r}"
            )
        try:
            name = str(obj["node"])
            tsc_hz = check_tsc_hz(obj["tsc_hz"], f"node {name!r}")
            sensor_names = [str(s) for s in obj["sensor_names"]]
            symtab = {str(k): int(v) for k, v in obj["symtab"].items()}
            meta = dict(obj.get("meta", {}))
        except (KeyError, TypeError, ValueError, AttributeError,
                TraceError) as exc:
            raise WireError(f"malformed HELLO: {exc}")
        with self._lock:
            try:
                self.symtab.merge(symtab)
            except TraceError as exc:
                self.metrics.errors += 1
                raise WireError(str(exc))
            if not self.meta:
                self.meta = meta
            node = self.nodes.get(name)
            if node is None:
                node = NodeState(name, tsc_hz, sensor_names, meta)
                self.nodes[name] = node
                if self.live:
                    self._live().add_node(name, tsc_hz, sensor_names)
            else:
                self.metrics.reconnects += 1
            node.last_heartbeat = self.now_fn()
            node.evicted = False
            resume = node.n_records
        return name, encode_json_frame(FT_HELLO_ACK, {"resume_from": resume})

    def on_leaf_hello(self, payload: bytes) -> tuple[str, bytes]:
        """Process a leaf's v2 HELLO; return (leaf_name, HELLO_ACK bytes).

        The ack carries ``resume_seq`` — the highest snapshot seq already
        accepted — so a reconnecting leaf knows its cumulative state
        survived (it resends only if its local seq is ahead).
        """
        obj = decode_json(payload)
        try:
            name = str(obj["leaf"])
            meta = dict(obj.get("meta", {}))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise WireError(f"malformed leaf HELLO: {exc}")
        with self._lock:
            if not self.meta:
                self.meta = meta
            leaf = self.leaves.get(name)
            if leaf is None:
                leaf = LeafState(name)
                self.leaves[name] = leaf
            else:
                self.metrics.reconnects += 1
            leaf.last_heartbeat = self.now_fn()
            leaf.evicted = False
            resume = leaf.last_seq
        return name, encode_json_frame(FT_HELLO_ACK, {"resume_seq": resume})

    def on_summary(self, leaf_name: str, payload: bytes) -> None:
        """Fold one cumulative SUMMARY snapshot in (last-write-wins)."""
        obj = decode_json(payload)
        try:
            seq = int(obj["seq"])
            records = int(obj.get("records", 0))
            summary = RunSummary.from_dict(obj["summary"])
        except WireError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError,
                TraceError) as exc:
            raise WireError(f"{leaf_name}: malformed SUMMARY: {exc}")
        with self._lock:
            leaf = self.leaves[leaf_name]
            leaf.last_heartbeat = self.now_fn()
            if seq <= leaf.last_seq and leaf.summary is not None:
                # A duplicate or out-of-order snapshot: the one we hold
                # already covers it (snapshots are cumulative).
                return
            leaf.last_seq = seq
            leaf.records = records
            leaf.summary = summary
            self.metrics.summaries_in += 1

    def on_leaf_eof(self, leaf_name: str, payload: bytes) -> bytes:
        """Process a leaf's EOF; return the EOF_ACK receipt bytes.

        The receipt tells the leaf the highest seq that landed; a leaf
        whose final snapshot was lost sees ``last_seq < final_seq`` and
        resends before retrying EOF.
        """
        obj = decode_json(payload)
        try:
            final_seq = int(obj["final_seq"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed leaf EOF: {exc}")
        with self._lock:
            leaf = self.leaves[leaf_name]
            leaf.final_seq = final_seq
            leaf.last_heartbeat = self.now_fn()
            last = leaf.last_seq
        return encode_json_frame(FT_EOF_ACK, {"last_seq": last})

    def on_chunk(self, node_name: str, payload: bytes) -> None:
        """Fold one CHUNK into the node's buffer (dedup/trim/gap logic)."""
        start, blob, arr = decode_chunk(payload)
        n_new = len(blob) // RECORD_SIZE
        with self._lock:
            node = self.nodes[node_name]
            node.last_heartbeat = self.now_fn()
            cursor = node.n_records
            if start > cursor:
                # Records went missing between the cursor and this chunk
                # (dropped under backpressure or lost on the wire): reset
                # the connection so the collector re-HELLOs and learns
                # the resume point.  The spool retains everything, so a
                # gap costs a retransmit, never data.
                self.metrics.gap_resets += 1
                raise WireError(
                    f"{node_name}: chunk starts at record {start} but "
                    f"only {cursor} received — gap, resetting"
                )
            if start + n_new <= cursor:
                self.metrics.dup_records += n_new
                return
            if start < cursor:
                skip = cursor - start
                self.metrics.dup_records += skip
                blob = blob[skip * RECORD_SIZE:]
                arr = arr[skip:]
                n_new -= skip
            node.buf.extend(blob)
            node.n_records += n_new
            self.metrics.records_in += n_new
            if self.live and n_new:
                # decode_chunk already produced the record array — hand
                # the (dedup-trimmed) view straight to the streaming
                # accumulator instead of re-decoding the bytes.  Safe:
                # streaming consume() extracts what it keeps; it never
                # retains the input view past the call.
                self._live().consume(node_name, arr)

    def on_heartbeat(self, node_name: str, payload: bytes) -> None:
        obj = decode_json(payload)
        with self._lock:
            self.metrics.heartbeats += 1
            node = self.nodes.get(node_name)
            if node is not None:
                node.last_heartbeat = self.now_fn()
            else:
                leaf = self.leaves.get(node_name)
                if leaf is not None:
                    leaf.last_heartbeat = self.now_fn()
            drops = int(obj.get("records_dropped", 0))
            if drops > self.metrics.client_drops:
                self.metrics.client_drops = drops
            depth = int(obj.get("queue_depth", 0))
            if depth > self.metrics.client_queue_peak:
                self.metrics.client_queue_peak = depth

    def on_eof(self, node_name: str, payload: bytes) -> bytes:
        """Process an EOF; return the EOF_ACK receipt bytes."""
        obj = decode_json(payload)
        try:
            total = int(obj["records_total"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WireError(f"malformed EOF: {exc}")
        with self._lock:
            node = self.nodes[node_name]
            node.last_heartbeat = self.now_fn()
            node.declared_total = total
            # The drain receipt tells the collector how much actually
            # landed; a collector that dropped frames sees received <
            # total, rewinds to `received`, and retransmits the rest.
            node.drained = node.n_records >= total
            received = node.n_records
        return encode_json_frame(FT_EOF_ACK, {"records_received": received})

    # ------------------------------------------------------------------
    # Drain / results

    def _live(self) -> StreamingRunProfiler:
        # Callers hold self._lock.
        if self._live_profiler is None:
            self._live_profiler = StreamingRunProfiler(
                self.symtab,
                sampling_hz=float(self.meta.get("sampling_hz", 4.0)),
                strict=False,
                meta=dict(self.meta),
                hcct_budget=self.hcct_budget,
            )
        return self._live_profiler

    def all_drained(self, expected_nodes: Optional[int] = None) -> bool:
        """True when every known source — collector nodes and downstream
        leaves — has a fully satisfied EOF (and at least *expected_nodes*
        sources exist, if given)."""
        with self._lock:
            n_sources = len(self.nodes) + len(self.leaves)
            if not n_sources:
                return False
            if expected_nodes is not None and n_sources < expected_nodes:
                return False
            return (all(n.drained or n.evicted for n in self.nodes.values())
                    and all(lf.drained or lf.evicted
                            for lf in self.leaves.values()))

    def evict_stale(self, timeout_s: float) -> list[str]:
        """Give up on undrained sources silent for longer than *timeout_s*.

        A dead collector or leaf must not wedge ``all_drained`` forever:
        the source is marked evicted (everything it already delivered
        stays in the profile; its silence just stops gating the drain), a
        revived source re-HELLOs and resumes from its cursor as usual,
        and ``stale_evictions`` counts each give-up.  Returns the names
        evicted by this sweep.
        """
        now = self.now_fn()
        evicted: list[str] = []
        with self._lock:
            sources = list(self.nodes.values()) + list(self.leaves.values())
            for src in sources:
                if src.drained or src.evicted:
                    continue
                if now - src.last_heartbeat > timeout_s:
                    src.evicted = True
                    self.metrics.stale_evictions += 1
                    evicted.append(src.name)
        for name in evicted:
            _log.warning("evicted stale source %s (silent > %.1fs)",
                         name, timeout_s)
        return evicted

    def to_bundle(self) -> TraceBundle:
        """Reassemble the accepted streams as a :class:`TraceBundle`.

        Each node's trace adopts a read-only view of its compacted
        record buffer, no copy, so its ``<node>.spool`` on
        :meth:`save_bundle` is byte-identical to the locally saved
        bundle for the same run (the TL022 contract).  The view stays
        valid as more chunks arrive: a later read compacts into a new
        buffer and leaves this one alone.  Nodes are emitted in sorted
        order — arrival order is a property of the network, not of the
        run.
        """
        with self._lock:
            bundle = TraceBundle(self.symtab)
            bundle.meta = dict(self.meta)
            for name in sorted(self.nodes):
                node = self.nodes[name]
                trace = NodeTrace(name, node.tsc_hz, node.sensor_names)
                trace.columns = RecordColumns.adopt(
                    records_from_buffer(bytes(node.buf)))
                bundle.add_node(trace)
            return bundle

    def merged_profile(self) -> RunProfile:
        """The cluster profile of everything accepted, leniently — the
        fold the in-process path runs over the same records
        (:func:`~repro.core.streamprof.stream_bundle_profile` plus the
        raw sensor series), so the result is *equal*, not approximately
        equal, when the streams arrived intact.

        Nodes fold one per CPU, at most :data:`_MAX_WORKERS`, on a
        thread pool (numpy releases the GIL for most of a node's fold);
        each node has its own accumulator and only reads the symbol
        table, so the profile is the serial fold's, and an error is the
        first failing node's in sorted order.
        """
        bundle = self.to_bundle()
        workers = min(len(bundle.nodes), _usable_cpus(), _MAX_WORKERS)
        with ThreadPoolExecutor(max(1, workers)) as pool:
            profile = fold_profile(bundle.symtab, bundle.meta,
                                   bundle_sources(bundle), strict=False,
                                   map=pool.map)
        return attach_sensor_series(profile, bundle)

    def live_snapshot(self) -> RunProfile:
        """Mid-stream merged profile (requires ``live=True``)."""
        with self._lock:
            if not self.live:
                raise WireError("aggregator was not started with live=True")
            return self._live().snapshot()

    def run_summary(self, *, final: bool = False) -> RunSummary:
        """The mergeable summary of this aggregator's own record streams.

        This is what a **leaf** ships upstream: a cumulative
        ``tempest-summary-v3`` snapshot of everything accepted so far
        (requires ``live=True`` — the streaming accumulators *are* the
        summary state).  ``final=True`` closes open frames and freezes
        the accumulators; use it only for the last snapshot.
        """
        with self._lock:
            if not self.live:
                raise WireError(
                    "run summaries need live=True (a leaf aggregator "
                    "folds records into streaming accumulators)"
                )
            return self._live().summary(final=final)

    def composed_summary(self, *, final: bool = False) -> RunSummary:
        """The global summary: latest leaf snapshots + own streams.

        Leaves merge in sorted-name order (determinism); if this
        aggregator also accepted records directly (``live=True`` with
        nodes) their summary merges in last.  This is what a **root**
        builds the fan-in profile from.
        """
        with self._lock:
            parts = [self.leaves[name].summary for name in sorted(self.leaves)
                     if self.leaves[name].summary is not None]
            own: Optional[RunSummary] = None
            if self.live and self.nodes:
                own = self._live().summary(final=final)
        composed = RunSummary.empty()
        for part in parts:
            composed.merge(part)
        if own is not None:
            composed.merge(own)
        return composed

    def fanin_profile(self) -> RunProfile:
        """The global cluster profile composed from leaf summaries.

        No raw record ever reached this process for the leaf-fed nodes —
        the profile comes from the summary algebra, which is exact for
        counts, times, ``min``/``max``/``med``/``mod``, and moments up to
        summation-order rounding.
        """
        return self.composed_summary().to_profile()

    def stats_snapshot(self) -> dict:
        """A JSON-ready observability snapshot (for ``--metrics-json``)."""
        with self._lock:
            return {
                "metrics": self.metrics.to_dict(),
                "nodes": {
                    name: {
                        "records": node.n_records,
                        "drained": node.drained,
                        "evicted": node.evicted,
                    }
                    for name, node in sorted(self.nodes.items())
                },
                "leaves": {
                    name: {
                        "last_seq": leaf.last_seq,
                        "records": leaf.records,
                        "drained": leaf.drained,
                        "evicted": leaf.evicted,
                    }
                    for name, leaf in sorted(self.leaves.items())
                },
            }

    def save_bundle(self, path) -> None:
        """Persist the accepted streams as a closed trace directory
        (:meth:`TraceBundle.save <repro.core.trace.TraceBundle.save>`)."""
        self.to_bundle().save(Path(path))


class RunRegistry:
    """Many concurrent runs behind one listener.

    A v2 HELLO names its run; v1 HELLOs (and v2 ones without a ``run``)
    land in :data:`~repro.cluster.wire.DEFAULT_RUN`.  Each run gets its
    own :class:`Aggregator` — own symbol table, own cursor state, own
    metrics — so concurrent runs never contaminate each other.
    """

    def __init__(self, *, live: bool = False,
                 hcct_budget: Optional[int] = None,
                 now_fn: Callable[[], float] = time.monotonic):
        self.live = live
        self.hcct_budget = hcct_budget
        self.now_fn = now_fn
        self._lock = threading.Lock()
        self._runs: dict[str, Aggregator] = {}

    def get(self, run_id: str = DEFAULT_RUN) -> Aggregator:
        """The aggregator for *run_id*, created on first use."""
        with self._lock:
            agg = self._runs.get(run_id)
            if agg is None:
                agg = Aggregator(live=self.live,
                                 hcct_budget=self.hcct_budget,
                                 now_fn=self.now_fn)
                self._runs[run_id] = agg
            return agg

    def items(self) -> list[tuple[str, Aggregator]]:
        with self._lock:
            return sorted(self._runs.items())

    def run_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._runs)

    def all_drained(self, expected_sources: Optional[int] = None) -> bool:
        """True when every run drained and, if given, at least
        *expected_sources* sources exist across all runs."""
        items = self.items()
        if not items:
            return False
        if expected_sources is not None:
            n = sum(len(agg.nodes) + len(agg.leaves) for _, agg in items)
            if n < expected_sources:
                return False
        return all(agg.all_drained() for _, agg in items)

    def evict_stale(self, timeout_s: float) -> list[str]:
        """Sweep every run's stale sources; return evicted names."""
        evicted: list[str] = []
        for _run, agg in self.items():
            evicted.extend(agg.evict_stale(timeout_s))
        return evicted

    def stats_snapshot(self) -> dict:
        """Per-run observability snapshots, keyed by run id."""
        return {run: agg.stats_snapshot() for run, agg in self.items()}


class AggregatorConnection:
    """Per-connection protocol state machine over an :class:`Aggregator`
    or a :class:`RunRegistry`.

    ``on_bytes`` absorbs raw received bytes and returns the response
    bytes to send back; a :class:`WireError` raised out of it means the
    connection must be closed (the peer reconnects and resumes).  Pure
    computation — the async socket server and the loopback transport
    both drive connections through this one code path.

    Over a registry the connection is unrouted until its HELLO names a
    run (v1 HELLOs land in :data:`~repro.cluster.wire.DEFAULT_RUN`); a
    ``role: "leaf"`` HELLO takes the SUMMARIZING branch of the state
    machine, everything else streams records as before.
    """

    def __init__(self, target: "Aggregator | RunRegistry"):
        if isinstance(target, RunRegistry):
            self.registry: Optional[RunRegistry] = target
            self.aggregator: Optional[Aggregator] = None
        else:
            self.registry = None
            self.aggregator = target
        self.decoder = FrameDecoder()
        self.state = ST_WAIT_HELLO
        self.node_name: Optional[str] = None
        self.run_id: str = DEFAULT_RUN
        self.role: str = "collector"

    def _metrics_aggregator(self) -> Aggregator:
        # Where to account a frame that failed before (or without) run
        # resolution: the resolved run if known, the default run else.
        if self.aggregator is not None:
            return self.aggregator
        return self.registry.get(DEFAULT_RUN)

    def on_bytes(self, data: bytes) -> list[bytes]:
        """Feed received bytes; return response frames (as raw bytes)."""
        out: list[bytes] = []
        try:
            frames = self.decoder.feed(data)
        except WireError:
            agg = self._metrics_aggregator()
            with agg._lock:
                agg.metrics.errors += 1
            raise
        for ftype, payload in frames:
            try:
                responses = self._on_frame(ftype, payload)
            except WireError as exc:
                agg = self._metrics_aggregator()
                with agg._lock:
                    agg.metrics.frames_in += 1
                    agg.metrics.bytes_in += len(payload) + 11
                    agg.metrics.errors += 1
                _log.debug("connection for %s: %s", self.node_name, exc)
                raise
            agg = self.aggregator
            with agg._lock:
                agg.metrics.frames_in += 1
                agg.metrics.bytes_in += len(payload) + 11  # header is 11 bytes
            out.extend(responses)
        return out

    def _on_frame(self, ftype: int, payload: bytes) -> list[bytes]:
        if self.state == ST_WAIT_HELLO:
            if ftype != FT_HELLO:
                raise WireError(
                    f"expected HELLO, got {FRAME_TYPES[ftype]}"
                )
            obj = decode_json(payload)
            self.run_id = str(obj.get("run") or DEFAULT_RUN)
            self.role = str(obj.get("role") or "collector")
            if self.aggregator is None:
                self.aggregator = self.registry.get(self.run_id)
            if self.role == "leaf":
                self.node_name, ack = self.aggregator.on_leaf_hello(payload)
                self.state = ST_SUMMARIZING
            else:
                self.node_name, ack = self.aggregator.on_hello(payload)
                self.state = ST_STREAMING
            return [ack]
        agg = self.aggregator
        if self.state == ST_STREAMING:
            if ftype == FT_CHUNK:
                agg.on_chunk(self.node_name, payload)
                return []
            if ftype == FT_HEARTBEAT:
                agg.on_heartbeat(self.node_name, payload)
                return []
            if ftype == FT_EOF:
                ack = agg.on_eof(self.node_name, payload)
                self.state = ST_DRAINED
                return [ack]
            raise WireError(
                f"{self.node_name}: {FRAME_TYPES[ftype]} frame while "
                "streaming"
            )
        if self.state == ST_SUMMARIZING:
            if ftype == FT_SUMMARY:
                agg.on_summary(self.node_name, payload)
                return []
            if ftype == FT_HEARTBEAT:
                agg.on_heartbeat(self.node_name, payload)
                return []
            if ftype == FT_EOF:
                ack = agg.on_leaf_eof(self.node_name, payload)
                # A leaf only drains once its declared final snapshot
                # actually landed; otherwise it stays SUMMARIZING so the
                # resend can arrive on this same connection.
                with agg._lock:
                    drained = agg.leaves[self.node_name].drained
                if drained:
                    self.state = ST_DRAINED
                return [ack]
            raise WireError(
                f"{self.node_name}: {FRAME_TYPES[ftype]} frame while "
                "summarizing"
            )
        raise WireError(
            f"{self.node_name}: {FRAME_TYPES[ftype]} frame after EOF"
        )

    def on_disconnect(self) -> None:
        """The peer vanished: drop any partial frame; the cursor stands."""
        self.decoder.reset()

    def error_frame(self, message: str) -> bytes:
        """A terminal ERROR frame to send before closing."""
        return encode_json_frame(FT_ERROR, {"error": message})
