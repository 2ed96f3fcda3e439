"""Node-side collector: tail a :class:`TraceSpool`, ship it over the wire.

A :class:`CollectorClient` is the ``tempd``-side half of the cluster
collection service.  It reads a node's spool file in columnar chunks
(the same cursor-based tail reads live profiling uses), frames them as
``tempest-wire-v1`` CHUNKs, and pushes them through a **bounded send
queue**:

* ``policy="block"`` — a full queue drains inline through the transport
  before accepting more (backpressure propagates to the reader; nothing
  is ever dropped);
* ``policy="drop"`` — while the link is down, a full queue evicts its
  oldest chunk and accounts the loss in ``records_dropped``.  Dropped
  chunks are not lost data: the aggregator's EOF receipt reports how
  many records actually landed, the client rewinds its spool cursor to
  that count and retransmits — a drop costs bandwidth, never profile
  records.

The client's cursor discipline makes the at-least-once wire exactly-once:
the server's HELLO_ACK/EOF_ACK carry its authoritative record count, the
client only ever sends the chunk whose start equals its own cursor
(anything else is stale after a rewind and is discarded unsent), and
``push_spool`` loops until the EOF receipt covers the whole file.

Transient failures (torn frames, disconnects, :class:`~repro.faults.LossyWire`
injections) trigger reconnect-with-exponential-backoff; an ERROR frame
during HELLO is terminal (protocol violation — retrying cannot help).
The sleep function is injectable so fault-injection tests run the whole
retry schedule in zero wall-clock time.
"""

from __future__ import annotations

import logging
import socket
import time
from collections import deque
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Optional

from repro.cluster.wire import (
    FT_EOF,
    FT_EOF_ACK,
    FT_ERROR,
    FT_HEARTBEAT,
    FT_HELLO,
    FT_HELLO_ACK,
    FrameDecoder,
    WireError,
    decode_json,
    encode_chunk,
    encode_json_frame,
    hello_payload,
)
from repro.core.records import RECORD_SIZE
from repro.core.spool import SPOOL_CHUNK_RECORDS
from repro.core.trace import read_trace_header

_log = logging.getLogger(__name__)


class SocketTransport:
    """Blocking TCP transport speaking raw ``tempest-wire-v1`` bytes."""

    def __init__(self, host: str, port: int, *, timeout: float = 10.0):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._pending: list[tuple[int, bytes]] = []

    def send(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise ConnectionError(f"send failed: {exc}")

    def recv_frame(self) -> tuple[int, bytes]:
        """Block until one complete frame arrives; return (type, payload)."""
        if self._pending:
            return self._pending.pop(0)
        while True:
            try:
                data = self._sock.recv(1 << 16)
            except OSError as exc:
                raise ConnectionError(f"recv failed: {exc}")
            if not data:
                raise ConnectionError("server closed the connection")
            frames = self._decoder.feed(data)
            if frames:
                self._pending = frames[1:]
                return frames[0]

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


@dataclass(frozen=True)
class CollectorConfig:
    """Tuning for one collector client."""

    #: records per CHUNK frame (the spool's own chunk size by default)
    chunk_records: int = SPOOL_CHUNK_RECORDS
    #: bounded send-queue capacity, in frames
    queue_frames: int = 8
    #: "block" (drain inline, lossless) or "drop" (evict oldest, account)
    queue_policy: str = "block"
    #: enqueue a HEARTBEAT after this many chunks (0 disables)
    heartbeat_every: int = 16
    #: consecutive connection failures before giving up
    max_retries: int = 5
    #: exponential backoff: base * 2^attempt, capped
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0

    def __post_init__(self):
        if self.queue_policy not in ("block", "drop"):
            raise WireError(
                f"queue_policy must be 'block' or 'drop', "
                f"got {self.queue_policy!r}"
            )


@dataclass
class CollectorMetrics:
    """Client-side counters for one push."""

    frames_sent: int = 0
    bytes_sent: int = 0
    records_sent: int = 0
    records_dropped: int = 0
    reconnects: int = 0
    retries: int = 0
    queue_peak: int = 0

    def to_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


#: hard cap on full resend passes — with any sane fault rate the push
#: converges in a handful; hitting this means the link is unusable
_MAX_PASSES = 200


class CollectorClient:
    """Push one node's spool to an aggregator over a wire transport.

    *transport_factory* returns a fresh connected transport (an object
    with ``send``/``recv_frame``/``close``) each call — real sockets,
    the in-memory loopback, or a :class:`~repro.faults.LossyWire`
    wrapper around either.
    """

    def __init__(
        self,
        node_name: str,
        tsc_hz: float,
        sensor_names: list[str],
        symtab: dict[str, int],
        meta: dict,
        transport_factory: Callable,
        *,
        run: Optional[str] = None,
        config: CollectorConfig = CollectorConfig(),
        sleep_fn: Callable[[float], None] = time.sleep,
    ):
        self.node_name = node_name
        self.hello = hello_payload(node_name, tsc_hz, sensor_names,
                                   symtab, meta, run=run)
        self.transport_factory = transport_factory
        self.config = config
        self.sleep_fn = sleep_fn
        self.metrics = CollectorMetrics()
        self._transport = None
        #: the link died mid-drain (drop policy defers the reconnect so
        #: the bounded queue actually takes the pressure)
        self._dead = False
        #: next record index the server expects from us (authoritative
        #: value adopted from every HELLO_ACK / EOF_ACK)
        self._cursor = 0
        #: bounded send queue of ("chunk", start, n_records, frame_bytes)
        #: / ("beat", 0, 0, frame_bytes) entries
        self._queue: deque = deque()

    @classmethod
    def from_spool_header(cls, spool_dir, node_name: str,
                          transport_factory: Callable,
                          **kwargs) -> "CollectorClient":
        """Build a collector for one node of a trace directory (usually
        a finalized spool)."""
        header = read_trace_header(spool_dir)
        node = header.nodes.get(node_name)
        if node is None:
            raise WireError(
                f"{spool_dir} has no node {node_name!r}; "
                f"have {list(header.nodes)}"
            )
        return cls(
            node_name,
            float(node.tsc_hz),
            list(node.sensor_names),
            header.symtab.to_dict(),
            header.meta,
            transport_factory,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Connection management

    def _connect(self) -> None:
        """(Re)connect, HELLO, and adopt the server's resume cursor."""
        cfg = self.config
        last_exc: Optional[Exception] = None
        for attempt in range(cfg.max_retries + 1):
            if attempt:
                self.metrics.retries += 1
                delay = min(cfg.backoff_base_s * (2 ** (attempt - 1)),
                            cfg.backoff_max_s)
                self.sleep_fn(delay)
            try:
                transport = self.transport_factory()
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                continue
            try:
                transport.send(encode_json_frame(FT_HELLO, self.hello))
                self.metrics.frames_sent += 1
                ftype, payload = transport.recv_frame()
                if ftype == FT_ERROR:
                    raise WireError(
                        f"server rejected HELLO: "
                        f"{decode_json(payload).get('error')}"
                    )
                if ftype != FT_HELLO_ACK:
                    raise ConnectionError(
                        f"expected HELLO_ACK, got frame type {ftype}"
                    )
                self._cursor = int(decode_json(payload)["resume_from"])
                self._transport = transport
                self._dead = False
                return
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                try:
                    transport.close()
                except OSError:
                    pass
                _log.debug("%s: connect attempt %d failed: %s",
                           self.node_name, attempt, exc)
        raise WireError(
            f"{self.node_name}: could not reach the aggregator after "
            f"{cfg.max_retries + 1} attempts: {last_exc}"
        )

    def _reconnect(self) -> None:
        """Drop the dead connection; HELLO again; resume from the ack."""
        if self._transport is not None:
            try:
                self._transport.close()
            except OSError:
                pass
            self._transport = None
        self.metrics.reconnects += 1
        # Unsent queued frames are stale after a resume rewind: the spool
        # re-read from the acknowledged cursor covers them.
        self._queue.clear()
        self._connect()

    def close(self) -> None:
        if self._transport is not None:
            try:
                self._transport.close()
            except OSError:
                pass
            self._transport = None

    # ------------------------------------------------------------------
    # Bounded send queue

    def _evict_oldest(self) -> None:
        for i, item in enumerate(self._queue):
            if item[0] == "chunk":
                self.metrics.records_dropped += item[2]
                del self._queue[i]
                return
        self._queue.popleft()   # nothing but heartbeats queued

    def _enqueue(self, kind: str, start: int, n_records: int,
                 frame: bytes) -> None:
        cfg = self.config
        if len(self._queue) >= cfg.queue_frames and not self._dead:
            self._try_drain()
        while len(self._queue) >= cfg.queue_frames:
            if cfg.queue_policy != "drop":
                # Block policy: the drain above either emptied the queue
                # or reconnected (clearing it); a full queue here cannot
                # happen, but never busy-loop if it somehow does.
                break
            self._evict_oldest()
        self._queue.append((kind, start, n_records, frame))
        if len(self._queue) > self.metrics.queue_peak:
            self.metrics.queue_peak = len(self._queue)
        if not self._dead:
            self._try_drain()

    def _try_drain(self) -> bool:
        """Send queued frames in order; True if the queue fully drained.

        A chunk whose start no longer equals the cursor is stale — a
        reconnect rewound us, or the drop policy evicted a predecessor —
        and is discarded unsent (the push loop re-reads the spool from
        the cursor, so the server never sees a client-made gap).  On a
        send failure the drop policy marks the link dead and keeps the
        queue (that is the backpressure window); the block policy
        reconnects immediately.
        """
        while self._queue:
            kind, start, n_records, frame = self._queue[0]
            if kind == "chunk" and start != self._cursor:
                self._queue.popleft()
                continue
            try:
                self._transport.send(frame)
            except (ConnectionError, OSError):
                if self.config.queue_policy == "drop":
                    self._dead = True
                    return False
                self._reconnect()
                return False
            self.metrics.frames_sent += 1
            self.metrics.bytes_sent += len(frame)
            self._queue.popleft()
            if kind == "chunk":
                self.metrics.records_sent += n_records
                self._cursor = start + n_records
        return True

    # ------------------------------------------------------------------
    # Push

    def push_spool(self, spool_path, *,
                   progress_fn: Optional[Callable] = None) -> int:
        """Ship the whole spool file; return records acknowledged.

        Loops until the aggregator's EOF receipt covers every record in
        the file — reconnects, duplicate suppression, evictions, and
        rewinds all converge to that receipt, which is what makes the
        push exactly-once end to end.
        """
        from repro.core.spool import iter_spool_chunks

        spool_path = Path(spool_path)
        cfg = self.config
        for _pass in range(_MAX_PASSES):
            if self._transport is None:
                self._connect()
            elif self._dead:
                self._reconnect()
            total = spool_path.stat().st_size // RECORD_SIZE
            pos = self._cursor
            n_chunks = 0
            for arr in iter_spool_chunks(spool_path,
                                         chunk_records=cfg.chunk_records,
                                         start_record=pos):
                n = len(arr)
                self._enqueue("chunk", pos, n,
                              encode_chunk(pos, arr.tobytes()))
                pos += n
                n_chunks += 1
                if cfg.heartbeat_every and \
                        n_chunks % cfg.heartbeat_every == 0:
                    self._enqueue("beat", 0, 0, self._heartbeat())
                if progress_fn is not None:
                    progress_fn(self.metrics)
            if self._dead:
                continue
            if not self._try_drain():
                continue
            if self._cursor < total:
                continue
            received = self._send_eof(total)
            if received >= total:
                return received
            # The receipt says records are missing (evicted under
            # backpressure or lost on the wire): rewind and retransmit.
            self._cursor = received
        raise WireError(
            f"{self.node_name}: push did not converge after "
            f"{_MAX_PASSES} passes — link unusable"
        )

    def _heartbeat(self) -> bytes:
        return encode_json_frame(FT_HEARTBEAT, {
            "records_sent": self.metrics.records_sent,
            "queue_depth": len(self._queue),
            "records_dropped": self.metrics.records_dropped,
        })

    def _send_eof(self, total: int) -> int:
        """EOF / EOF_ACK exchange; returns the server's received count.

        Any failure here — connection loss, a pending server ERROR from
        an earlier damaged frame — reconnects and reports the rewound
        cursor, so the push loop retransmits the tail and retries.
        """
        try:
            self._transport.send(
                encode_json_frame(FT_EOF, {"records_total": total})
            )
            self.metrics.frames_sent += 1
            ftype, payload = self._transport.recv_frame()
        except (ConnectionError, OSError):
            self._reconnect()
            return self._cursor
        if ftype == FT_ERROR:
            _log.debug("%s: server error at EOF: %s", self.node_name,
                       decode_json(payload).get("error"))
            self._reconnect()
            return self._cursor
        if ftype != FT_EOF_ACK:
            raise WireError(f"expected EOF_ACK, got frame type {ftype}")
        return int(decode_json(payload)["records_received"])
