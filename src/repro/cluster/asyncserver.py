"""Non-blocking socket front end for the aggregator: one event loop,
many connections, many runs.

The threaded server this replaces spent one OS thread per collector —
fine for a rack, wasteful for a cluster.  Here a single daemon thread
runs a :mod:`selectors` event loop over every connection; the protocol
work stays in :class:`~repro.cluster.aggregator.AggregatorConnection`
(pure computation), so the loop only moves bytes:

* readable socket → ``recv`` → ``on_bytes`` → queue the response bytes;
* writable socket with queued bytes → ``send`` as much as the kernel
  takes (partial sends just stay queued);
* protocol error → queue one terminal ERROR frame, close after it
  flushes;
* per tick (~50 ms): evict stale sources, re-check the drain condition,
  and (optionally) write an atomic metrics snapshot to disk.

A :class:`~repro.cluster.aggregator.RunRegistry` sits behind the loop,
so one listener hosts any number of concurrent runs — collectors and
leaf aggregators name their run in the HELLO and never see each other.

The metrics file (``--metrics-json``) is a ``tempest-serve-metrics-v1``
JSON document rewritten atomically (temp file + ``os.replace``) every
*metrics_interval_s*, so an operator can ``watch jq`` it while a run is
live without ever reading a torn write.
"""

from __future__ import annotations

import json
import logging
import os
import selectors
import socket
import threading
import time
from pathlib import Path
from typing import Optional

from repro.cluster.aggregator import (
    ST_DRAINED,
    Aggregator,
    AggregatorConnection,
    RunRegistry,
)
from repro.cluster.wire import DEFAULT_RUN, WireError
from repro.util.canonjson import canon_dumps

_log = logging.getLogger(__name__)

#: format tag of the observability snapshot file
METRICS_FORMAT = "tempest-serve-metrics-v1"

#: event-loop housekeeping cadence (eviction sweep, drain check,
#: metrics flush) — also bounds shutdown latency
_TICK_S = 0.05

#: kernel receive-buffer depth requested per accepted socket.  One loop
#: thread serves every pusher; when cores are scarce the loop is often
#: not scheduled the instant a socket turns readable, and with default
#: (shallow) buffers every pusher stalls on it, serializing the whole
#: fleet behind scheduler latency.  A deep receive buffer lets pushers
#: run ahead while the loop drains in long uninterrupted slices.
_RCVBUF = 2 << 20


class _Conn:
    """One client socket plus its protocol state and send queue."""

    __slots__ = ("sock", "proto", "out", "closing", "last_active")

    def __init__(self, sock: socket.socket, proto: AggregatorConnection,
                 now: float):
        self.sock = sock
        self.proto = proto
        self.out = bytearray()
        #: close once the send queue flushes (set after an ERROR frame)
        self.closing = False
        self.last_active = now


class AsyncAggregatorServer:
    """Selectors-based aggregation server (drop-in for the old threaded
    ``AggregatorServer``; ``repro.cluster.AggregatorServer`` is an alias
    of this class).

    Parameters
    ----------
    expected_nodes:
        how many distinct sources (collector nodes + leaves, across all
        runs) must drain before :meth:`wait_drained` fires.
    stale_timeout_s:
        evict sources silent for longer than this (None disables).
        Eviction closes the connection, counts ``stale_evictions``, and
        stops the source's silence from gating the drain; everything it
        delivered stays.
    metrics_json / metrics_interval_s:
        write an atomic ``tempest-serve-metrics-v1`` snapshot to this
        path on this cadence (None disables).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 live: bool = False,
                 hcct_budget: Optional[int] = None,
                 expected_nodes: Optional[int] = None,
                 stale_timeout_s: Optional[float] = None,
                 metrics_json: Optional[str] = None,
                 metrics_interval_s: float = 1.0):
        self.registry = RunRegistry(live=live, hcct_budget=hcct_budget)
        self.expected_nodes = expected_nodes
        self.stale_timeout_s = stale_timeout_s
        self.metrics_json = Path(metrics_json) if metrics_json else None
        self.metrics_interval_s = metrics_interval_s
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(128)
        self._sock.setblocking(False)
        self.host, self.port = self._sock.getsockname()[:2]
        self._sel = selectors.DefaultSelector()
        self._sel.register(self._sock, selectors.EVENT_READ, None)
        self._conns: dict[socket.socket, _Conn] = {}
        self._drained = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="tempest-aggregator-loop", daemon=True,
        )
        self._thread.start()

    # ------------------------------------------------------------------
    # Back-compat surface: a default-run aggregator, like the old server

    @property
    def aggregator(self) -> Aggregator:
        """The default run's aggregator (single-run deployments)."""
        return self.registry.get(DEFAULT_RUN)

    # ------------------------------------------------------------------
    # Event loop

    def _loop(self) -> None:
        next_metrics = 0.0
        while not self._stop.is_set():
            for key, _mask in self._sel.select(timeout=_TICK_S):
                if key.data is None:
                    self._accept()
                else:
                    self._service(key.data)
            now = time.monotonic()
            if self.stale_timeout_s is not None:
                if self.registry.evict_stale(self.stale_timeout_s):
                    self._reap_idle_sockets(now)
            if self.metrics_json is not None and now >= next_metrics:
                self._write_metrics()
                next_metrics = now + self.metrics_interval_s
            if self.registry.all_drained(self.expected_nodes):
                self._drained.set()
        # Final snapshot so the file reflects the finished run.
        if self.metrics_json is not None:
            self._write_metrics()
        for conn in list(self._conns.values()):
            self._close(conn)
        self._sel.close()
        try:
            self._sock.close()
        except OSError:
            pass

    def _accept(self) -> None:
        while True:
            try:
                sock, _addr = self._sock.accept()
            except BlockingIOError:
                return
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _RCVBUF)
            except OSError:
                pass  # capped by net.core.rmem_max; whatever we got is fine
            conn = _Conn(sock, AggregatorConnection(self.registry),
                         time.monotonic())
            self._conns[sock] = conn
            self._sel.register(sock, selectors.EVENT_READ, conn)

    def _service(self, conn: _Conn) -> None:
        # Drain the socket: one readable event can cover many frames,
        # and each recv syscall costs a GIL round-trip against however
        # many collector threads are pushing.  Reading until EAGAIN (or
        # the batch cap) amortizes that cost; the cap keeps one
        # firehose connection from starving its neighbours.
        hangup = False
        batched = 0
        while batched < (1 << 20):
            try:
                data = conn.sock.recv(1 << 18)
            except BlockingIOError:
                break
            except OSError:
                self._close(conn)
                return
            if data == b"":
                hangup = True
                break
            batched += len(data)
            conn.last_active = time.monotonic()
            try:
                for resp in conn.proto.on_bytes(data):
                    conn.out.extend(resp)
            except WireError as exc:
                conn.out.extend(conn.proto.error_frame(str(exc)))
                conn.closing = True
                break
        if hangup and not conn.out:
            self._close(conn)
            return
        if hangup:
            conn.closing = True
        self._flush(conn)

    def _flush(self, conn: _Conn) -> None:
        if conn.out:
            try:
                sent = conn.sock.send(bytes(conn.out))
                del conn.out[:sent]
            except BlockingIOError:
                pass
            except OSError:
                self._close(conn)
                return
        if not conn.out and conn.closing:
            self._close(conn)
            return
        mask = selectors.EVENT_READ
        if conn.out:
            mask |= selectors.EVENT_WRITE
        try:
            self._sel.modify(conn.sock, mask, conn)
        except (KeyError, ValueError, OSError):
            pass

    def _close(self, conn: _Conn) -> None:
        conn.proto.on_disconnect()
        try:
            self._sel.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass
        self._conns.pop(conn.sock, None)

    def _reap_idle_sockets(self, now: float) -> None:
        """Close connections idle past the stale timeout.

        The registry already marked their sources evicted; closing the
        socket frees the fd and tells a half-dead peer it must re-HELLO.
        """
        cutoff = now - float(self.stale_timeout_s)
        for conn in list(self._conns.values()):
            if conn.last_active < cutoff and conn.proto.state != ST_DRAINED:
                self._close(conn)

    def _write_metrics(self) -> None:
        """Atomically rewrite the observability snapshot file."""
        doc = {
            "format": METRICS_FORMAT,
            "connections": len(self._conns),
            "runs": self.registry.stats_snapshot(),
        }
        tmp = self.metrics_json.with_name(self.metrics_json.name + ".tmp")
        try:
            tmp.write_text(canon_dumps(doc))
            os.replace(tmp, self.metrics_json)
        except OSError as exc:
            _log.warning("metrics snapshot failed: %s", exc)

    # ------------------------------------------------------------------

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until every expected source drained; False on timeout."""
        return self._drained.wait(timeout)

    def shutdown(self) -> None:
        """Stop the loop, close the listener and every connection."""
        self._stop.set()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "AsyncAggregatorServer":
        return self

    def __exit__(self, *exc) -> bool:
        self.shutdown()
        return False
