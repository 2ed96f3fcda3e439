"""In-memory loopback transport: the whole protocol, no sockets.

A :class:`LoopbackHub` wraps one :class:`~repro.cluster.aggregator.Aggregator`
and hands out :class:`LoopbackTransport` connections whose ``send`` drives
the server-side :class:`~repro.cluster.aggregator.AggregatorConnection`
*synchronously* — every byte a collector sends is processed, and every
response queued for ``recv_frame``, before ``send`` returns.  No threads,
no timing, no kernel buffers: a test that runs once runs the same way
every time, which is what makes the seeded
:class:`~repro.faults.LossyWire` chaos suites deterministic.

Failure semantics mirror real sockets closely enough for the client code
to be transport-agnostic: a server-side :class:`WireError` closes the
connection (the pending ERROR frame is readable, further sends raise
:class:`ConnectionError`), and :meth:`LoopbackHub.drop_connections`
simulates the network partition that forces collectors through their
reconnect path.
"""

from __future__ import annotations

from repro.cluster.aggregator import Aggregator, AggregatorConnection, RunRegistry
from repro.cluster.wire import DEFAULT_RUN, WireError


class LoopbackTransport:
    """One synchronous client connection to an in-process aggregator."""

    def __init__(self, hub: "LoopbackHub"):
        self._hub = hub
        self._conn = AggregatorConnection(hub.registry)
        self._inbox: list[tuple[int, bytes]] = []
        self._decoder_frames: list[bytes] = []
        self.closed = False
        hub._live.append(self)

    def send(self, data: bytes) -> None:
        """Deliver bytes to the server; queue its responses for recv."""
        if self.closed:
            raise ConnectionError("loopback connection is closed")
        try:
            responses = self._conn.on_bytes(data)
        except WireError as exc:
            # A real server sends ERROR then closes; the client reads the
            # pending error (if it recvs) or hits ConnectionError (if it
            # sends again).
            self._push_frames(self._conn.error_frame(str(exc)))
            self._conn.on_disconnect()
            self.closed = True
            return
        for resp in responses:
            self._push_frames(resp)

    def _push_frames(self, raw: bytes) -> None:
        from repro.cluster.wire import FrameDecoder

        dec = FrameDecoder()
        self._inbox.extend(dec.feed(raw))

    def recv_frame(self) -> tuple[int, bytes]:
        if self._inbox:
            return self._inbox.pop(0)
        if self.closed:
            raise ConnectionError("loopback connection is closed")
        raise ConnectionError(
            "no response pending (loopback is synchronous: the server "
            "answers within send)"
        )

    def close(self) -> None:
        if not self.closed:
            self._conn.on_disconnect()
            self.closed = True


class LoopbackHub:
    """Factory for deterministic in-memory connections to one registry.

    Single-run tests keep using :attr:`aggregator` (the default run);
    multi-run and fan-in tests reach into :attr:`registry`.
    """

    def __init__(self, *, live: bool = False):
        self.registry = RunRegistry(live=live)
        self._live: list[LoopbackTransport] = []
        self.connections_made = 0

    @property
    def aggregator(self) -> Aggregator:
        """The default run's aggregator (what single-run tests assert on)."""
        return self.registry.get(DEFAULT_RUN)

    def connect(self) -> LoopbackTransport:
        """A fresh connection (this is the ``transport_factory``)."""
        self.connections_made += 1
        return LoopbackTransport(self)

    def drop_connections(self) -> None:
        """Sever every live connection — the simulated network partition."""
        for t in self._live:
            if not t.closed:
                t.close()
        self._live.clear()
