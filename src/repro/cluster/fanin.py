"""Leaf-side fan-in: ship cumulative profile summaries to a root.

A leaf aggregator accepts raw record streams from its rack's collectors
and periodically condenses everything accepted so far into one
``tempest-summary-v3`` :class:`~repro.core.summary.RunSummary` — a few
kilobytes of mergeable estimator state, whatever the record volume.
:class:`LeafUplink` frames those snapshots as wire-v2 SUMMARY frames and
pushes them to the root aggregator; :class:`SummaryPump` is the
background thread that does so on a cadence while the leaf is live.

Delivery is deliberately sloppy-tolerant: every snapshot is *cumulative*
(it supersedes all earlier ones), so the uplink never needs the
exactly-once cursor machinery the record path has.  Loss costs staleness
until the next snapshot; duplication and reorder are absorbed by the
root's last-write-wins-by-``seq`` rule.  Only the *final* snapshot
matters for correctness, and :meth:`LeafUplink.finish` guarantees it:
EOF declares the final seq, the root's EOF_ACK reports the highest seq
that landed, and the leaf resends until the receipt covers it.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable, Optional

from repro.cluster.wire import (
    DEFAULT_RUN,
    FT_EOF,
    FT_EOF_ACK,
    FT_ERROR,
    FT_HELLO,
    FT_HELLO_ACK,
    FT_SUMMARY,
    WireError,
    decode_json,
    encode_json_frame,
    leaf_hello_payload,
    summary_payload,
)
from repro.core.summary import RunSummary

_log = logging.getLogger(__name__)

#: hard cap on final-snapshot resend passes (mirrors the collector's
#: push-pass cap): converging takes one pass per lost final frame
_MAX_FINISH_PASSES = 50


class LeafUplink:
    """One leaf aggregator's connection to its root.

    *transport_factory* returns a fresh connected transport (an object
    with ``send``/``recv_frame``/``close``) each call — real sockets or
    a :class:`~repro.faults.LossyWire` wrapper for chaos tests.
    """

    def __init__(self, leaf_name: str, transport_factory: Callable, *,
                 run: str = DEFAULT_RUN, meta: Optional[dict] = None,
                 max_retries: int = 5, backoff_base_s: float = 0.05,
                 backoff_max_s: float = 2.0,
                 sleep_fn: Callable[[float], None] = time.sleep):
        self.leaf_name = leaf_name
        self.run = run
        self.hello = leaf_hello_payload(leaf_name, run=run, meta=meta)
        self.transport_factory = transport_factory
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_max_s = backoff_max_s
        self.sleep_fn = sleep_fn
        self.seq = 0
        self.summaries_sent = 0
        self.reconnects = 0
        self._transport = None

    # ------------------------------------------------------------------

    def _connect(self) -> None:
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                delay = min(self.backoff_base_s * (2 ** (attempt - 1)),
                            self.backoff_max_s)
                self.sleep_fn(delay)
            try:
                transport = self.transport_factory()
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                continue
            try:
                transport.send(encode_json_frame(FT_HELLO, self.hello))
                ftype, payload = transport.recv_frame()
                if ftype == FT_ERROR:
                    raise WireError(
                        f"root rejected leaf HELLO: "
                        f"{decode_json(payload).get('error')}"
                    )
                if ftype != FT_HELLO_ACK:
                    raise ConnectionError(
                        f"expected HELLO_ACK, got frame type {ftype}"
                    )
                # The root already holds snapshots up to resume_seq;
                # never go backwards (our next send must supersede it).
                resume = int(decode_json(payload).get("resume_seq", 0))
                if resume > self.seq:
                    self.seq = resume
                self._transport = transport
                return
            except (ConnectionError, OSError) as exc:
                last_exc = exc
                try:
                    transport.close()
                except OSError:
                    pass
                _log.debug("%s: uplink connect attempt %d failed: %s",
                           self.leaf_name, attempt, exc)
        raise WireError(
            f"{self.leaf_name}: could not reach the root after "
            f"{self.max_retries + 1} attempts: {last_exc}"
        )

    def _reconnect(self) -> None:
        self.close()
        self.reconnects += 1
        self._connect()

    def close(self) -> None:
        if self._transport is not None:
            try:
                self._transport.close()
            except OSError:
                pass
            self._transport = None

    # ------------------------------------------------------------------

    def send_summary(self, summary: RunSummary, records: int = 0) -> int:
        """Ship one cumulative snapshot; return its seq.

        A send failure reconnects and retries once — a snapshot lost
        beyond that is simply superseded by the next one (or by
        :meth:`finish`'s guaranteed final pass).
        """
        if self._transport is None:
            self._connect()
        self.seq += 1
        frame = encode_json_frame(FT_SUMMARY, summary_payload(
            self.leaf_name, self.run, self.seq, records, summary.to_dict(),
        ))
        try:
            self._transport.send(frame)
        except (ConnectionError, OSError):
            self._reconnect()
            try:
                self._transport.send(frame)
            except (ConnectionError, OSError) as exc:
                _log.debug("%s: snapshot seq %d lost: %s",
                           self.leaf_name, self.seq, exc)
                return self.seq
        self.summaries_sent += 1
        return self.seq

    def finish(self, summary: RunSummary, records: int = 0) -> bool:
        """Ship the final snapshot and verify the root holds it.

        Sends the snapshot, then EOF with its seq; the EOF_ACK receipt
        reports the highest seq the root accepted.  If the receipt is
        short (the final SUMMARY frame was lost or damaged), resend and
        retry — bounded by :data:`_MAX_FINISH_PASSES`.  Returns True
        once the root's receipt covers the final snapshot.
        """
        final_seq = self.send_summary(summary, records)
        for _pass in range(_MAX_FINISH_PASSES):
            try:
                self._transport.send(encode_json_frame(
                    FT_EOF, {"final_seq": final_seq}))
                ftype, payload = self._transport.recv_frame()
            except (ConnectionError, OSError):
                self._reconnect()
                final_seq = self.send_summary(summary, records)
                continue
            if ftype == FT_ERROR:
                _log.debug("%s: root error at EOF: %s", self.leaf_name,
                           decode_json(payload).get("error"))
                self._reconnect()
                final_seq = self.send_summary(summary, records)
                continue
            if ftype != FT_EOF_ACK:
                raise WireError(f"expected EOF_ACK, got frame type {ftype}")
            last = int(decode_json(payload).get("last_seq", 0))
            if last >= final_seq:
                return True
            # Receipt is short: the final snapshot never landed.
            final_seq = self.send_summary(summary, records)
        return False


class SummaryPump:
    """Background thread shipping periodic snapshots from a leaf.

    Every *interval_s* it takes the leaf aggregator's live
    :meth:`~repro.cluster.aggregator.Aggregator.run_summary` (non-final
    — the accumulators keep running) and pushes it upstream; snapshots
    start once the leaf has accepted at least one node.  Call
    :meth:`stop` before the leaf's final
    :meth:`~LeafUplink.finish` so the pump and the finish never race on
    the uplink.
    """

    def __init__(self, aggregator, uplink: LeafUplink, *,
                 interval_s: float = 1.0):
        self.aggregator = aggregator
        self.uplink = uplink
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="tempest-summary-pump", daemon=True,
        )

    def start(self) -> "SummaryPump":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            if not self.aggregator.nodes:
                continue
            try:
                summary = self.aggregator.run_summary()
                records = summary.n_records
                self.uplink.send_summary(summary, records)
            except (WireError, ConnectionError, OSError) as exc:
                _log.debug("summary pump: %s", exc)

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        self._thread.join(timeout=timeout)
