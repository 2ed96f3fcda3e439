"""``tempest-wire-v1``: the length-prefixed binary wire protocol.

One ``tempd``-side collector per node streams its trace to a cluster-level
aggregator (the paper post-processes per-node streams into cluster
profiles; this is the live-transport version of that step).  The protocol
is deliberately minimal — the LIKWID lesson is that the collection layer
must stay light enough not to perturb what it measures — and carries the
columnar record chunks in their on-disk ``<Bqqiid`` byte layout with
**zero re-encoding**: a chunk's payload bytes are exactly what
:class:`~repro.core.spool.TraceSpool` wrote and exactly what the
aggregator persists in its closed trace directory.

Frame layout (little-endian)::

    +----+----+--------+----------+=========================+
    | b"TW"   | type u8| len u32  | crc32 u32 | payload ... |
    +----+----+--------+----------+=========================+

``crc32`` covers the payload only, so a torn or bit-flipped frame is
detected at the receiver and surfaces as a :class:`WireError` — the
connection resets and the collector resumes from the aggregator's
acknowledged cursor (see :mod:`repro.cluster.aggregator`).

Frame types (the registry :data:`FRAME_TYPES` is drift-tested against the
``docs/INTERNALS.md`` spec):

* ``HELLO`` (client → server, JSON) — node identity: name, ``tsc_hz``,
  ``sensor_names``, the node's symbol-table mapping, and run ``meta``.
* ``HELLO_ACK`` (server → client, JSON) — ``{"resume_from": n}``: the
  record index the server expects next; a reconnecting collector rewinds
  its spool cursor here (out-of-order / at-least-once delivery becomes
  exactly-once).
* ``CHUNK`` (client → server, binary) — ``<Q`` start-record index + raw
  record bytes (a whole number of 33-byte records, stream order).
* ``HEARTBEAT`` (client → server, JSON) — sweep-cadence liveness beacon:
  records sent, current send-queue depth, records dropped under
  backpressure.
* ``EOF`` (client → server, JSON) — ``{"records_total": n}``: the
  collector drained its spool and is done.
* ``EOF_ACK`` (server → client, JSON) — ``{"records_received": n}``: the
  drain receipt the collector verifies before exiting clean.
* ``ERROR`` (server → client, JSON) — terminal protocol violation
  (symtab conflict, malformed HELLO); the client must not retry.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro.core.records import RECORD_SIZE, records_from_buffer
from repro.util.errors import ReproError
from repro.util.canonjson import canon_bytes

#: protocol identity carried in every HELLO
WIRE_FORMAT = "tempest-wire-v1"

#: the fan-in extension: v2 HELLOs may carry ``run``/``role``, and leaf
#: aggregators ship SUMMARY frames upstream.  v1 collectors interoperate
#: unchanged — v2 is a strict superset.
WIRE_FORMAT_V2 = "tempest-wire-v2"

#: the run id a HELLO without an explicit ``run`` lands in
DEFAULT_RUN = "default"

#: two magic bytes opening every frame
MAGIC = b"TW"

#: frame header: magic, type, payload length, payload crc32
_HEADER = struct.Struct("<2sBII")
HEADER_SIZE = _HEADER.size

#: chunk payload prefix: the absolute index of the first record carried
_CHUNK_PREFIX = struct.Struct("<Q")

#: refuse frames larger than this (a corrupt length field must not make
#: the receiver try to buffer gigabytes)
MAX_PAYLOAD = 16 << 20

FT_HELLO = 1
FT_HELLO_ACK = 2
FT_CHUNK = 3
FT_HEARTBEAT = 4
FT_EOF = 5
FT_EOF_ACK = 6
FT_ERROR = 7
FT_SUMMARY = 8

#: frame-type registry: id -> canonical name.  docs/INTERNALS.md carries
#: the same table in prose; tests/cluster/test_wire.py asserts the two
#: never drift apart.
FRAME_TYPES: dict[int, str] = {
    FT_HELLO: "HELLO",
    FT_HELLO_ACK: "HELLO_ACK",
    FT_CHUNK: "CHUNK",
    FT_HEARTBEAT: "HEARTBEAT",
    FT_EOF: "EOF",
    FT_EOF_ACK: "EOF_ACK",
    FT_ERROR: "ERROR",
    FT_SUMMARY: "SUMMARY",
}


class WireError(ReproError):
    """A wire-protocol violation: bad framing, bad checksum, bad state.

    Framing-level damage is never repaired in place — the connection
    resets and the resume handshake re-establishes a consistent cursor.
    """


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """Serialize one frame (header + payload) to bytes."""
    if ftype not in FRAME_TYPES:
        raise WireError(f"unknown frame type {ftype}")
    if len(payload) > MAX_PAYLOAD:
        raise WireError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD}-byte frame limit"
        )
    return _HEADER.pack(MAGIC, ftype, len(payload),
                        zlib.crc32(payload)) + payload


def encode_json_frame(ftype: int, obj: dict) -> bytes:
    """Serialize a JSON-payload frame (HELLO, acks, heartbeat, errors)."""
    return encode_frame(ftype, canon_bytes(obj))


def decode_json(payload: bytes) -> dict:
    """Parse a JSON frame payload; malformed JSON is a protocol error."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"frame payload is not valid JSON: {exc}")
    if not isinstance(obj, dict):
        raise WireError(f"frame payload is not a JSON object: {obj!r}")
    return obj


def encode_chunk(start_record: int, record_bytes: bytes) -> bytes:
    """Serialize a CHUNK frame carrying raw record bytes.

    *record_bytes* is the spool's on-disk byte layout, shipped verbatim —
    the zero re-encode property the whole protocol is built around.
    """
    if start_record < 0:
        raise WireError(f"negative start record {start_record}")
    if len(record_bytes) % RECORD_SIZE:
        raise WireError(
            f"chunk of {len(record_bytes)} bytes is not a whole number "
            f"of {RECORD_SIZE}-byte records"
        )
    return encode_frame(FT_CHUNK,
                        _CHUNK_PREFIX.pack(start_record) + record_bytes)


def decode_chunk(payload: bytes) -> tuple[int, bytes, np.ndarray]:
    """Split a CHUNK payload into (start_record, raw bytes, record array).

    The returned array is a zero-copy view over the raw bytes; callers
    that outlive the payload must copy.
    """
    if len(payload) < _CHUNK_PREFIX.size:
        raise WireError(f"chunk payload of {len(payload)} bytes has no "
                        "start-record prefix")
    (start,) = _CHUNK_PREFIX.unpack_from(payload)
    blob = payload[_CHUNK_PREFIX.size:]
    if len(blob) % RECORD_SIZE:
        raise WireError(
            f"chunk carries {len(blob)} record bytes — not a whole "
            f"number of {RECORD_SIZE}-byte records"
        )
    return int(start), blob, records_from_buffer(blob)


class FrameDecoder:
    """Incremental frame parser over an arbitrary byte stream.

    Feed received bytes in any fragmentation; iterate complete frames.
    An incomplete tail simply waits for more bytes (a disconnect mid-frame
    discards it via :meth:`reset`); a bad magic, an oversized length, or a
    checksum mismatch raises :class:`WireError` — framing is never
    resynchronized in place, the connection must reset.
    """

    def __init__(self):
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf)

    def reset(self) -> None:
        """Discard any partial frame (called on disconnect)."""
        self._buf.clear()

    def feed(self, data: bytes) -> list[tuple[int, bytes]]:
        """Absorb *data*; return every complete ``(type, payload)`` frame.

        Frames are parsed in place from the incoming buffer at a moving
        offset; only an incomplete tail is retained between calls.  (The
        obvious alternative — append everything to one bytearray and
        ``del`` consumed frames off the front — moves every byte twice
        and, under many concurrent connections, degrades to quadratic
        realloc copying; this parser touches each byte once.)
        """
        if self._buf:
            data = bytes(self._buf) + bytes(data)
            self._buf.clear()
        frames: list[tuple[int, bytes]] = []
        off = 0
        n = len(data)
        while n - off >= HEADER_SIZE:
            magic, ftype, length, crc = _HEADER.unpack_from(data, off)
            if magic != MAGIC:
                raise WireError(
                    f"bad frame magic {bytes(magic)!r} (stream corrupt or "
                    "not tempest-wire-v1)"
                )
            if length > MAX_PAYLOAD:
                raise WireError(
                    f"frame declares a {length}-byte payload, over the "
                    f"{MAX_PAYLOAD}-byte limit"
                )
            if ftype not in FRAME_TYPES:
                raise WireError(f"unknown frame type {ftype}")
            end = off + HEADER_SIZE + length
            if n < end:
                break
            payload = bytes(data[off + HEADER_SIZE:end])
            off = end
            if zlib.crc32(payload) != crc:
                raise WireError(
                    f"{FRAME_TYPES[ftype]} frame checksum mismatch "
                    f"({length}-byte payload)"
                )
            frames.append((ftype, payload))
        if off < n:
            self._buf.extend(data[off:])
        return frames


def hello_payload(node_name: str, tsc_hz: float, sensor_names: list[str],
                  symtab: dict[str, int], meta: dict, *,
                  run: str | None = None) -> dict:
    """The canonical HELLO body a collector announces itself with.

    Without *run* the payload is byte-for-byte the classic
    ``tempest-wire-v1`` HELLO; naming a run upgrades it to v2 (the
    aggregator's run registry routes the stream into that run's own
    merge state).
    """
    payload = {
        "format": WIRE_FORMAT,
        "node": node_name,
        "tsc_hz": float(tsc_hz),
        "sensor_names": list(sensor_names),
        "symtab": dict(symtab),
        "meta": dict(meta),
    }
    if run is not None:
        payload["format"] = WIRE_FORMAT_V2
        payload["run"] = str(run)
        payload["role"] = "collector"
    return payload


def leaf_hello_payload(leaf_name: str, *, run: str = DEFAULT_RUN,
                       meta: dict | None = None) -> dict:
    """The v2 HELLO a leaf aggregator opens its root uplink with.

    No node identity, clock rate, or symbol table — a leaf ships
    composed summaries, never records — just the leaf's name and the run
    its summaries belong to.
    """
    return {
        "format": WIRE_FORMAT_V2,
        "role": "leaf",
        "leaf": str(leaf_name),
        "run": str(run),
        "meta": dict(meta or {}),
    }


def summary_payload(leaf_name: str, run: str, seq: int, records: int,
                    summary: dict) -> dict:
    """The SUMMARY frame body: one cumulative leaf snapshot.

    *summary* is a serialized ``tempest-summary-v3``
    :class:`~repro.core.summary.RunSummary`; *seq* orders snapshots so a
    root applies last-write-wins under duplication, loss, and reorder
    (every snapshot is cumulative, so dropping all but the latest is
    lossless); *records* is the leaf's records-accepted count, for
    observability only.
    """
    return {
        "leaf": str(leaf_name),
        "run": str(run),
        "seq": int(seq),
        "records": int(records),
        "summary": summary,
    }
