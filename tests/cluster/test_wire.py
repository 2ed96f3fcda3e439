"""Unit tests for the ``tempest-wire-v1`` frame codec."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.aggregator import METRIC_NAMES, Aggregator
from repro.cluster.wire import (
    FRAME_TYPES,
    FT_CHUNK,
    FT_EOF,
    FT_HEARTBEAT,
    FT_HELLO,
    HEADER_SIZE,
    MAX_PAYLOAD,
    FrameDecoder,
    WIRE_FORMAT,
    WireError,
    decode_chunk,
    decode_json,
    encode_chunk,
    encode_frame,
    encode_json_frame,
    hello_payload,
)
from repro.core.records import RECORD_DTYPE, RECORD_SIZE

INTERNALS = Path(__file__).resolve().parents[2] / "docs" / "INTERNALS.md"


def _records(n, *, kind=3, tsc0=0):
    arr = np.zeros(n, dtype=RECORD_DTYPE)
    for i in range(n):
        arr[i] = (kind, i % 2, tsc0 + i * 1000, 3, 2, 40.0 + 0.25 * i)
    return arr


# ----------------------------------------------------------------------
# Frame round-trips


def test_frame_roundtrip_every_type():
    dec = FrameDecoder()
    for ftype in FRAME_TYPES:
        payload = f"payload-{ftype}".encode()
        frames = dec.feed(encode_frame(ftype, payload))
        assert frames == [(ftype, payload)]
    assert len(dec) == 0


def test_decoder_handles_arbitrary_fragmentation():
    raw = (encode_json_frame(FT_HELLO, {"a": 1})
           + encode_chunk(0, _records(3).tobytes())
           + encode_frame(FT_EOF, b"{}"))
    dec = FrameDecoder()
    got = []
    for i in range(len(raw)):           # one byte at a time
        got.extend(dec.feed(raw[i:i + 1]))
    assert [f[0] for f in got] == [FT_HELLO, FT_CHUNK, FT_EOF]
    assert decode_json(got[0][1]) == {"a": 1}


def test_decoder_keeps_partial_frame_until_complete():
    raw = encode_frame(FT_HEARTBEAT, b"0123456789")
    dec = FrameDecoder()
    assert dec.feed(raw[:HEADER_SIZE + 3]) == []
    assert len(dec) == HEADER_SIZE + 3
    assert dec.feed(raw[HEADER_SIZE + 3:]) == [(FT_HEARTBEAT, b"0123456789")]
    dec.feed(raw[:5])
    dec.reset()                          # disconnect discards the partial
    assert len(dec) == 0
    assert dec.feed(raw) == [(FT_HEARTBEAT, b"0123456789")]


def test_decoder_rejects_bad_magic():
    with pytest.raises(WireError, match="magic"):
        FrameDecoder().feed(b"XX" + b"\0" * 20)


def test_decoder_rejects_corrupt_payload():
    raw = bytearray(encode_frame(FT_HEARTBEAT, b"abcdef"))
    raw[-1] ^= 0xFF
    with pytest.raises(WireError, match="checksum"):
        FrameDecoder().feed(bytes(raw))


def test_decoder_rejects_unknown_type_and_oversized_length():
    good = encode_frame(FT_HEARTBEAT, b"x")
    bad_type = bytearray(good)
    bad_type[2] = 99
    with pytest.raises(WireError, match="unknown frame type"):
        FrameDecoder().feed(bytes(bad_type))
    bad_len = bytearray(good)
    bad_len[3:7] = (MAX_PAYLOAD + 1).to_bytes(4, "little")
    with pytest.raises(WireError, match="limit"):
        FrameDecoder().feed(bytes(bad_len))


def test_encode_frame_rejects_bad_inputs():
    with pytest.raises(WireError):
        encode_frame(99, b"")
    with pytest.raises(WireError):
        encode_frame(FT_CHUNK, b"\0" * (MAX_PAYLOAD + 1))


# ----------------------------------------------------------------------
# CHUNK codec


def test_chunk_roundtrip_is_byte_exact():
    arr = _records(7)
    raw = arr.tobytes()
    start, blob, back = decode_chunk(
        encode_chunk(123, raw)[HEADER_SIZE:])
    assert start == 123
    assert blob == raw
    assert back.tobytes() == raw
    assert len(back) == 7


def test_chunk_rejects_ragged_and_negative():
    with pytest.raises(WireError):
        encode_chunk(0, b"\0" * (RECORD_SIZE + 1))
    with pytest.raises(WireError):
        encode_chunk(-1, b"")
    with pytest.raises(WireError, match="prefix"):
        decode_chunk(b"\0\0")
    with pytest.raises(WireError, match="whole"):
        decode_chunk(b"\0" * 8 + b"\0" * (RECORD_SIZE - 1))


def test_hello_payload_shape():
    obj = hello_payload("node1", 1.8e9, ["S0"], {"main": 4096},
                        {"sampling_hz": 4.0})
    assert obj["format"] == WIRE_FORMAT
    assert obj["node"] == "node1"
    assert obj["symtab"] == {"main": 4096}
    # It must round-trip through the JSON frame codec unchanged.
    frames = FrameDecoder().feed(encode_json_frame(FT_HELLO, obj))
    assert decode_json(frames[0][1]) == obj


@pytest.mark.parametrize("hz", [math.nan, math.inf, 0.0, -1.0])
def test_hello_with_bad_tsc_hz_refused_at_handshake(hz):
    # A calibration that cannot convert ticks to seconds is refused when
    # the node announces itself, not after all its data has arrived.
    agg = Aggregator(live=True)
    payload = json.dumps(hello_payload("node1", hz, ["S0"], {"main": 4096},
                                       {"sampling_hz": 4.0})).encode()
    with pytest.raises(WireError, match="finite and positive"):
        agg.on_hello(payload)
    assert agg.nodes == {}


def test_decode_json_rejects_garbage():
    with pytest.raises(WireError):
        decode_json(b"\xff\xfe not json")
    with pytest.raises(WireError):
        decode_json(b"[1, 2]")


# ----------------------------------------------------------------------
# Drift tests against docs/INTERNALS.md


def _section(text: str, start: str, end: str) -> str:
    i = text.index(start)
    return text[i:text.index(end, i)]


def test_frame_types_match_internals_doc():
    doc = _section(INTERNALS.read_text(), "### Frame types",
                   "### Aggregator state machine")
    rows = dict(re.findall(r"^\| ([A-Z_]+) \| (\d+) \|", doc, re.M))
    assert rows == {name: str(fid) for fid, name in FRAME_TYPES.items()}


def test_metric_names_match_internals_doc():
    doc = _section(INTERNALS.read_text(), "### Wire metrics",
                   "## Diagnostics catalogue")
    rows = re.findall(r"^\| `(\w+)` \|", doc, re.M)
    assert sorted(rows) == sorted(METRIC_NAMES)
