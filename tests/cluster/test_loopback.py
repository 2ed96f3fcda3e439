"""End-to-end collection over the in-memory loopback transport."""

import numpy as np
import pytest

from repro.check.tracelint import compare_profiles
from repro.cluster import (
    CollectorClient,
    CollectorConfig,
    LoopbackHub,
    WireError,
)
from repro.cluster.wire import (
    FT_EOF,
    FT_ERROR,
    FT_HELLO,
    encode_chunk,
    encode_json_frame,
    hello_payload,
)
from repro.core.records import RECORD_SIZE
from repro.core.trace import TraceBundle, read_trace_header

from tests.cluster.conftest import build_spool_dir


def make_client(spool_dir, name, factory, **cfg):
    return CollectorClient.from_spool_header(
        spool_dir, name, factory,
        config=CollectorConfig(chunk_records=16, **cfg),
        sleep_fn=lambda s: None,
    )


def push_all(spool_dir, hub, node_names, **cfg):
    clients = {}
    for name in node_names:
        client = make_client(spool_dir, name, hub.connect, **cfg)
        acked = client.push_spool(spool_dir / f"{name}.spool")
        client.close()
        clients[name] = (client, acked)
    return clients


# ----------------------------------------------------------------------
# Clean-path collection


def test_three_nodes_reassemble_byte_identical(spool_dir):
    hub = LoopbackHub()
    names = sorted(read_trace_header(spool_dir).nodes)
    pushed = push_all(spool_dir, hub, names)
    agg = hub.aggregator
    assert agg.all_drained(expected_nodes=3)
    for name, (_client, acked) in pushed.items():
        raw = (spool_dir / f"{name}.spool").read_bytes()
        assert acked == len(raw) // RECORD_SIZE
        assert bytes(agg.nodes[name].buf) == raw
    assert agg.metrics.records_in == sum(a for _c, a in pushed.values())
    assert agg.metrics.dup_records == 0
    assert agg.metrics.gap_resets == 0
    assert agg.metrics.errors == 0


def test_merged_profile_equals_local_parse(spool_dir):
    hub = LoopbackHub()
    push_all(spool_dir, hub, sorted(read_trace_header(spool_dir).nodes))
    wire = hub.aggregator.merged_profile()
    from repro.core.parser import TempestParser

    local = TempestParser(TraceBundle.load(spool_dir)).parse()
    assert set(wire.nodes) == {"node1", "node2", "node3"}
    # Same records, same batch parser: agreement must be exact, so the
    # TL018 comparator (which tolerates 1e-9) must find nothing at all.
    assert compare_profiles(local, wire) == []


def test_live_snapshot_tracks_merged_profile(spool_dir):
    hub = LoopbackHub(live=True)
    names = sorted(read_trace_header(spool_dir).nodes)
    push_all(spool_dir, hub, names[:2])
    snap = hub.aggregator.live_snapshot()
    assert set(snap.nodes) == {"node1", "node2"}
    push_all(spool_dir, hub, names[2:])
    snap = hub.aggregator.live_snapshot()
    assert set(snap.nodes) == {"node1", "node2", "node3"}
    assert compare_profiles(hub.aggregator.merged_profile(), snap) == []


def test_saved_bundle_matches_local_bundle(spool_dir, tmp_path):
    hub = LoopbackHub()
    push_all(spool_dir, hub, sorted(read_trace_header(spool_dir).nodes))
    local_dir, wire_dir = tmp_path / "local", tmp_path / "wire"
    TraceBundle.load(spool_dir).save(local_dir)
    hub.aggregator.save_bundle(wire_dir)
    for name in ("node1", "node2", "node3"):
        assert (wire_dir / f"{name}.spool").read_bytes() == \
            (local_dir / f"{name}.spool").read_bytes()


# ----------------------------------------------------------------------
# Protocol edge cases, driven frame by frame


def _hello(spool_dir, node="node1"):
    header = read_trace_header(spool_dir)
    info = header.nodes[node]
    return encode_json_frame(FT_HELLO, hello_payload(
        node, info.tsc_hz, info.sensor_names,
        header.symtab.to_dict(), header.meta))


def _chunks(spool_dir, node="node1", chunk_records=16):
    from repro.core.spool import iter_spool_chunks

    pos = 0
    out = []
    for arr in iter_spool_chunks(spool_dir / f"{node}.spool",
                                 chunk_records=chunk_records):
        out.append((pos, len(arr), encode_chunk(pos, arr.tobytes())))
        pos += len(arr)
    return out


def test_duplicate_chunks_are_dropped_exactly(spool_dir):
    hub = LoopbackHub()
    t = hub.connect()
    t.send(_hello(spool_dir))
    chunks = _chunks(spool_dir)
    for _pos, _n, frame in chunks:
        t.send(frame)
    n_total = hub.aggregator.nodes["node1"].n_records
    t.send(chunks[0][2])                      # full duplicate
    agg = hub.aggregator
    assert agg.metrics.dup_records == chunks[0][1]
    assert agg.nodes["node1"].n_records == n_total
    raw = (spool_dir / "node1.spool").read_bytes()
    assert bytes(agg.nodes["node1"].buf) == raw


def test_straddling_chunk_is_prefix_trimmed(spool_dir):
    hub = LoopbackHub()
    t = hub.connect()
    t.send(_hello(spool_dir))
    chunks = _chunks(spool_dir)
    t.send(chunks[0][2])
    # Re-send chunk 0 and chunk 1 merged as one frame starting at 0: the
    # first chunk's records are already in, so only chunk 1's are new.
    raw = (spool_dir / "node1.spool").read_bytes()
    n0, n1 = chunks[0][1], chunks[1][1]
    t.send(encode_chunk(0, raw[:(n0 + n1) * RECORD_SIZE]))
    agg = hub.aggregator
    assert agg.nodes["node1"].n_records == n0 + n1
    assert agg.metrics.dup_records == n0
    assert bytes(agg.nodes["node1"].buf) == raw[:(n0 + n1) * RECORD_SIZE]


def test_gap_resets_connection_and_resume_retransmits(spool_dir):
    hub = LoopbackHub()
    t = hub.connect()
    t.send(_hello(spool_dir))
    t.recv_frame()                            # HELLO_ACK
    chunks = _chunks(spool_dir)
    t.send(chunks[0][2])
    t.send(chunks[2][2])                      # skips chunk 1: a gap
    assert hub.aggregator.metrics.gap_resets == 1
    ftype, _payload = t.recv_frame()
    assert ftype == FT_ERROR
    assert t.closed
    with pytest.raises(ConnectionError):
        t.send(chunks[1][2])
    # The cursor survives the reset; a reconnect resumes after chunk 0.
    t2 = hub.connect()
    t2.send(_hello(spool_dir))
    ftype, payload = t2.recv_frame()
    from repro.cluster.wire import decode_json

    assert decode_json(payload)["resume_from"] == chunks[0][1]


def test_torn_frame_discarded_on_disconnect(spool_dir):
    hub = LoopbackHub()
    t = hub.connect()
    t.send(_hello(spool_dir))
    chunks = _chunks(spool_dir)
    frame = chunks[0][2]
    t.send(frame[:len(frame) // 2])           # connection dies mid-frame
    t.close()
    assert hub.aggregator.nodes["node1"].n_records == 0
    # The fresh connection replays from zero; the torn prefix left no
    # decoder state behind to poison it.
    t2 = hub.connect()
    t2.send(_hello(spool_dir))
    for _pos, _n, f in chunks:
        t2.send(f)
    raw = (spool_dir / "node1.spool").read_bytes()
    assert bytes(hub.aggregator.nodes["node1"].buf) == raw


def test_eof_before_hello_is_a_protocol_error(spool_dir):
    hub = LoopbackHub()
    t = hub.connect()
    t.send(encode_json_frame(FT_EOF, {"records_total": 0}))
    ftype, _ = t.recv_frame()
    assert ftype == FT_ERROR
    assert t.closed
    assert hub.aggregator.metrics.errors == 1


def test_symtab_conflict_rejected_at_hello(spool_dir):
    hub = LoopbackHub()
    t = hub.connect()
    t.send(_hello(spool_dir))
    header = read_trace_header(spool_dir)
    info = header.nodes["node2"]
    clash = header.symtab.to_dict()
    clash["main"] = 0x999999              # same name, different address
    t2 = hub.connect()
    t2.send(encode_json_frame(FT_HELLO, hello_payload(
        "node2", info.tsc_hz, info.sensor_names, clash, {})))
    ftype, _ = t2.recv_frame()
    assert ftype == FT_ERROR
    assert "node2" not in hub.aggregator.nodes


# ----------------------------------------------------------------------
# Collector resilience


class _FirstChunkLost:
    """Transport wrapper that silently drops the first CHUNK frame."""

    def __init__(self, inner):
        self._inner = inner
        self._sent = 0

    def send(self, data):
        self._sent += 1
        if self._sent == 2:               # frame 1 is HELLO; 2 is chunk 0
            return
        self._inner.send(data)

    def recv_frame(self):
        return self._inner.recv_frame()

    def close(self):
        self._inner.close()


def test_lost_chunk_recovers_via_gap_reset(spool_dir):
    hub = LoopbackHub()
    first = {"armed": True}

    def factory():
        t = hub.connect()
        if first["armed"]:
            first["armed"] = False
            return _FirstChunkLost(t)
        return t

    client = make_client(spool_dir, "node1", factory)
    acked = client.push_spool(spool_dir / "node1.spool")
    raw = (spool_dir / "node1.spool").read_bytes()
    assert acked == len(raw) // RECORD_SIZE
    assert bytes(hub.aggregator.nodes["node1"].buf) == raw
    assert hub.aggregator.metrics.gap_resets == 1
    assert client.metrics.reconnects >= 1


class _DiesAfter:
    """Transport wrapper that kills the connection after N sends."""

    def __init__(self, inner, n):
        self._inner = inner
        self._left = n

    def send(self, data):
        if self._left <= 0:
            self._inner.close()
            raise ConnectionError("injected mid-stream death")
        self._left -= 1
        self._inner.send(data)

    def recv_frame(self):
        return self._inner.recv_frame()

    def close(self):
        self._inner.close()


@pytest.mark.parametrize("policy", ["block", "drop"])
def test_midstream_collector_kill_converges(spool_dir, policy):
    hub = LoopbackHub()
    deaths = {"left": 2}                  # first two connections die early

    def factory():
        t = hub.connect()
        if deaths["left"]:
            deaths["left"] -= 1
            return _DiesAfter(t, 3)       # HELLO + two frames, then dead
        return t

    client = make_client(spool_dir, "node1", factory,
                         queue_frames=4, queue_policy=policy)
    acked = client.push_spool(spool_dir / "node1.spool")
    raw = (spool_dir / "node1.spool").read_bytes()
    assert acked == len(raw) // RECORD_SIZE
    assert bytes(hub.aggregator.nodes["node1"].buf) == raw
    assert client.metrics.reconnects >= 2


def test_drop_policy_accounts_evictions(tmp_path):
    # A dead link with a tiny queue forces evictions; the EOF receipt
    # then drives retransmission, so the profile still completes.
    spool_dir = build_spool_dir(tmp_path / "s", ["node1"], n_pairs=40)
    hub = LoopbackHub()
    deaths = {"left": 1}

    def factory():
        t = hub.connect()
        if deaths["left"]:
            deaths["left"] -= 1
            return _DiesAfter(t, 2)
        return t

    client = make_client(spool_dir, "node1", factory,
                         queue_frames=2, queue_policy="drop")
    acked = client.push_spool(spool_dir / "node1.spool")
    raw = (spool_dir / "node1.spool").read_bytes()
    assert acked == len(raw) // RECORD_SIZE
    assert client.metrics.records_dropped > 0
    assert bytes(hub.aggregator.nodes["node1"].buf) == raw


def test_unreachable_aggregator_gives_up_cleanly(spool_dir):
    def factory():
        raise ConnectionError("nobody listening")

    client = CollectorClient.from_spool_header(
        spool_dir, "node1", factory,
        config=CollectorConfig(max_retries=2),
        sleep_fn=lambda s: None,
    )
    with pytest.raises(WireError, match="could not reach"):
        client.push_spool(spool_dir / "node1.spool")
    assert client.metrics.retries == 2


def test_unknown_node_in_spool_header(spool_dir):
    with pytest.raises(WireError, match="no node"):
        CollectorClient.from_spool_header(spool_dir, "node9", lambda: None)
