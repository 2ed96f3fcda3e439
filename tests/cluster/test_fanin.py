"""Fan-in tier: leaf summaries composing the global profile at a root.

The equivalence gate of the summary algebra, end to end: the profile a
root composes from leaf SUMMARY snapshots must equal the profile a
single aggregator builds from the raw records, which must equal the
local batch parse — exactly for counts, times, and moments (the
``med`` estimator is identical state here, so even it agrees).
"""

import json

import pytest

from repro.check.tracelint import compare_profiles
from repro.cluster import (
    CollectorClient,
    CollectorConfig,
    LeafUplink,
    LoopbackHub,
    SummaryPump,
)
from repro.cluster.wire import (
    FT_EOF,
    FT_EOF_ACK,
    FT_ERROR,
    FT_HELLO,
    FT_HELLO_ACK,
    FT_SUMMARY,
    decode_json,
    encode_json_frame,
    leaf_hello_payload,
    summary_payload,
)
from repro.core.parser import TempestParser
from repro.core.trace import TraceBundle, read_trace_header
from repro.core.summary import RunSummary
from repro.faults import LossyWire, WireFaultConfig

from tests.cluster.conftest import build_spool_dir


def push_nodes(spool_dir, hub, node_names, **client_kwargs):
    for name in node_names:
        client = CollectorClient.from_spool_header(
            spool_dir, name, hub.connect,
            config=CollectorConfig(chunk_records=16),
            sleep_fn=lambda s: None,
            **client_kwargs,
        )
        client.push_spool(spool_dir / f"{name}.spool")
        client.close()


def uplink_for(leaf_name, root_hub, **kwargs):
    return LeafUplink(leaf_name, root_hub.connect,
                      sleep_fn=lambda s: None, **kwargs)


@pytest.fixture
def four_node_spool(tmp_path):
    return build_spool_dir(tmp_path / "spools",
                           ["node1", "node2", "node3", "node4"])


# ----------------------------------------------------------------------
# The equivalence gate


def test_fanin_equals_single_aggregator_equals_local(four_node_spool):
    names = sorted(read_trace_header(four_node_spool).nodes)

    # Tier 0: the local batch parse of all records.
    local = TempestParser(TraceBundle.load(four_node_spool)).parse()

    # Tier 1: one aggregator sees every raw record.
    single_hub = LoopbackHub()
    push_nodes(four_node_spool, single_hub, names)
    assert single_hub.aggregator.all_drained(expected_nodes=4)
    single = single_hub.aggregator.merged_profile()

    # Tier 2: two leaves see half the records each; the root sees only
    # their final summaries.
    root_hub = LoopbackHub()
    for leaf_name, leaf_nodes in (("leafA", names[:2]),
                                  ("leafB", names[2:])):
        leaf_hub = LoopbackHub(live=True)
        push_nodes(four_node_spool, leaf_hub, leaf_nodes)
        final = leaf_hub.aggregator.run_summary(final=True)
        uplink = uplink_for(leaf_name, root_hub)
        assert uplink.finish(final, final.n_records)
        uplink.close()

    root = root_hub.aggregator
    assert root.all_drained(expected_nodes=2)
    assert root.metrics.records_in == 0          # never saw a record
    assert root.metrics.summaries_in == 2
    fanin = root.fanin_profile()

    assert set(fanin.nodes) == set(names)
    assert compare_profiles(local, single) == []
    assert compare_profiles(single, fanin) == []


def test_fanin_summary_survives_json_roundtrip(four_node_spool):
    # What actually crosses the wire is JSON; composing from the decoded
    # form must change nothing.
    names = sorted(read_trace_header(four_node_spool).nodes)
    leaf_hub = LoopbackHub(live=True)
    push_nodes(four_node_spool, leaf_hub, names)
    final = leaf_hub.aggregator.run_summary(final=True)
    wire_copy = RunSummary.from_dict(json.loads(json.dumps(final.to_dict())))
    assert compare_profiles(final.to_profile(), wire_copy.to_profile()) == []


# ----------------------------------------------------------------------
# Snapshot semantics at the root


def _leaf_session(root_hub, leaf_name="leaf1"):
    t = root_hub.connect()
    t.send(encode_json_frame(FT_HELLO, leaf_hello_payload(leaf_name)))
    ftype, payload = t.recv_frame()
    assert ftype == FT_HELLO_ACK
    return t, decode_json(payload)


def _snapshot(four_node_spool, node_names):
    hub = LoopbackHub(live=True)
    push_nodes(four_node_spool, hub, node_names)
    return hub.aggregator.run_summary(final=True)


def test_root_applies_last_write_wins_by_seq(four_node_spool):
    root_hub = LoopbackHub()
    t, ack = _leaf_session(root_hub)
    assert ack == {"resume_seq": 0}
    small = _snapshot(four_node_spool, ["node1"])
    big = _snapshot(four_node_spool, ["node1", "node2"])

    def frame(seq, summary):
        return encode_json_frame(FT_SUMMARY, summary_payload(
            "leaf1", "default", seq, summary.n_records, summary.to_dict()))

    t.send(frame(2, big))
    t.send(frame(1, small))      # late/stale: must not regress
    t.send(frame(2, big))        # duplicate: must not double-count
    root = root_hub.aggregator
    leaf = root.leaves["leaf1"]
    assert leaf.last_seq == 2
    assert root.metrics.summaries_in == 1
    assert set(root.composed_summary().nodes) == {"node1", "node2"}

    # EOF declaring seq 2 is satisfied; the receipt reports it.
    t.send(encode_json_frame(FT_EOF, {"final_seq": 2}))
    ftype, payload = t.recv_frame()
    assert ftype == FT_EOF_ACK
    assert decode_json(payload)["last_seq"] == 2
    assert root.all_drained()


def test_summary_with_duplicate_context_rows_is_refused():
    """A SUMMARY whose tree repeats a context row would silently keep
    only one row's time; the root refuses the frame and counts it."""
    from tests.core.test_streamprof import make_acc, synth_trace

    trace, symtab = synth_trace(n_quads=60, seed=31)
    acc = make_acc(trace, symtab, hcct_budget=16)
    acc.consume(trace.columns.array)
    node = acc.summary(final=True)
    doc = RunSummary(nodes={"node1": node}, sampling_hz=4.0,
                     meta={}).to_dict()
    rows = doc["nodes"]["node1"]["hcct"]["nodes"]
    rows.append([len(rows) + 1] + list(rows[0][1:]))

    root_hub = LoopbackHub()
    t, _ack = _leaf_session(root_hub)
    t.send(encode_json_frame(FT_SUMMARY, summary_payload(
        "leaf1", "default", 1, node.n_records, doc)))
    ftype, payload = t.recv_frame()
    assert ftype == FT_ERROR
    assert b"repeats context" in payload
    root = root_hub.aggregator
    assert root.metrics.errors == 1
    assert root.metrics.summaries_in == 0
    assert root.leaves["leaf1"].summary is None


def test_unsatisfied_leaf_eof_allows_resend_on_same_connection(
        four_node_spool):
    root_hub = LoopbackHub()
    t, _ack = _leaf_session(root_hub)
    final = _snapshot(four_node_spool, ["node1"])
    # EOF names seq 1 but the snapshot never arrived (lost on the wire).
    t.send(encode_json_frame(FT_EOF, {"final_seq": 1}))
    ftype, payload = t.recv_frame()
    assert ftype == FT_EOF_ACK
    assert decode_json(payload)["last_seq"] == 0
    assert not root_hub.aggregator.all_drained()
    # The same connection resends and retries EOF — no reconnect needed.
    t.send(encode_json_frame(FT_SUMMARY, summary_payload(
        "leaf1", "default", 1, final.n_records, final.to_dict())))
    t.send(encode_json_frame(FT_EOF, {"final_seq": 1}))
    ftype, payload = t.recv_frame()
    assert decode_json(payload)["last_seq"] == 1
    assert root_hub.aggregator.all_drained()


def test_leaf_reconnect_learns_resume_seq(four_node_spool):
    root_hub = LoopbackHub()
    final = _snapshot(four_node_spool, ["node1"])
    uplink = uplink_for("leaf1", root_hub)
    uplink.send_summary(final, final.n_records)
    uplink.close()
    # A fresh uplink for the same leaf adopts the root's seq so its next
    # snapshot supersedes rather than regresses.
    uplink2 = uplink_for("leaf1", root_hub)
    seq = uplink2.send_summary(final, final.n_records)
    assert seq == 2
    assert root_hub.aggregator.leaves["leaf1"].last_seq == 2


# ----------------------------------------------------------------------
# Run registry isolation


def test_runs_are_isolated_on_one_listener(four_node_spool):
    hub = LoopbackHub()
    push_nodes(four_node_spool, hub, ["node1", "node2"], run="runA")
    push_nodes(four_node_spool, hub, ["node1"], run="runB")
    regA = hub.registry.get("runA")
    regB = hub.registry.get("runB")
    assert sorted(regA.nodes) == ["node1", "node2"]
    assert sorted(regB.nodes) == ["node1"]
    # Same node name, different runs: cursors never interfered.
    raw = (four_node_spool / "node1.spool").read_bytes()
    assert bytes(regA.nodes["node1"].buf) == raw
    assert bytes(regB.nodes["node1"].buf) == raw
    assert regA.all_drained() and regB.all_drained()
    assert hub.registry.all_drained(expected_sources=3)
    # v1 clients (no run) land in the default run, untouched by either.
    push_nodes(four_node_spool, hub, ["node3"])
    assert sorted(hub.aggregator.nodes) == ["node3"]


# ----------------------------------------------------------------------
# The periodic pump


def test_summary_pump_ships_growing_snapshots(four_node_spool):
    root_hub = LoopbackHub()
    leaf_hub = LoopbackHub(live=True)
    uplink = uplink_for("leaf1", root_hub)
    pump = SummaryPump(leaf_hub.aggregator, uplink, interval_s=0.01)
    pump.start()
    try:
        push_nodes(four_node_spool, leaf_hub, ["node1", "node2"])
        deadline = 200
        while root_hub.aggregator.leaves.get("leaf1") is None or \
                not root_hub.aggregator.leaves["leaf1"].summary:
            import time
            time.sleep(0.01)
            deadline -= 1
            assert deadline > 0, "pump never delivered a snapshot"
    finally:
        pump.stop()
    final = leaf_hub.aggregator.run_summary(final=True)
    assert uplink.finish(final, final.n_records)
    root = root_hub.aggregator
    assert root.all_drained()
    assert compare_profiles(final.to_profile(), root.fanin_profile()) == []


# ----------------------------------------------------------------------
# Chaos: faults on both tiers, convergence anyway


def test_fanin_converges_under_wire_faults(four_node_spool):
    names = sorted(read_trace_header(four_node_spool).nodes)
    single_hub = LoopbackHub()
    push_nodes(four_node_spool, single_hub, names)
    single = single_hub.aggregator.merged_profile()

    chaos = WireFaultConfig(
        frame_loss_rate=0.05, frame_dup_rate=0.05,
        frame_corrupt_rate=0.03, frame_tear_rate=0.02,
        frame_delay_rate=0.05, disconnect_rate=0.02,
    )
    summary_chaos = WireFaultConfig(
        frame_loss_rate=0.15, frame_dup_rate=0.10, frame_corrupt_rate=0.10,
    )
    root_hub = LoopbackHub()
    for i, (leaf_name, leaf_nodes) in enumerate(
            (("leafA", names[:2]), ("leafB", names[2:]))):
        leaf_hub = LoopbackHub(live=True)
        for name in leaf_nodes:
            wire = LossyWire(leaf_hub.connect, chaos, seed=41 + i,
                             node_name=name)
            client = CollectorClient.from_spool_header(
                four_node_spool, name, wire,
                config=CollectorConfig(chunk_records=8, max_retries=50),
                sleep_fn=lambda s: None,
            )
            client.push_spool(four_node_spool / f"{name}.spool")
            client.close()
        final = leaf_hub.aggregator.run_summary(final=True)
        up_wire = LossyWire(root_hub.connect, chaos, seed=97 + i,
                            node_name=leaf_name,
                            summary_config=summary_chaos)
        uplink = LeafUplink(leaf_name, up_wire, max_retries=50,
                            sleep_fn=lambda s: None)
        assert uplink.finish(final, final.n_records)
        uplink.close()

    root = root_hub.aggregator
    assert root.all_drained(expected_nodes=2)
    # Loss, duplication, and corruption cost retransmits, never data:
    # the composed profile still equals the clean single-tier one.
    assert compare_profiles(single, root.fanin_profile()) == []
