"""Seeded chaos over the wire: LossyWire against the full protocol."""

import pytest

from repro.cluster import CollectorClient, CollectorConfig, LoopbackHub
from repro.core.records import RECORD_SIZE
from repro.core.trace import TraceBundle, read_trace_header
from repro.faults import LossyWire, WireFaultConfig

from tests.cluster.conftest import build_spool_dir

CHAOS = WireFaultConfig(
    frame_loss_rate=0.08,
    frame_dup_rate=0.05,
    frame_tear_rate=0.05,
    frame_corrupt_rate=0.05,
    frame_delay_rate=0.05,
    disconnect_rate=0.05,
)


def chaos_push(spool_dir, *, seed, policy="block", node="node1",
               hub=None):
    hub = hub or LoopbackHub()
    wire = LossyWire(hub.connect, CHAOS, seed=seed, node_name=node)
    client = CollectorClient.from_spool_header(
        spool_dir, node, wire,
        config=CollectorConfig(chunk_records=8, queue_frames=4,
                               heartbeat_every=3, max_retries=50,
                               queue_policy=policy),
        sleep_fn=lambda s: None,
    )
    acked = client.push_spool(spool_dir / f"{node}.spool")
    client.close()
    return hub, client, acked


@pytest.mark.parametrize("policy", ["block", "drop"])
def test_chaos_push_converges_byte_identical(tmp_path, policy):
    spool_dir = build_spool_dir(tmp_path / "s", ["node1"], n_pairs=40)
    hub, client, acked = chaos_push(spool_dir, seed=7, policy=policy)
    raw = (spool_dir / "node1.spool").read_bytes()
    assert acked == len(raw) // RECORD_SIZE
    assert bytes(hub.aggregator.nodes["node1"].buf) == raw
    assert hub.aggregator.all_drained()
    # The chaos config actually exercised the recovery machinery.
    assert client.metrics.reconnects > 0
    m = hub.aggregator.metrics
    assert m.dup_records + m.gap_resets + m.errors > 0


def test_chaos_is_deterministic_under_one_seed(tmp_path):
    spool_dir = build_spool_dir(tmp_path / "s", ["node1"], n_pairs=30)
    runs = []
    for _ in range(2):
        hub, client, acked = chaos_push(spool_dir, seed=42)
        runs.append((acked, client.metrics.to_dict(),
                     hub.aggregator.metrics.to_dict(),
                     bytes(hub.aggregator.nodes["node1"].buf)))
    assert runs[0] == runs[1]


def test_three_node_chaos_cluster_matches_clean_profile(tmp_path):
    from repro.check.tracelint import compare_profiles
    from repro.core.parser import TempestParser

    names = ["node1", "node2", "node3"]
    spool_dir = build_spool_dir(tmp_path / "s", names, n_pairs=25)
    hub = LoopbackHub()
    for name in sorted(read_trace_header(spool_dir).nodes):
        chaos_push(spool_dir, seed=2007, node=name, hub=hub)
    assert hub.aggregator.all_drained(expected_nodes=3)
    wire = hub.aggregator.merged_profile()
    local = TempestParser(TraceBundle.load(spool_dir)).parse()
    # Chaos on the wire must not shift the profile at all: delivery is
    # exactly-once, so agreement is exact, not within-tolerance.
    assert compare_profiles(local, wire) == []
