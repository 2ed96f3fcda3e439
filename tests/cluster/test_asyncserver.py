"""The selectors event-loop server: eviction, observability, multi-run,
and summary fan-in over real TCP."""

import json
import time

from repro.check.tracelint import compare_profiles
from repro.cluster import (
    AsyncAggregatorServer,
    CollectorClient,
    CollectorConfig,
    LeafUplink,
    LoopbackHub,
    SocketTransport,
)
from repro.cluster.wire import FT_HELLO, encode_json_frame, hello_payload
from repro.core.trace import read_trace_header


def push_over_socket(spool_dir, host, port, node, run=None):
    client = CollectorClient.from_spool_header(
        spool_dir, node, lambda: SocketTransport(host, port),
        run=run, config=CollectorConfig(chunk_records=32),
    )
    acked = client.push_spool(spool_dir / f"{node}.spool")
    client.close()
    return acked


def test_stale_collector_is_evicted_and_drain_unwedges(spool_dir):
    with AsyncAggregatorServer(expected_nodes=2,
                               stale_timeout_s=0.3) as server:
        # node1 drains properly...
        push_over_socket(spool_dir, server.host, server.port, "node1")
        # ...node2 says HELLO and then dies silently (no EOF, no close).
        header = read_trace_header(spool_dir)
        info = header.nodes["node2"]
        zombie = SocketTransport(server.host, server.port)
        zombie.send(encode_json_frame(FT_HELLO, hello_payload(
            "node2", info.tsc_hz, info.sensor_names,
            header.symtab.to_dict(), header.meta)))
        zombie.recv_frame()                       # HELLO_ACK
        # Without eviction this would block until the timeout; with it,
        # the drain completes as soon as node2 goes stale.
        assert server.wait_drained(timeout=10)
        agg = server.aggregator
        assert agg.metrics.stale_evictions == 1
        assert agg.nodes["node2"].evicted
        assert agg.nodes["node1"].drained
        zombie.close()


def test_metrics_json_snapshots_are_written_atomically(spool_dir, tmp_path):
    metrics_path = tmp_path / "metrics.json"
    with AsyncAggregatorServer(expected_nodes=1,
                               metrics_json=str(metrics_path),
                               metrics_interval_s=0.05) as server:
        push_over_socket(spool_dir, server.host, server.port, "node1")
        assert server.wait_drained(timeout=10)
        deadline = time.monotonic() + 5
        while not metrics_path.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
    # Shutdown writes a final snapshot reflecting the finished run.
    doc = json.loads(metrics_path.read_text())
    assert doc["format"] == "tempest-serve-metrics-v1"
    node = doc["runs"]["default"]["nodes"]["node1"]
    raw = (spool_dir / "node1.spool").read_bytes()
    assert node["records"] == len(raw) // 33
    assert node["drained"] is True
    assert doc["runs"]["default"]["metrics"]["records_in"] > 0


def test_one_listener_hosts_concurrent_runs(spool_dir):
    with AsyncAggregatorServer(expected_nodes=3) as server:
        push_over_socket(spool_dir, server.host, server.port, "node1",
                         run="runA")
        push_over_socket(spool_dir, server.host, server.port, "node1",
                         run="runB")
        push_over_socket(spool_dir, server.host, server.port, "node2")
        assert server.wait_drained(timeout=10)
        raw = (spool_dir / "node1.spool").read_bytes()
        regA = server.registry.get("runA")
        regB = server.registry.get("runB")
        assert bytes(regA.nodes["node1"].buf) == raw
        assert bytes(regB.nodes["node1"].buf) == raw
        assert sorted(server.aggregator.nodes) == ["node2"]
        # Distinct symbol tables and metrics — nothing bled across runs.
        assert regA.metrics.records_in == len(raw) // 33
        assert regB.metrics.records_in == len(raw) // 33


def test_summary_fanin_over_real_tcp(spool_dir):
    names = sorted(read_trace_header(spool_dir).nodes)
    single_hub = LoopbackHub()
    for name in names:
        client = CollectorClient.from_spool_header(
            spool_dir, name, single_hub.connect,
            config=CollectorConfig(chunk_records=32),
            sleep_fn=lambda s: None,
        )
        client.push_spool(spool_dir / f"{name}.spool")
        client.close()
    single = single_hub.aggregator.merged_profile()

    with AsyncAggregatorServer(expected_nodes=2) as root:
        for leaf_name, leaf_nodes in (("leafA", names[:2]),
                                      ("leafB", names[2:])):
            leaf_hub = LoopbackHub(live=True)
            for name in leaf_nodes:
                client = CollectorClient.from_spool_header(
                    spool_dir, name, leaf_hub.connect,
                    config=CollectorConfig(chunk_records=32),
                    sleep_fn=lambda s: None,
                )
                client.push_spool(spool_dir / f"{name}.spool")
                client.close()
            final = leaf_hub.aggregator.run_summary(final=True)
            uplink = LeafUplink(
                leaf_name,
                lambda: SocketTransport(root.host, root.port),
            )
            assert uplink.finish(final, final.n_records)
            uplink.close()
        assert root.wait_drained(timeout=10)
        fanin = root.aggregator.fanin_profile()
    assert set(fanin.nodes) == set(names)
    assert compare_profiles(single, fanin) == []
