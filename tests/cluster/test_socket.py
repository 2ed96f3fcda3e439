"""The threaded socket server end to end: real TCP, real threads, and
the CLI front ends (`tempest serve` / `tempest push`)."""

import json
import threading

import pytest

from repro.check.tracelint import compare_profiles
from repro.cli import main
from repro.cluster import (
    AggregatorServer,
    CollectorClient,
    CollectorConfig,
    SocketTransport,
)
from repro.core import TempestSession
from repro.core.parser import TempestParser
from repro.core.records import RECORD_SIZE
from repro.core.trace import TraceBundle, read_trace_header
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads.microbench import micro_d

from tests.cluster.conftest import build_spool_dir


def push_over_socket(spool_dir, host, port, node):
    client = CollectorClient.from_spool_header(
        spool_dir, node, lambda: SocketTransport(host, port),
        config=CollectorConfig(chunk_records=32),
    )
    acked = client.push_spool(spool_dir / f"{node}.spool")
    client.close()
    return acked


def test_socket_server_three_collectors_concurrently(spool_dir):
    names = sorted(read_trace_header(spool_dir).nodes)
    with AggregatorServer(expected_nodes=len(names)) as server:
        threads = [
            threading.Thread(target=push_over_socket,
                             args=(spool_dir, server.host, server.port, n))
            for n in names
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert server.wait_drained(timeout=30)
    agg = server.aggregator
    for name in names:
        raw = (spool_dir / f"{name}.spool").read_bytes()
        assert bytes(agg.nodes[name].buf) == raw
    wire = agg.merged_profile()
    local = TempestParser(TraceBundle.load(spool_dir)).parse()
    assert compare_profiles(local, wire) == []


def test_session_spools_pushed_match_inprocess_profile(tmp_path):
    """The acceptance gate: a profiled 3-node run, collected over the
    wire, equals the in-process profile."""
    machine = Machine(ClusterConfig(n_nodes=3, vary_nodes=False, seed=11))
    spool_dir = tmp_path / "spools"
    session = TempestSession(machine, spool_dir=spool_dir)
    session.run_mpi(lambda ctx: micro_d(ctx, 1.5, 0.1), 3)
    local = session.profile(strict=True)

    names = sorted(read_trace_header(spool_dir).nodes)
    assert len(names) == 3
    with AggregatorServer(expected_nodes=3) as server:
        for name in names:
            push_over_socket(spool_dir, server.host, server.port, name)
        assert server.wait_drained(timeout=30)
    wire = server.aggregator.merged_profile()
    assert set(wire.nodes) == set(local.nodes)
    assert compare_profiles(local, wire) == []


def test_cli_serve_and_push_roundtrip(spool_dir, tmp_path, capsys):
    with AggregatorServer(expected_nodes=3) as server:
        push_json = tmp_path / "push.json"
        rc = main([
            "push", str(spool_dir),
            "--connect", f"{server.host}:{server.port}",
            "--chunk-records", "32", "--json", str(push_json),
        ])
        assert rc == 0
        assert server.wait_drained(timeout=30)
    report = json.loads(push_json.read_text())
    assert report["format"] == "tempest-push-v1"
    assert sorted(report["nodes"]) == ["node1", "node2", "node3"]
    for entry in report["nodes"].values():
        assert entry["records_acked"] == entry["records_total"]
    err = capsys.readouterr().err
    assert "records acknowledged" in err


def test_cli_serve_emits_profile_and_bundle(spool_dir, tmp_path, capsys):
    serve_json = tmp_path / "serve.json"
    out_dir = tmp_path / "wire_bundle"
    result = {}

    def run_serve():
        result["rc"] = main([
            "serve", "--bind", "127.0.0.1:0", "--nodes", "3",
            "--timeout", "30", "--out", str(out_dir),
            "--json", str(serve_json),
        ])

    t = threading.Thread(target=run_serve)
    # The CLI prints its bound port to stderr, but from a thread the
    # simplest deterministic handshake is polling the JSON-free side
    # effect: serve binds before wait_drained, so grab the port via a
    # capsys snapshot loop.
    t.start()
    import re
    import time

    port = None
    for _ in range(200):
        err = capsys.readouterr().err
        m = re.search(r"listening on ([\d.]+):(\d+)", err)
        if m:
            port = int(m.group(2))
            break
        time.sleep(0.05)
    assert port is not None, "serve never reported its port"
    for name in sorted(read_trace_header(spool_dir).nodes):
        push_over_socket(spool_dir, "127.0.0.1", port, name)
    t.join(timeout=30)
    assert result["rc"] == 0
    report = json.loads(serve_json.read_text())
    assert report["format"] == "tempest-serve-v1"
    assert report["drained"] is True
    assert report["metrics"]["records_in"] > 0
    assert set(report["nodes"]) == {"node1", "node2", "node3"}
    for name in report["nodes"]:
        raw = (spool_dir / f"{name}.spool").read_bytes()
        assert report["nodes"][name]["n_records"] == len(raw) // RECORD_SIZE
        assert (out_dir / f"{name}.spool").read_bytes() == raw


def test_cli_serve_times_out_without_collectors(tmp_path, capsys):
    rc = main(["serve", "--bind", "127.0.0.1:0", "--nodes", "1",
               "--timeout", "0.2"])
    assert rc == 1


def test_cli_push_usage_errors(spool_dir, capsys):
    assert main(["push", str(spool_dir), "--connect", "nonsense"]) == 2
    assert main(["push", str(spool_dir), "--connect", "127.0.0.1:1",
                 "--node", "node9"]) == 2


def test_cli_push_unknown_policy_rejected(spool_dir, capsys):
    with pytest.raises(SystemExit):
        main(["push", str(spool_dir), "--connect", "127.0.0.1:1",
              "--policy", "yolo"])
