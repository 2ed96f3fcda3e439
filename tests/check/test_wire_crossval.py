"""TL022 golden tests: wire-reassembled bundles vs the local baseline.

The contract under test: a bundle an aggregator persisted from
``tempest-wire-v1`` chunks — even chunks that crossed a faulty wire — is
byte-identical to the bundle the node would have saved locally, and
``compare_bundle_dirs`` / ``tempest check --baseline`` catch any
divergence exactly once per (rule, node).
"""

import json

import pytest

from repro.check.tracelint import compare_bundle_dirs
from repro.cli import main
from repro.cluster import CollectorClient, CollectorConfig, LoopbackHub
from repro.core.records import RECORD_SIZE
from repro.core.trace import TraceBundle, read_trace_header
from repro.faults import LossyWire, WireFaultConfig

from tests.cluster.conftest import build_spool_dir

FAULTS = WireFaultConfig(
    frame_loss_rate=0.08,
    frame_dup_rate=0.06,
    frame_tear_rate=0.05,
    frame_corrupt_rate=0.05,
    frame_delay_rate=0.05,
    disconnect_rate=0.04,
)


@pytest.fixture
def bundle_pair(tmp_path):
    """(local_dir, wire_dir): the same 2-node run saved both ways, with
    the wire copy assembled through a seeded lossy transport."""
    spool_dir = build_spool_dir(tmp_path / "spools", ["node1", "node2"],
                                n_pairs=25)
    hub = LoopbackHub()
    for name in sorted(read_trace_header(spool_dir).nodes):
        wire = LossyWire(hub.connect, FAULTS, seed=13, node_name=name)
        client = CollectorClient.from_spool_header(
            spool_dir, name, wire,
            config=CollectorConfig(chunk_records=8, queue_frames=4,
                                   max_retries=50),
            sleep_fn=lambda s: None,
        )
        client.push_spool(spool_dir / f"{name}.spool")
        client.close()
    local_dir, wire_dir = tmp_path / "local", tmp_path / "wire"
    TraceBundle.load(spool_dir).save(local_dir)
    hub.aggregator.save_bundle(wire_dir)
    return local_dir, wire_dir


def test_fault_injected_wire_bundle_is_clean(bundle_pair):
    local, wire = bundle_pair
    assert compare_bundle_dirs(local, wire) == []


def test_tampered_record_fires_tl022_once(bundle_pair):
    local, wire = bundle_pair
    blob = bytearray((wire / "node2.spool").read_bytes())
    blob[5 * RECORD_SIZE + 2] ^= 0x40
    (wire / "node2.spool").write_bytes(bytes(blob))
    diags = compare_bundle_dirs(local, wire)
    assert [d.rule for d in diags] == ["TL022"]
    assert diags[0].node == "node2"
    assert diags[0].severity == "error"
    assert "record 5" in diags[0].message


def test_truncated_record_file_fires_tl022(bundle_pair):
    local, wire = bundle_pair
    blob = (wire / "node1.spool").read_bytes()
    (wire / "node1.spool").write_bytes(blob[:-RECORD_SIZE])
    diags = compare_bundle_dirs(local, wire)
    tl22 = [d for d in diags if d.rule == "TL022"]
    assert len(tl22) == 1 and tl22[0].node == "node1"
    assert "size" in tl22[0].message


def test_missing_and_extra_nodes_fire_tl022(bundle_pair):
    local, wire = bundle_pair
    meta = json.loads((wire / "header.json").read_text())
    meta["nodes"]["node9"] = meta["nodes"].pop("node2")
    (wire / "header.json").write_text(json.dumps(meta))
    diags = compare_bundle_dirs(local, wire)
    by_node = {d.node: d.message for d in diags if d.rule == "TL022"}
    assert "node2" in by_node and "missing" in by_node["node2"]
    assert "node9" in by_node and "only in" in by_node["node9"]


def test_metadata_divergence_fires_tl022(bundle_pair):
    local, wire = bundle_pair
    meta = json.loads((wire / "header.json").read_text())
    meta["nodes"]["node1"]["tsc_hz"] = 2.4e9
    (wire / "header.json").write_text(json.dumps(meta))
    diags = compare_bundle_dirs(local, wire)
    assert any(d.rule == "TL022" and d.node == "node1"
               and "tsc_hz" in d.message for d in diags)


def test_derivable_fields_are_exempt(bundle_pair):
    local, wire = bundle_pair
    meta = json.loads((wire / "header.json").read_text())
    meta["nodes"]["node1"]["truncated"] = False
    (wire / "header.json").write_text(json.dumps(meta, indent=2))
    # Key order was also scrambled by the rewrite; neither may fire.
    assert compare_bundle_dirs(local, wire) == []


def test_cli_check_baseline(bundle_pair, tmp_path, capsys):
    local, wire = bundle_pair
    assert main(["check", str(wire), "--baseline", str(local)]) == 0
    capsys.readouterr()
    blob = bytearray((wire / "node1.spool").read_bytes())
    blob[3] ^= 0x01
    (wire / "node1.spool").write_bytes(bytes(blob))
    report_json = tmp_path / "report.json"
    assert main(["check", str(wire), "--baseline", str(local),
                 "--json", str(report_json)]) == 1
    out = capsys.readouterr().out
    assert "TL022" in out
    report = json.loads(report_json.read_text())
    assert any(d["rule"] == "TL022" for d in report["diagnostics"])


def test_cli_check_baseline_must_be_a_bundle(bundle_pair, tmp_path, capsys):
    _local, wire = bundle_pair
    assert main(["check", str(wire),
                 "--baseline", str(tmp_path / "nope")]) == 2
