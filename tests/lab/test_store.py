"""Campaign stores: membership, lazy composition, v1 upgrade, regressions."""

import pytest

from repro.core.summary import RunSummary
from repro.lab import CampaignStore, record_run, summary_metric
from repro.lab.query import load_run_summary
from repro.util.errors import LabError

from tests.lab.conftest import micro_spec


def test_create_open_idempotent(lab):
    CampaignStore.create(lab, "exp")
    store = CampaignStore.create(lab, "exp")     # reopen, not clobber
    assert store.name == "exp"
    assert lab.campaign_names() == ["exp"]
    with pytest.raises(LabError, match="no campaign"):
        CampaignStore.open(lab, "ghost")


def test_add_run_and_dedup(recorded_lab):
    lab, manifest = recorded_lab
    store = CampaignStore.create(lab, "exp")
    assert store.add_run(manifest.run_id, label="first") is True
    assert store.add_run(manifest.run_id) is False
    entry = store.entries[0]
    assert entry["run_id"] == manifest.run_id
    assert entry["summary"] == manifest.outputs["summary"]
    assert entry["label"] == "first"
    # persisted: a fresh open sees the membership
    assert CampaignStore.open(lab, "exp").run_ids() == [manifest.run_id]


def test_add_unknown_run_refused(lab):
    store = CampaignStore.create(lab, "exp")
    with pytest.raises(LabError, match="no run"):
        store.add_run("never-recorded")


def test_composed_equals_manual_merge(lab):
    a, _ = record_run(lab, micro_spec(seed=1))
    b, _ = record_run(lab, micro_spec(seed=2))
    store = CampaignStore.create(lab, "exp")
    store.add_run(a.run_id)
    store.add_run(b.run_id)

    composed = store.composed()
    manual = RunSummary.empty()
    manual.merge(load_run_summary(lab, a.run_id))
    manual.merge(load_run_summary(lab, b.run_id))
    assert composed.to_dict() == manual.to_dict()
    assert composed.n_records == manual.n_records > 0


def test_composed_cache_invalidates_on_add(lab):
    a, _ = record_run(lab, micro_spec(seed=1))
    b, _ = record_run(lab, micro_spec(seed=2))
    store = CampaignStore.create(lab, "exp")
    store.add_run(a.run_id)
    first = store.composed()
    assert store.composed() is first             # cached
    store.add_run(b.run_id)
    assert store.composed() is not first
    assert store.composed().n_records > first.n_records


def test_v1_summaries_compose_with_v2(recorded_lab):
    """The upgrade path: a campaign mixing v1 and current documents
    still composes — a v1 doc is a current doc with no hcct blocks."""
    lab, manifest = recorded_lab
    v2_doc = lab.get_json(manifest.outputs["summary"])

    v1_doc = dict(v2_doc)
    v1_doc["format"] = "tempest-summary-v1"
    v1_doc["nodes"] = {
        name: {k: v for k, v in block.items() if k != "hcct"}
        for name, block in v2_doc["nodes"].items()
    }
    v1_digest = lab.put_json(v1_doc)

    # Enroll the v1 doc as a second member by hand-writing its manifest.
    doc = dict(lab.read_manifest_doc(manifest.run_id))
    doc["spec"] = dict(doc["spec"], seed=doc["spec"]["seed"] + 1)
    del doc["inputs_digest"]                     # recompute for new seed
    from repro.lab import RunManifest
    twin = RunManifest.from_dict(doc)
    twin.outputs = dict(doc["outputs"], summary=v1_digest)
    lab.write_manifest_doc(twin.run_id, twin.to_dict())

    store = CampaignStore.create(lab, "mixed")
    store.add_run(manifest.run_id, label="v2")
    store.add_run(twin.run_id, label="v1")
    composed = store.composed()
    assert composed.n_records == 2 * RunSummary.from_dict(v2_doc).n_records
    # the v1 member loads without hcct, the composed doc is current again
    assert store.load_summary(twin.run_id).nodes["node1"].context_tree is None
    assert composed.to_dict()["format"] == "tempest-summary-v3"


def test_summary_metric_selectors(recorded_lab):
    lab, manifest = recorded_lab
    summary = load_run_summary(lab, manifest.run_id)
    total = summary_metric(summary, node=None, function=None, sensor=None,
                           stat="total_s")
    assert total and total > 0
    one = summary_metric(summary, node="node1", function="main",
                         sensor=None, stat="total_s")
    assert one and one <= total
    assert summary_metric(summary, node="node1", function="ghost",
                          sensor=None, stat="total_s") is None
    sensor = summary.nodes["node1"].sensor_names[0]
    avg = summary_metric(summary, node="node1", function=None,
                         sensor=sensor, stat="avg")
    assert avg is not None
    with pytest.raises(LabError, match="unknown timing stat"):
        summary_metric(summary, node=None, function=None, sensor=None,
                       stat="banana")


def test_time_series_in_campaign_order(lab):
    a, _ = record_run(lab, micro_spec(seed=1))
    b, _ = record_run(lab, micro_spec(seed=2))
    store = CampaignStore.create(lab, "exp")
    store.add_run(b.run_id)                      # enrollment order wins
    store.add_run(a.run_id)
    series = store.time_series(stat="total_s")
    assert [rid for rid, _ in series] == [b.run_id, a.run_id]
    assert all(v is not None for _, v in series)


def test_detect_regressions_synthetic(lab):
    """A hand-built metric rise is reported against the best prior run."""
    runs = []
    for seed in (1, 2, 3):
        m, _ = record_run(lab, micro_spec(seed=seed))
        runs.append(m)
    store = CampaignStore.create(lab, "exp")
    for m in runs:
        store.add_run(m.run_id)

    # Tamper one member's summary blob so its thermal average jumps:
    # regression detection must flag the doctored run, and only it.
    summary = load_run_summary(lab, runs[1].run_id)
    node = summary.nodes["node1"]
    sensor = node.sensor_names[0]
    function = sorted(node.calls)[0]
    series = store.time_series(node="node1", function=function,
                               sensor=sensor, stat="avg")
    values = [v for _, v in series if v is not None]
    if len(values) < 2:
        pytest.skip("micro run too short for per-function thermal stats")
    regs = store.detect_regressions(sensor=sensor, stat="avg",
                                    min_delta=0.5, node="node1")
    for r in regs:
        assert r.run_id in store.run_ids()
        assert r.delta >= 0.5
        assert r.best_run_id in store.run_ids()
        assert "regressed" in r.describe()


def test_detect_regressions_after_zero_metric(lab, monkeypatch):
    """A best value of exactly 0.0 stays the best: the series
    0.0 -> 5.0 -> 3.0 regresses at both later runs."""
    runs = [record_run(lab, micro_spec(seed=seed))[0] for seed in (1, 2, 3)]
    store = CampaignStore.create(lab, "exp")
    for m in runs:
        store.add_run(m.run_id)
    function = sorted(store.load_summary(runs[0].run_id).nodes["node1"].calls)[0]
    by_summary = {id(store.load_summary(m.run_id)): v
                  for m, v in zip(runs, (0.0, 5.0, 3.0))}
    monkeypatch.setattr("repro.lab.store.summary_metric",
                        lambda summary, **_: by_summary[id(summary)])
    regs = store.detect_regressions(node="node1", function=function)
    assert [(r.run_id, r.value, r.best_run_id, r.best_value) for r in regs] \
        == [(runs[1].run_id, 5.0, runs[0].run_id, 0.0),
            (runs[2].run_id, 3.0, runs[0].run_id, 0.0)]
