"""Lossy/corrupting trace sinks: drop, corrupt, skew — never torn framing."""

import struct

import numpy as np
import pytest

from repro.core.spool import write_spool_header
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP, TraceBundle
from repro.faults import FaultConfig, FaultPlan, LossyNodeTrace, LossyTraceSpool
from repro.util.errors import TraceError
from tests.rows import Row, rows, spool_records, to_array

TSC_HZ = 1e9


def records(n=1000):
    out = []
    for i in range(n):
        kind = REC_TEMP if i % 3 == 0 else (REC_ENTER if i % 2 else REC_EXIT)
        out.append(Row(kind, i % 7, i * 1_000_000, 0, 1,
                       45.0 if kind == REC_TEMP else 0.0))
    return out


def make_trace(cfg, seed=1):
    plan = FaultPlan(cfg, seed=seed, node_names=["n"])
    return LossyNodeTrace("n", TSC_HZ, ["S0"], plan)


def test_loss_rate_approximate():
    trace = make_trace(FaultConfig(record_loss_rate=0.2))
    for r in records():
        trace.append_event(*r)
    assert trace.n_records_dropped + len(trace) == 1000
    assert 120 < trace.n_records_dropped < 280


def test_corruption_keeps_records_parseable():
    trace = make_trace(FaultConfig(record_corrupt_rate=0.3))
    original = records()
    for r in original:
        trace.append_event(*r)
    assert len(trace) == 1000                  # corruption never drops
    assert trace.n_records_corrupted > 200
    stored = rows(trace.columns.array)
    changed = sum(1 for a, b in zip(original, stored) if a != b)
    assert changed == trace.n_records_corrupted
    rec = struct.Struct("<Bqqiid")
    for a, b in zip(original, stored):
        assert b.kind == a.kind and b.pid == a.pid
        if a.kind == REC_TEMP:
            assert b.tsc == a.tsc              # TEMP corruption hits value
        else:
            assert b.tsc >= a.tsc              # func corruption jitters fwd
            assert b.value == a.value
        # Round-trips through the binary layout regardless.
        assert Row(*rec.unpack(rec.pack(*b))) == b


def test_tsc_skew_steps_shift_later_records():
    cfg = FaultConfig(tsc_skew_steps=1, tsc_skew_max_cycles=500_000,
                      horizon_s=1.0)
    plan = FaultPlan(cfg, seed=4, node_names=["n"])
    (ev,) = plan.events_for("n", "tsc_skew")
    trace = LossyNodeTrace("n", TSC_HZ, ["S0"], plan)
    before = Row(REC_ENTER, 1, int((ev.t_s - 0.01) * TSC_HZ), 0, 1)
    after = Row(REC_EXIT, 1, int((ev.t_s + 0.01) * TSC_HZ), 0, 1)
    trace.append_event(*before)
    trace.append_event(*after)
    tsc = trace.columns.array["tsc"].tolist()
    assert tsc[0] == before.tsc
    assert tsc[1] == after.tsc + int(ev.magnitude)
    assert trace.n_records_skewed == 1


def test_lossy_spool_round_trip(tmp_path):
    plan = FaultPlan(FaultConfig(record_loss_rate=0.1), seed=2,
                     node_names=["n"])
    spool = LossyTraceSpool(tmp_path / "n.spool", plan, "n", TSC_HZ)
    with spool:
        for r in records(500):
            spool.write_event(*r)
    survived = spool_records(tmp_path / "n.spool")
    assert len(survived) == 500 - spool.n_records_dropped
    assert spool.records_written == len(survived)
    assert 20 < spool.n_records_dropped < 90


def test_lossy_spool_truncate_tail_then_recover(tmp_path):
    plan = FaultPlan(FaultConfig(), seed=2, node_names=["n"])
    spool = LossyTraceSpool(tmp_path / "n.spool", plan, "n", TSC_HZ)
    with spool:
        for r in records(10):
            spool.write_event(*r)
    spool.truncate_tail(5)                      # mid-record crash
    survived = spool_records(tmp_path / "n.spool")
    assert len(survived) == 9                   # torn record dropped
    write_spool_header(tmp_path, SymbolTable(), {"n": {
        "tsc_hz": TSC_HZ, "sensor_names": ["S0"], "n_records": 10}}, {})
    with pytest.raises(TraceError):             # closed at 10 records
        TraceBundle.load(tmp_path)


def test_deterministic_surviving_stream():
    def run():
        trace = make_trace(
            FaultConfig(record_loss_rate=0.1, record_corrupt_rate=0.1),
            seed=31,
        )
        for r in records(300):
            trace.append_event(*r)
        return rows(trace.columns.array)

    assert run() == run()


# ----------------------------------------------------------------------
# Bulk columnar fault application must be bit-identical to the row
# path: a size-n uniform draw consumes the generator state exactly like n
# single draws, so both paths see the same fault schedule.

def test_bulk_uniform_draw_matches_single_draws():
    a = np.random.default_rng(123)
    b = np.random.default_rng(123)
    assert np.array_equal(a.random(500),
                          np.array([b.random() for _ in range(500)]))


def test_record_actions_match_per_record_draws():
    from repro.faults.plan import ACT_CORRUPT, ACT_DROP, ACT_KEEP

    cfg = FaultConfig(record_loss_rate=0.15, record_corrupt_rate=0.2)
    plan_a = FaultPlan(cfg, seed=7, node_names=["n"])
    plan_b = FaultPlan(cfg, seed=7, node_names=["n"])
    single = [plan_a.record_action("n") for _ in range(400)]
    codes = {"keep": ACT_KEEP, "drop": ACT_DROP, "corrupt": ACT_CORRUPT}
    bulk = plan_b.record_actions("n", 400)
    assert [codes[s] for s in single] == list(bulk)


def test_skew_cycles_array_matches_scalar():
    cfg = FaultConfig(tsc_skew_steps=3, tsc_skew_max_cycles=100_000,
                      horizon_s=10.0)
    plan = FaultPlan(cfg, seed=11, node_names=["n"])
    ts = np.linspace(0.0, 12.0, 97)
    bulk = plan.skew_cycles_array("n", ts)
    assert list(bulk) == [plan.skew_cycles("n", float(t)) for t in ts]


def test_bulk_extend_equals_per_record_appends():
    cfg = FaultConfig(record_loss_rate=0.1, record_corrupt_rate=0.15,
                      tsc_skew_steps=2, horizon_s=2.0)
    original = records(600)
    per_record = make_trace(cfg, seed=5)
    for r in original:
        per_record.append_event(*r)
    bulk = make_trace(cfg, seed=5)
    bulk.extend_columns(to_array(original))
    assert np.array_equal(bulk.columns.array, per_record.columns.array)
    assert bulk.n_records_dropped == per_record.n_records_dropped
    assert bulk.n_records_corrupted == per_record.n_records_corrupted
