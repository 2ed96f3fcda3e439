"""Golden diagnostics: fault-injected artifacts trigger their rule ids.

Each fixture corrupts a clean artifact through the ``repro.faults``
machinery (the same fault model the chaos suite uses) and asserts the
corruption surfaces as exactly the expected rule — and, thanks to
per-(rule, node) aggregation, exactly *once* per rule, however many
records were damaged.
"""

import pytest

from repro.check.tracelint import check_bundle_dir, check_spool_dir
from repro.core.sensors import SensorReader
from repro.core.spool import write_spool_header
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_TEMP,
    TraceBundle,
)
from repro.faults import (
    FaultConfig,
    FaultPlan,
    FaultySensorReader,
    LossyNodeTrace,
    LossyTraceSpool,
)
from repro.util.errors import SensorError

from tests.check.fixtures import build_bundle, fill_trace


def rule_counts(diags):
    out = {}
    for d in diags:
        out[d.rule] = out.get(d.rule, 0) + 1
    return out


def lossy_bundle(tmp_path, config, *, seed=7, n_pairs=40):
    """Run the clean fixture stream through a LossyNodeTrace and save."""
    plan = FaultPlan(config, seed=seed, node_names=["node1"])
    symtab = SymbolTable()
    trace = LossyNodeTrace("node1", 1.8e9, ["S0", "S1"], plan)
    fill_trace(trace, symtab, n_pairs=n_pairs)
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0}
    path = tmp_path / "bundle"
    bundle.save(path)
    return path, trace


def test_corrupted_temps_fire_tl010_and_tl011_once_each(tmp_path):
    # Huge gaussian offsets knock TEMP values both off the 0.25 C grid
    # (TL011) and out of the plausible band (TL010); zero TSC jitter
    # keeps the function stream clean.
    path, trace = lossy_bundle(tmp_path, FaultConfig(
        record_corrupt_rate=0.9, temp_corrupt_sd_c=500.0,
        tsc_corrupt_max_cycles=0,
    ))
    assert trace.n_records_corrupted > 10
    counts = rule_counts(check_bundle_dir(path))
    assert counts["TL010"] == 1
    assert counts["TL011"] == 1
    assert "TL006" not in counts and "TL008" not in counts


def test_record_loss_fires_stack_rules_once_each(tmp_path):
    # Half the records vanish: dropped ENTERs surface as TL006 (EXIT
    # mismatch), dropped EXITs as TL007 (open frames at end of stream).
    path, trace = lossy_bundle(tmp_path, FaultConfig(record_loss_rate=0.5))
    assert trace.n_records_dropped > 10
    counts = rule_counts(check_bundle_dir(path))
    fired = {r for r in ("TL006", "TL007") if r in counts}
    assert fired, f"record loss produced no stack findings: {counts}"
    for r in fired:
        assert counts[r] == 1


def test_torn_spool_fires_tl002_as_warning_exactly_once(tmp_path):
    plan = FaultPlan(FaultConfig(), seed=1, node_names=["node1"])
    spool = LossyTraceSpool(tmp_path / "node1.spool", plan, "node1", 1.8e9)
    symtab = SymbolTable()
    addr = symtab.address_of("main")
    for i in range(50):
        spool.write_event(1, addr, i * 1000, 0, 1)
        spool.write_event(2, addr, i * 1000 + 500, 0, 1)
    spool.truncate_tail(5)   # a mid-append crash
    write_spool_header(tmp_path, symtab,
                       {"node1": {"tsc_hz": 1.8e9,
                                  "sensor_names": ["S0", "S1"]}},
                       {"sampling_hz": 4.0})
    diags = check_spool_dir(tmp_path)
    torn = [d for d in diags if d.rule == "TL002"]
    assert len(torn) == 1
    assert torn[0].severity == "warning"   # downgraded: recoverable tail
    assert torn[0].node == "node1"


def test_clean_spool_is_clean(tmp_path):
    plan = FaultPlan(FaultConfig(), seed=1, node_names=["node1"])
    spool = LossyTraceSpool(tmp_path / "node1.spool", plan, "node1", 1.8e9)
    symtab = SymbolTable()
    addr = symtab.address_of("main")
    spool.write_event(1, addr, 0, 0, 1)
    spool.write_event(2, addr, 1000, 0, 1)
    spool.close()
    write_spool_header(tmp_path, symtab,
                       {"node1": {"tsc_hz": 1.8e9, "sensor_names": ["S0"]}},
                       {"sampling_hz": 4.0})
    assert check_spool_dir(tmp_path) == []


class _SteadyReader(SensorReader):
    def sensor_names(self):
        return ["S0"]

    def read_all(self, t):
        return [(0, 42.25)]


def test_dead_sensors_leave_empty_trace_tl015(tmp_path):
    # A FaultySensorReader inside a whole-run dropout window fails every
    # sweep, so tempd records nothing: the declared node's empty trace
    # surfaces as TL015 (info), exactly once.
    plan = FaultPlan(FaultConfig(dropout_windows=1,
                                 dropout_duration_s=60.0, horizon_s=60.0),
                     seed=3, node_names=["node1"])
    reader = FaultySensorReader(_SteadyReader(), plan, "node1")
    trace = NodeTrace("node1", 1.8e9, reader.sensor_names())
    for sweep in range(8):
        t = sweep * 0.25
        try:
            for idx, value in reader.read_all(t):
                trace.append_event(REC_TEMP, idx, int(t * 1.8e9), 0, 2,
                                   value)
        except SensorError:
            continue
    assert reader.n_dropout_failures == 8
    bundle = TraceBundle(SymbolTable())
    bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0}
    path = tmp_path / "bundle"
    bundle.save(path)
    counts = rule_counts(check_bundle_dir(path))
    assert counts == {"TL015": 1}


def test_clean_fixture_stays_golden(tmp_path):
    """The corruption-free version of the same pipeline yields nothing —
    the golden assertions above measure the faults, not the fixture."""
    path = tmp_path / "bundle"
    build_bundle(n_pairs=40).save(path)
    assert check_bundle_dir(path) == []
