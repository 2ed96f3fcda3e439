"""Tests for sensor readers and the tempd daemon."""

import pytest

from repro.core.instrument import HookCosts, NodeTracer
from repro.core.sensors import HwmonSensorReader, SimSensorReader, discover_hwmon
from repro.core.symtab import SymbolTable
from repro.core.tempd import TempdConfig, tempd_process
from repro.core.trace import REC_TEMP
from repro.simmachine.hwmon import VirtualHwmonTree
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.power import ACTIVITY_BURN
from repro.simmachine.process import Compute
from repro.util.errors import ConfigError, SensorError


def make_machine():
    return Machine(ClusterConfig(n_nodes=1, vary_nodes=False))


def test_sim_reader_names_and_values():
    m = make_machine()
    reader = SimSensorReader(m.node("node1"))
    names = reader.sensor_names()
    assert names == ["CPU0 Temp", "CPU1 Temp", "M/B Temp"]
    out = reader.read_all(0.0)
    assert [i for i, _ in out] == [0, 1, 2]
    assert all(15.0 < v < 60.0 for _, v in out)


def test_sim_reader_reference_close_to_quantized():
    m = make_machine()
    reader = SimSensorReader(m.node("node1"))
    quantized = dict(reader.read_all(0.0))
    reference = dict(reader.read_reference(0.0))
    for idx in quantized:
        assert quantized[idx] == pytest.approx(reference[idx], abs=1.5)


def test_hwmon_reader_against_virtual_tree(tmp_path):
    m = make_machine()
    node = m.node("node1")
    tree = VirtualHwmonTree(tmp_path, [node.chip])
    tree.materialize(0.0)
    reader = HwmonSensorReader(tmp_path)
    assert reader.sensor_names() == ["CPU0 Temp", "CPU1 Temp", "M/B Temp"]
    real = dict(reader.read_all())
    sim = dict(SimSensorReader(node).read_all(0.0))
    for idx in sim:
        # Same chip, but independent noise draws: within a quantum or two.
        assert real[idx] == pytest.approx(sim[idx], abs=2.5)


def test_hwmon_reader_missing_root():
    with pytest.raises(SensorError):
        HwmonSensorReader("/nonexistent/hwmon/root")


def test_hwmon_reader_empty_tree(tmp_path):
    with pytest.raises(SensorError):
        HwmonSensorReader(tmp_path)


def test_hwmon_reader_unlabeled_channels(tmp_path):
    d = tmp_path / "hwmon0"
    d.mkdir()
    (d / "name").write_text("k10temp\n")
    (d / "temp1_input").write_text("43000\n")
    reader = HwmonSensorReader(tmp_path)
    assert reader.sensor_names() == ["k10temp/temp1"]
    assert reader.read_all() == [(0, 43.0)]


def test_hwmon_reader_corrupt_input(tmp_path):
    d = tmp_path / "hwmon0"
    d.mkdir()
    (d / "temp1_input").write_text("garbage\n")
    reader = HwmonSensorReader(tmp_path)
    with pytest.raises(SensorError):
        reader.read_all()


def test_discover_hwmon_never_raises():
    # Either a reader (real Linux) or None (containers) — never an exception.
    result = discover_hwmon()
    assert result is None or isinstance(result, HwmonSensorReader)


def run_tempd(duration_s, config=TempdConfig(), costs=HookCosts()):
    m = make_machine()
    node = m.node("node1")
    reader = SimSensorReader(node)
    tracer = NodeTracer("node1", SymbolTable(), tsc_hz=1.8e9,
                        sensor_names=reader.sensor_names(), costs=costs)
    tempd = m.spawn(
        lambda p: tempd_process(p, tracer, reader, config),
        "node1", 3, name="tempd",
    )

    def workload(proc):
        steps = int(duration_s / 0.5)
        for _ in range(steps):
            yield Compute(0.5, ACTIVITY_BURN)

    w = m.spawn(workload, "node1", 0)
    m.run_to_completion([w])
    tracer.stop()
    m.sim.run(until=m.sim.now + 1.0)
    return m, tracer, tempd


def test_tempd_samples_at_4hz():
    _, tracer, _ = run_tempd(10.0)
    temp_recs = tracer.trace.temp_columns()
    sweeps = len(temp_recs) / 3  # three sensors per sweep
    assert 38 <= sweeps <= 46  # ~4 Hz over ~10.5 s


def test_tempd_stops_on_flag():
    m, tracer, tempd = run_tempd(2.0)
    from repro.simmachine.process import ST_FINISHED
    assert tempd.state == ST_FINISHED
    assert tempd.result == tracer.n_samples


def test_tempd_cpu_share_below_one_percent():
    """§4.1: 'tempd ... used less than 1% of CPU time'."""
    m, tracer, tempd = run_tempd(20.0)
    sweeps = tracer.n_samples / 3
    busy = sweeps * tracer.sample_cost(3)
    assert busy / m.sim.now < 0.01


def test_tempd_first_sample_precedes_workload_activity():
    _, tracer, _ = run_tempd(2.0)
    first = tracer.trace.columns.array[0]
    assert first["kind"] == REC_TEMP
    assert tracer.trace.seconds(first["tsc"]) < 0.01


def test_tempd_custom_rate():
    _, tracer, _ = run_tempd(10.0, TempdConfig(sampling_hz=10.0))
    sweeps = tracer.n_samples / 3
    assert 95 <= sweeps <= 115


def test_tempd_config_validation():
    with pytest.raises(ConfigError):
        TempdConfig(sampling_hz=0.0)
