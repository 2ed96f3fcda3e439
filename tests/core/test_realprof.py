"""Tests for the real-process profiling backend (against a virtual hwmon
tree materialized on disk, so no physical sensors are required)."""

import threading
import time

import pytest

from repro.core.realprof import RealTempest
from repro.core.report import render_stdout_report
from repro.core.sensors import HwmonSensorReader, SensorReader
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.hwmon import VirtualHwmonTree
from repro.util.errors import ConfigError


# Real workload functions profiled by sys.setprofile.

def _spin(seconds):
    end = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < end:
        x += 1
    return x


def _spin_until(event, deadline_s):
    end = time.perf_counter() + deadline_s
    x = 0
    while not event.is_set() and time.perf_counter() < end:
        x += 1
    return x


class _CountingReader(SensorReader):
    """Delegates to *inner* and sets ``twice`` once it has been read
    twice (only the sampler thread reads it)."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0
        self.twice = threading.Event()

    def sensor_names(self):
        return self.inner.sensor_names()

    def read_all(self, t=0.0):
        samples = self.inner.read_all(t)
        self.reads += 1
        if self.reads >= 2:
            self.twice.set()
        return samples


def busy_child(seconds=0.08):
    return _spin(seconds)


def quick_child():
    return 42


def real_main():
    a = busy_child()
    b = quick_child()
    return (a, b)


@pytest.fixture
def reader(tmp_path):
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    tree = VirtualHwmonTree(tmp_path, [m.node("node1").chip])
    tree.materialize(0.0)
    return HwmonSensorReader(tmp_path)


def test_real_profile_captures_functions(reader):
    rt = RealTempest(reader, sampling_hz=20.0)
    result = rt.run(real_main)
    assert result[1] == 42
    prof = rt.profile()
    node = prof.node("localhost")
    fns = set(node.functions)
    assert {"main", "real_main", "busy_child", "quick_child", "_spin"} <= fns
    # busy_child dominates real_main's time.
    assert node.function("busy_child").total_time_s == pytest.approx(
        0.08, rel=0.5
    )
    assert node.function("main").total_time_s >= node.function(
        "real_main").total_time_s


def test_real_profile_collects_temperature_samples(reader):
    # spin until the sampler has swept the sensors twice, not for a fixed
    # time: a loaded machine can starve the sampler thread
    counting = _CountingReader(reader)
    rt = RealTempest(counting, sampling_hz=30.0)
    rt.run(lambda: _spin_until(counting.twice, deadline_s=10.0))
    assert counting.twice.is_set(), (
        f"sensor reader read {counting.reads} time(s) in 10 s")
    prof = rt.profile()
    node = prof.node("localhost")
    names = node.sensor_names()
    assert names == ["CPU0 Temp", "CPU1 Temp", "M/B Temp"]
    times, vals = node.sensor_series["CPU0 Temp"]
    assert len(vals) >= 2
    assert all(10.0 < v < 80.0 for v in vals)


def test_real_profile_report_renders(reader):
    rt = RealTempest(reader, sampling_hz=30.0)
    rt.run(real_main)
    text = render_stdout_report(rt.profile(), fahrenheit=True)
    assert "Function: main" in text
    assert "Total Time(sec):" in text


def test_real_bundle_roundtrip(reader, tmp_path):
    from repro.core.parser import TempestParser
    from repro.core.trace import TraceBundle

    rt = RealTempest(reader, sampling_hz=30.0)
    rt.run(real_main)
    rt.collect().save(tmp_path / "realtrace")
    prof = TempestParser(
        TraceBundle.load(tmp_path / "realtrace"), strict=False
    ).parse()
    assert "busy_child" in prof.node("localhost").functions


def test_real_profile_include_filter(reader):
    rt = RealTempest(
        reader,
        sampling_hz=30.0,
        include=lambda code: code.co_name == "busy_child",
    )
    rt.run(real_main)
    prof = rt.profile()
    fns = set(prof.node("localhost").functions)
    assert "busy_child" in fns
    assert "quick_child" not in fns


def test_bad_sampling_rate_rejected(reader):
    with pytest.raises(ConfigError):
        RealTempest(reader, sampling_hz=0.0)
