"""tempd under sensor faults: live failure counting, retry-with-backoff,
and crash/restart via the simmachine kill hook."""

import pytest

from repro.core.instrument import NodeTracer
from repro.core.sensors import SensorReader, SimSensorReader
from repro.core.symtab import SymbolTable
from repro.core.tempd import TempdConfig, tempd_process
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.process import Compute, Sleep, ST_FINISHED
from repro.simmachine.power import ACTIVITY_BURN
from repro.util.errors import ConfigError, SensorError


class FlakyStubReader(SensorReader):
    """Fails every ``fail_every``-th read call with SensorError."""

    def __init__(self, fail_every=3, fail_streak=1):
        self.fail_every = fail_every
        self.fail_streak = fail_streak
        self.calls = 0

    def sensor_names(self):
        return ["S0"]

    def read_all(self, t):
        self.calls += 1
        if (self.calls % self.fail_every) < self.fail_streak:
            raise SensorError("stub failure")
        return [(0, 40.0 + t)]


def run_tempd(reader, duration_s=10.0, config=TempdConfig()):
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    tracer = NodeTracer("node1", SymbolTable(), tsc_hz=1.8e9,
                        sensor_names=reader.sensor_names())
    tempd = m.spawn(lambda p: tempd_process(p, tracer, reader, config),
                    "node1", 3, name="tempd")

    def workload(proc):
        steps = int(duration_s / 0.5)
        for _ in range(steps):
            yield Compute(0.5, ACTIVITY_BURN)

    w = m.spawn(workload, "node1", 0)
    m.run_to_completion([w])
    tracer.stop()
    m.sim.run(until=m.sim.now + 1.0)
    return m, tracer, tempd


def test_failed_sweeps_counted_incrementally():
    """Satellite: n_failed_sweeps updates as failures happen, so an
    observer reading the tracer mid-run sees a live count, not 0."""
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    reader = FlakyStubReader(fail_every=2)      # every other sweep fails
    tracer = NodeTracer("node1", SymbolTable(), tsc_hz=1.8e9,
                        sensor_names=reader.sensor_names())
    m.spawn(lambda p: tempd_process(p, tracer, reader, TempdConfig()),
            "node1", 3, name="tempd")
    observed = []

    def observer(proc):
        # Sample the counter while tempd is still very much alive.
        for _ in range(3):
            yield Sleep(2.0)
            observed.append(tracer.n_failed_sweeps)

    obs = m.spawn(observer, "node1", 0)
    m.run_to_completion([obs])
    tracer.stop()
    m.sim.run(until=m.sim.now + 1.0)
    # Mid-run observations: nonzero and strictly accumulating.
    assert observed[0] > 0
    assert observed == sorted(observed)
    assert tracer.n_failed_sweeps >= observed[-1] > 0


def test_flaky_reader_profile_still_forms():
    _, tracer, tempd = run_tempd(FlakyStubReader(fail_every=3))
    assert tempd.state == ST_FINISHED
    assert tracer.n_failed_sweeps >= 10
    assert tracer.n_samples > 0


def test_retry_recovers_transient_failures():
    """With retries on, a one-off failure costs a retry, not a sweep."""
    reader = FlakyStubReader(fail_every=4, fail_streak=1)
    config = TempdConfig(max_retries=2, retry_backoff_s=0.005)
    _, tracer, _ = run_tempd(reader, config=config)
    assert tracer.n_retries > 0
    assert tracer.n_failed_sweeps == 0          # every retry succeeded
    assert tracer.n_samples > 0


def test_retry_budget_exhausts_on_persistent_failure():
    """A failure streak longer than the retry budget still fails the sweep."""
    reader = FlakyStubReader(fail_every=4, fail_streak=4)  # always fails
    config = TempdConfig(max_retries=2, retry_backoff_s=0.005)
    _, tracer, _ = run_tempd(reader, duration_s=5.0, config=config)
    assert tracer.n_samples == 0
    assert tracer.n_failed_sweeps > 0
    assert tracer.n_retries == 2 * tracer.n_failed_sweeps


def test_backoff_schedule_capped():
    config = TempdConfig(max_retries=4, retry_backoff_s=0.1)
    assert config.backoff_s(0) == pytest.approx(0.1)
    assert config.backoff_s(1) == pytest.approx(0.2)
    assert config.backoff_s(5) == config.period_s   # capped at the period

    with pytest.raises(ConfigError):
        TempdConfig(max_retries=-1)
    with pytest.raises(ConfigError):
        TempdConfig(retry_backoff_s=-0.1)


def test_kill_mid_sleep_is_clean():
    """SimProcess.kill: stale wakeups after a kill are no-ops."""
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    reader = SimSensorReader(m.node("node1"))
    tracer = NodeTracer("node1", SymbolTable(), tsc_hz=1.8e9,
                        sensor_names=reader.sensor_names())
    tempd = m.spawn(lambda p: tempd_process(p, tracer, reader, TempdConfig()),
                    "node1", 3, name="tempd")
    m.sim.schedule(2.1, tempd.kill)             # mid-sleep, between sweeps

    def workload(proc):
        for _ in range(10):
            yield Compute(0.5, ACTIVITY_BURN)

    w = m.spawn(workload, "node1", 0)
    m.run_to_completion([w])                    # no SimulationError
    assert tempd.state == ST_FINISHED
    assert tempd.killed
    samples_at_kill = tracer.n_samples
    m.sim.run(until=m.sim.now + 2.0)
    assert tracer.n_samples == samples_at_kill  # daemon really is dead


def test_kill_then_relaunch_resumes_sampling():
    """The crash-recovery path: kill tempd, relaunch it, sampling resumes
    on the same tracer with a gap in between."""
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    reader = SimSensorReader(m.node("node1"))
    tracer = NodeTracer("node1", SymbolTable(), tsc_hz=1.8e9,
                        sensor_names=reader.sensor_names())
    tempd = m.spawn(lambda p: tempd_process(p, tracer, reader, TempdConfig()),
                    "node1", 3, name="tempd")
    m.sim.schedule(3.05, tempd.kill)

    def relaunch():
        m.spawn(lambda p: tempd_process(p, tracer, reader, TempdConfig()),
                "node1", 3, name="tempd+respawn")

    m.sim.schedule(5.05, relaunch)

    def workload(proc):
        for _ in range(20):
            yield Compute(0.5, ACTIVITY_BURN)

    w = m.spawn(workload, "node1", 0)
    m.run_to_completion([w])
    tracer.stop()
    m.sim.run(until=m.sim.now + 1.0)

    times = sorted(tracer.trace.seconds(
        tracer.trace.temp_columns()["tsc"]).tolist())
    assert times, "no samples at all"
    gaps = [b - a for a, b in zip(times, times[1:])]
    # The ~2 s dead window shows up as the largest inter-sample gap.
    assert max(gaps) > 1.5
    assert any(t > 5.1 for t in times), "no samples after relaunch"
