"""tempd: the lightweight temperature-measuring daemon (§3.2).

One tempd runs per node as an ordinary simulated process: it wakes four
times per second, reads every hwmon sensor, appends the samples to the
node's trace, and sleeps.  Its CPU cost is charged like any other process's
(sysfs read cost per sweep), so the paper's claims that tempd "used less
than 1% of CPU time" and "had no impact on the system temperature" are
*measurable outcomes* here — see ``benchmarks/test_validation.py``.

The daemon exits when its tracer's ``stopped`` flag is set, mirroring the
shared-library destructor that "sends a signal to tempd for termination".

Samples recorded through the tracer land in the node trace as TEMP records
and are therefore visible to the streaming engine the moment they are
written: :meth:`repro.core.session.TempestSession.live_profile` tail-reads
them into per-node :class:`~repro.core.streamprof.ProfileAccumulator`\\ s
mid-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.instrument import NodeTracer
from repro.core.sensors import SensorReader
from repro.simmachine.process import Compute, Sleep, SimProcess
from repro.util.errors import ConfigError, SensorError

#: the paper's sampling rate: four samples per second
DEFAULT_SAMPLING_HZ = 4.0

#: architectural activity of the sampling sweep (sysfs reads are mostly
#: kernel time and I/O waits, not dense arithmetic)
SAMPLE_ACTIVITY = 0.35


@dataclass(frozen=True)
class TempdConfig:
    """tempd runtime parameters.

    ``max_retries`` > 0 turns on bounded retry-with-backoff: a failed
    sensor read is re-attempted up to that many times (each retry pays a
    fresh sweep cost after an exponentially growing backoff, capped at the
    sampling period) before the sweep is declared failed.  The default of 0
    preserves the paper's skip-and-count behaviour.
    """

    sampling_hz: float = DEFAULT_SAMPLING_HZ
    activity: float = SAMPLE_ACTIVITY
    max_retries: int = 0
    retry_backoff_s: float = 0.02

    def __post_init__(self):
        if self.sampling_hz <= 0:
            raise ConfigError(f"sampling_hz must be positive: {self}")
        if self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0: {self}")
        if self.retry_backoff_s < 0:
            raise ConfigError(f"retry_backoff_s must be >= 0: {self}")

    @property
    def period_s(self) -> float:
        return 1.0 / self.sampling_hz

    def backoff_s(self, attempt: int) -> float:
        """Backoff before retry *attempt* (0-based), capped at one period."""
        return min(self.retry_backoff_s * (2.0 ** attempt), self.period_s)


def tempd_process(
    proc: SimProcess,
    tracer: NodeTracer,
    reader: SensorReader,
    config: TempdConfig = TempdConfig(),
):
    """Generator body of the tempd daemon.

    The first sweep happens immediately at launch (tempd "is launched
    before the main function of the profiled application is invoked"), so
    every function interval — however early — has a sample preceding it.

    §4.1 notes that "thermal sensor technology is emergent and at times
    unstable": a sweep that fails with :class:`SensorError` is retried
    (``config.max_retries`` times, with backoff) and then skipped and
    counted rather than killing the daemon — the profile simply has a gap.
    ``tracer.n_failed_sweeps`` is incremented *as failures happen*, so a
    mid-run observer (a watchdog, a chaos assertion) sees a live count
    instead of a stale zero until daemon exit.
    """
    n_sensors = len(reader.sensor_names())
    cost = tracer.sample_cost(n_sensors)
    while not tracer.stopped:
        yield Compute(cost, config.activity)
        samples = None
        for attempt in range(config.max_retries + 1):
            try:
                samples = reader.read_all(proc.now)
                break
            except SensorError:
                if attempt >= config.max_retries:
                    break
                tracer.n_retries += 1
                yield Sleep(config.backoff_s(attempt))
                # A retry re-reads the sensors, so it pays a fresh sweep.
                yield Compute(cost, config.activity)
        if samples is None:
            tracer.n_failed_sweeps += 1
        else:
            tracer.on_samples(proc, samples)
        yield Sleep(max(0.0, config.period_s - cost))
    return tracer.n_samples
