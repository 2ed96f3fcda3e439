"""Wiring a :class:`~repro.faults.plan.FaultPlan` into a profiled run.

A :class:`FaultInjector` is what a
:class:`~repro.core.session.TempestSession` calls at attach time (the
session stays ignorant of fault internals — it only duck-types the three
hooks):

* :meth:`wrap_reader` decorates the node's sensor reader,
* :meth:`wrap_tracer` swaps the tracer's trace for a lossy one,
* :meth:`watch_tempd` schedules tempd kill/relaunch events on the
  simulator, exercising the crash-recovery path mid-run.

:func:`parse_inject_spec` turns the CLI's ``--inject`` string
(``"sweep_failure_rate=0.2,record_loss_rate=0.05,crashes=1"``) into a
:class:`~repro.faults.plan.FaultConfig`.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Iterable

from repro.core.sensors import SensorReader
from repro.faults.lossy import LossyNodeTrace
from repro.faults.plan import EV_CRASH, FaultConfig, FaultPlan
from repro.faults.sensorfaults import FaultySensorReader
from repro.util.errors import ConfigError


class FaultInjector:
    """Apply one plan's faults to a session's readers, traces, and daemons."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.readers: dict[str, FaultySensorReader] = {}
        self.traces: dict[str, LossyNodeTrace] = {}
        self.n_tempd_kills = 0
        self.n_tempd_restarts = 0

    @classmethod
    def from_spec(cls, spec: str, seed: int,
                  node_names: Iterable[str]) -> "FaultInjector":
        """Build an injector from a CLI ``--inject`` spec string."""
        return cls(FaultPlan(parse_inject_spec(spec), seed, node_names))

    # ------------------------------------------------------------------
    # Session hooks

    def wrap_reader(self, node_name: str,
                    reader: SensorReader) -> SensorReader:
        """Decorate a node's sensor reader (untouched if node unaffected)."""
        if node_name not in self.plan.affected:
            return reader
        wrapped = FaultySensorReader(reader, self.plan, node_name)
        self.readers[node_name] = wrapped
        return wrapped

    def wrap_tracer(self, tracer) -> None:
        """Swap a fresh tracer's trace for a lossy one, in place.

        Must run before any record is appended; raises otherwise because
        already-recorded history cannot be retroactively faulted.
        """
        node_name = tracer.node_name
        if node_name not in self.plan.affected:
            return
        old = tracer.trace
        if len(old):
            raise ConfigError(
                f"cannot inject into {node_name}: trace already has "
                f"{len(old)} records"
            )
        lossy = LossyNodeTrace(old.node_name, old.tsc_hz, old.sensor_names,
                               self.plan)
        tracer.trace = lossy
        self.traces[node_name] = lossy

    def watch_tempd(self, session, node_name: str, tracer, reader) -> None:
        """Schedule this node's tempd crash/restart events on the simulator."""
        crash_events = self.plan.events_for(node_name, EV_CRASH)
        if not crash_events:
            return
        machine = session.machine
        from repro.core.tempd import tempd_process
        from repro.simmachine.process import ST_FINISHED

        def kill_at(ev):
            def kill():
                proc = session._tempd_procs.get(node_name)
                if proc is None or proc.state == ST_FINISHED:
                    return
                core_id = proc.core_id
                proc.kill()
                self.n_tempd_kills += 1

                def relaunch():
                    if tracer.stopped:
                        return
                    fresh = machine.spawn(
                        lambda p: tempd_process(p, tracer, reader,
                                                session.tempd_config),
                        node_name, core_id,
                        name=f"tempd@{node_name}+respawn",
                    )
                    session._tempd_procs[node_name] = fresh
                    self.n_tempd_restarts += 1

                machine.sim.schedule(ev.duration_s, relaunch)

            machine.sim.schedule(max(0.0, ev.t_s - machine.sim.now), kill)

        for ev in crash_events:
            kill_at(ev)


# ----------------------------------------------------------------------
# CLI spec parsing

_INT_FIELDS = frozenset(
    f.name for f in fields(FaultConfig) if f.type == "int"
)


def parse_inject_spec(spec: str) -> FaultConfig:
    """Parse ``"key=value,key=value"`` into a :class:`FaultConfig`.

    Keys are FaultConfig field names; ``nodes`` takes a ``+``-separated
    list (``nodes=node1+node3``).  Unknown keys raise :class:`ConfigError`.
    """
    known = {f.name for f in fields(FaultConfig)}
    kwargs: dict = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"--inject entry {part!r} is not key=value")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in known:
            raise ConfigError(
                f"unknown --inject key {key!r}; have {sorted(known)}"
            )
        if key == "nodes":
            kwargs[key] = tuple(n for n in raw.split("+") if n)
        else:
            try:
                kwargs[key] = int(raw) if key in _INT_FIELDS else float(raw)
            except ValueError:
                kind = "an integer" if key in _INT_FIELDS else "a number"
                raise ConfigError(
                    f"--inject value for {key!r} must be {kind}, got {raw!r}"
                )
    return FaultConfig(**kwargs)
