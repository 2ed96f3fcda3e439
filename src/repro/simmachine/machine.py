"""The cluster: nodes + event loop + core scheduling.

:class:`Machine` owns the simulator, builds :class:`~repro.simmachine.node.SimNode`
instances from a :class:`ClusterConfig`, spawns simulated processes, and
implements the one piece of OS behaviour the substrate needs: FIFO
time-sharing of a core between the processes bound to it (the profiled
application and ``tempd`` can share a core exactly as they do on a real
node, where tempd's <1% CPU claim is then measurable rather than assumed).
"""

from __future__ import annotations

import inspect
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

import numpy as np

from repro.simmachine.core_ import SimCore, TscSpec
from repro.simmachine.events import Simulator
from repro.simmachine.node import NodeConfig, SimNode
from repro.simmachine.power import ACTIVITY_IDLE
from repro.simmachine.process import SimProcess, ST_FINISHED, ST_BLOCKED
from repro.util.errors import ConfigError, DeadlockError, SimulationError
from repro.util.rng import RngStreams


@dataclass
class ClusterConfig:
    """Describes a whole cluster.

    ``node_configs`` may be given explicitly; otherwise ``n_nodes`` copies of
    ``base_node`` are created with per-node variation drawn from the seeded
    RNG (speed grade, paste quality, airflow, inlet offset, TSC skew/drift),
    reproducing the heterogeneous thermals the paper observed across
    identical cluster nodes.
    """

    n_nodes: int = 4
    base_node: NodeConfig = field(default_factory=NodeConfig)
    node_configs: Optional[list[NodeConfig]] = None
    seed: int = 1234
    vary_nodes: bool = True
    # Spread magnitudes for per-node variation.
    speed_grade_sd: float = 0.04
    paste_quality_sd: float = 0.10
    airflow_quality_sd: float = 0.08
    inlet_gradient_c: float = 1.6   # inlet temp rise along the rack
    tsc_skew_sd_cycles: float = 2.0e5
    tsc_drift_sd_ppm: float = 3.0


class Machine:
    """A simulated cluster of nodes with a shared event loop."""

    def __init__(self, config: ClusterConfig = ClusterConfig(), *,
                 sim: Optional[Simulator] = None):
        self.config = config
        # An injected simulator lets the determinism detector swap in an
        # instrumented or tie-scrambling event queue.
        self.sim = sim if sim is not None else Simulator()
        self.rngs = RngStreams(config.seed)
        self.nodes: dict[str, SimNode] = {}
        self._procs: list[SimProcess] = []
        self._next_pid = 1
        for nc in self._node_configs():
            rng = self.rngs.get(f"sensor-noise/{nc.name}")
            self.nodes[nc.name] = SimNode(nc, rng=rng)
        #: each core's FIFO of (proc, duration, activity) waiting for it
        self._core_queues: dict[SimCore, deque] = {
            core: deque() for node in self.nodes.values() for core in node.cores
        }

    # ------------------------------------------------------------------
    # Construction

    def _node_configs(self) -> list[NodeConfig]:
        cfg = self.config
        if cfg.node_configs is not None:
            return cfg.node_configs
        out = []
        rng = self.rngs.get("node-variation")
        base = cfg.base_node
        for i in range(cfg.n_nodes):
            if cfg.vary_nodes:
                speed = float(1.0 + rng.normal(0.0, cfg.speed_grade_sd))
                paste = float(np.clip(1.0 + rng.normal(0.0, cfg.paste_quality_sd),
                                      0.6, 1.4))
                air = float(np.clip(1.0 + rng.normal(0.0, cfg.airflow_quality_sd),
                                    0.7, 1.3))
                inlet = float(cfg.inlet_gradient_c * i / max(1, cfg.n_nodes - 1)
                              + rng.normal(0.0, 0.3))
            else:
                speed, paste, air, inlet = 1.0, 1.0, 1.0, 0.0
            n_cores = base.n_sockets * base.cores_per_socket
            tscs = tuple(
                TscSpec(
                    skew_cycles=int(rng.normal(0.0, cfg.tsc_skew_sd_cycles)),
                    drift_ppm=float(rng.normal(0.0, cfg.tsc_drift_sd_ppm)),
                )
                for _ in range(n_cores)
            )
            out.append(
                NodeConfig(
                    name=f"node{i+1}",
                    n_sockets=base.n_sockets,
                    cores_per_socket=base.cores_per_socket,
                    thermal=base.thermal,
                    power=base.power,
                    opps=base.opps,
                    sensor_profile=base.sensor_profile,
                    ambient_c=base.ambient_c,
                    fan_rpm=base.fan_rpm,
                    speed_grade=speed,
                    paste_quality=paste,
                    airflow_quality=air,
                    inlet_offset_c=inlet,
                    tsc_specs=tscs,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Node / process access

    def node(self, name: str) -> SimNode:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigError(f"unknown node {name!r}; have {list(self.nodes)}")

    def node_names(self) -> list[str]:
        """Names of all nodes, in construction order."""
        return list(self.nodes)

    @property
    def processes(self) -> list[SimProcess]:
        """All processes ever spawned (including finished ones)."""
        return list(self._procs)

    def spawn(
        self,
        target,
        node: str,
        core_id: int,
        *args: Any,
        name: Optional[str] = None,
    ) -> SimProcess:
        """Spawn a simulated process on ``node``/``core_id``.

        ``target`` is either a generator, or a generator function that is
        called with the new :class:`SimProcess` as its first argument
        followed by ``*args`` (so workloads can read timestamps, fork, and
        carry a trace context).
        """
        self.node(node).core(core_id)  # validate binding early
        pid = self._next_pid
        self._next_pid += 1
        pname = name or getattr(target, "__name__", f"proc{pid}")
        proc = SimProcess(self, gen=None, node_name=node, core_id=core_id,
                          pid=pid, name=pname)
        if inspect.isgenerator(target):
            gen = target
        elif callable(target):
            gen = target(proc, *args)
            if not inspect.isgenerator(gen):
                raise ConfigError(
                    f"spawn target {pname!r} must produce a generator"
                )
        else:
            raise ConfigError(f"cannot spawn {target!r}")
        proc._gen = gen
        self._procs.append(proc)
        self.sim.schedule(0.0, lambda: proc.resume(None))
        return proc

    # ------------------------------------------------------------------
    # Core scheduling (FIFO time-sharing)

    def _core_submit(
        self, core: SimCore, proc: SimProcess, duration: float, activity: float
    ) -> None:
        """Submit a compute segment; runs now if the core is free, else queues."""
        if core.running is None:
            self._core_begin(core, proc, duration, activity)
        else:
            self._core_queues[core].append((proc, duration, activity))

    def _core_begin(
        self, core: SimCore, proc: SimProcess, duration: float, activity: float
    ) -> None:
        core.running = proc
        node = self.nodes[core.node_name]
        node.set_core_activity(core.core_id, activity, self.sim.now)
        self.sim.schedule(duration, lambda: self._core_complete(core, proc))

    def _core_complete(self, core: SimCore, proc: SimProcess) -> None:
        core.running = None
        queue = self._core_queues[core]
        if queue:
            nproc, dur, act = queue.popleft()
            self._core_begin(core, nproc, dur, act)
        else:
            self.nodes[core.node_name].set_core_activity(
                core.core_id, ACTIVITY_IDLE, self.sim.now)
        proc.resume(None)

    # ------------------------------------------------------------------
    # Running

    def _on_process_finished(self, proc: SimProcess) -> None:
        # Hook point; trace sessions subscribe via add_finish_waiter instead.
        pass

    def live_processes(self) -> list[SimProcess]:
        """Processes that have not finished yet."""
        return [p for p in self._procs if p.state != ST_FINISHED]

    def run(self, until: Optional[float] = None) -> None:
        """Run the event loop; raises :class:`DeadlockError` if processes
        remain blocked with an empty event queue."""
        self.sim.run(until=until)
        if until is None:
            stuck = [p for p in self.live_processes()]
            if stuck:
                raise DeadlockError(
                    "simulation drained with live processes: "
                    + ", ".join(repr(p) for p in stuck)
                )

    def run_to_completion(self, procs: list[SimProcess],
                          max_time: float = 1e7) -> None:
        """Run until every process in *procs* has finished."""
        guard = 0
        # Unfinished processes; a finished one is dropped once it reaches
        # the end, so the list empties exactly when every process is done.
        unfinished = list(procs)
        while True:
            while unfinished and unfinished[-1].state == ST_FINISHED:
                unfinished.pop()
            if not unfinished:
                return
            if not self.sim.step():
                stuck = [p for p in procs if p.state != ST_FINISHED]
                raise DeadlockError(
                    "no events left but processes unfinished: "
                    + ", ".join(repr(p) for p in stuck)
                )
            if self.sim.now > max_time:
                raise SimulationError(f"exceeded max_time={max_time}")
            guard += 1
            if guard > 100_000_000:
                raise SimulationError("event-count guard tripped")

    # ------------------------------------------------------------------
    # Periodic services (fan controllers, governors, OS noise)

    def every(self, period: float, fn: Callable[[], None],
              *, jitter_stream: Optional[str] = None) -> None:
        """Invoke ``fn`` every ``period`` simulated seconds, forever.

        Service ticks do not keep the loop alive on their own: they are only
        delivered while other events exist (``run(until=...)`` bounds them).
        """
        if period <= 0:
            raise ConfigError(f"period must be positive, got {period}")
        rng = self.rngs.get(jitter_stream) if jitter_stream else None

        def tick():
            fn()
            if not self.live_processes():
                return  # stop once all workloads (and daemons) have exited
            delay = period
            if rng is not None:
                delay = max(period * 0.5, period + float(rng.normal(0, period * 0.02)))
            self.sim.schedule(delay, tick)

        self.sim.schedule(period, tick)
