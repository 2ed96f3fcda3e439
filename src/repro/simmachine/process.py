"""Generator-based simulated processes and their directives.

Workloads are ordinary Python generator functions that *yield directives*
describing what the process does next: occupy a core computing at some
activity level, sleep on a timer, fork a sibling, and so on.  The MPI layer
(:mod:`repro.mpisim`) plugs in by defining additional
:class:`Directive` subclasses — the machine runtime dispatches on the
directive, so the substrate needs no knowledge of MPI.

Two design points matter for the reproduction:

* **Compute time scales with DVFS.** ``Compute.seconds`` is expressed at the
  core's nominal frequency; the runtime stretches it by ``f_nom / f_now``,
  so thermal-management experiments that down-clock a core automatically pay
  the slowdown the paper's question 4 asks about.

* **Profiler overhead is charged through processes, not hardcoded.**
  Instrumentation layers call :meth:`SimProcess.charge_overhead`; the charge
  is folded into the process's next compute segment.  Total run-time
  inflation is therefore an emergent product of (hook cost x event count),
  which is exactly the quantity §3.4 of the paper measures.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Generator, Optional

from repro.simmachine.power import ACTIVITY_IDLE
from repro.util.errors import ConfigError, SimulationError

# States of a simulated process.
ST_NEW = "new"
ST_READY = "ready"        # resume scheduled
ST_RUNNING = "running"    # inside generator body (transient)
ST_COMPUTING = "computing"  # holds (or queues for) a core
ST_BLOCKED = "blocked"    # waiting on a directive (recv, join, ...)
ST_SLEEPING = "sleeping"  # timer wait
ST_FINISHED = "finished"


class Directive(ABC):
    """Something a simulated process asks the runtime to do."""

    @abstractmethod
    def start(self, machine, proc: "SimProcess") -> None:
        """Begin servicing this directive for *proc*.

        Implementations must eventually call ``proc.resume(value)`` exactly
        once (directly or via a scheduled event)."""


class Compute(Directive):
    """Occupy the bound core for ``seconds`` (at nominal frequency) running
    at the given architectural ``activity`` factor."""

    __slots__ = ("seconds", "activity")

    def __init__(self, seconds: float, activity: float = 1.0):
        if seconds < 0:
            raise ConfigError(f"compute time must be >= 0, got {seconds}")
        if not 0.0 <= activity <= 1.0:
            raise ConfigError(f"activity must be in [0,1], got {activity}")
        self.seconds = float(seconds)
        self.activity = float(activity)

    def start(self, machine, proc: "SimProcess") -> None:
        core = proc.node.cores[proc.core_id]
        scale = core.nominal_freq_hz / core.opps[core.opp_index].freq_hz
        duration = self.seconds * scale + proc.take_overhead()
        proc.state = ST_COMPUTING
        machine._core_submit(core, proc, duration, self.activity)

    def __repr__(self) -> str:
        return f"Compute({self.seconds:.6g}s @ {self.activity})"


class Sleep(Directive):
    """Release the core and wake after ``seconds`` of simulated wall time."""

    __slots__ = ("seconds",)

    def __init__(self, seconds: float):
        if seconds < 0:
            raise ConfigError(f"sleep time must be >= 0, got {seconds}")
        self.seconds = float(seconds)

    def start(self, machine, proc: "SimProcess") -> None:
        proc.state = ST_SLEEPING
        machine.sim.schedule(self.seconds, lambda: proc.resume(None))

    def __repr__(self) -> str:
        return f"Sleep({self.seconds:.6g}s)"


class Yield(Directive):
    """Reschedule immediately (cooperative yield at the same sim time)."""

    def start(self, machine, proc: "SimProcess") -> None:
        proc.state = ST_READY
        machine.sim.schedule(0.0, lambda: proc.resume(None))


class Fork(Directive):
    """Spawn a sibling process; the fork resumes with the new process."""

    __slots__ = ("target", "node", "core_id", "name")

    def __init__(self, target, node: str, core_id: int, name: str = ""):
        self.target = target
        self.node = node
        self.core_id = core_id
        self.name = name

    def start(self, machine, proc: "SimProcess") -> None:
        child = machine.spawn(
            self.target, self.node, self.core_id, name=self.name or None
        )
        proc.state = ST_READY
        machine.sim.schedule(0.0, lambda: proc.resume(child))


class Join(Directive):
    """Block until another process finishes; resumes with its return value."""

    __slots__ = ("other",)

    def __init__(self, other: "SimProcess"):
        self.other = other

    def start(self, machine, proc: "SimProcess") -> None:
        if self.other.state == ST_FINISHED:
            proc.state = ST_READY
            machine.sim.schedule(0.0, lambda: proc.resume(self.other.result))
        else:
            proc.state = ST_BLOCKED
            self.other.add_finish_waiter(
                lambda result: proc.resume(result)
            )


class Migrate(Directive):
    """Rebind the process to another core (same node), modelling an OS
    scheduler moving an unbound process — the §3.3 TSC hazard."""

    __slots__ = ("core_id",)

    def __init__(self, core_id: int):
        self.core_id = core_id

    def start(self, machine, proc: "SimProcess") -> None:
        proc.rebind(self.core_id)
        proc.state = ST_READY
        machine.sim.schedule(0.0, lambda: proc.resume(None))


class SetOpp(Directive):
    """Change the bound core's DVFS operating point (thermal management)."""

    __slots__ = ("opp_index",)

    def __init__(self, opp_index: int):
        self.opp_index = opp_index

    def start(self, machine, proc: "SimProcess") -> None:
        proc.node.set_core_opp(
            proc.core_id, self.opp_index, machine.sim.now
        )
        proc.state = ST_READY
        machine.sim.schedule(0.0, lambda: proc.resume(None))


class SimProcess:
    """A running simulated process bound to one (node, core)."""

    def __init__(
        self,
        machine,
        gen: Generator[Directive, Any, Any],
        node_name: str,
        core_id: int,
        pid: int,
        name: str,
    ):
        self.machine = machine
        self._gen = gen
        self.node_name = node_name
        #: the :class:`SimNode` this process runs on (a process never
        #: changes node; :meth:`rebind` moves it between cores)
        self.node = machine.node(node_name)
        self.core_id = core_id
        self.pid = pid
        self.name = name
        self.state = ST_NEW
        self.result: Any = None
        self._overhead_pending = 0.0
        self.overhead_charged = 0.0  # lifetime total, for overhead accounting
        #: core to migrate to at the next directive boundary (OS-style
        #: deferred migration requested by steering policies)
        self.pending_rebind: Optional[int] = None
        self._finish_waiters: list[Callable[[Any], None]] = []
        #: True once the process was forcibly terminated via :meth:`kill`
        self.killed = False
        #: observers invoked as fn(proc, event) on finish ("exit") — used by
        #: the Tempest session to stop tempd and flush traces.
        self.trace_context: Any = None  # set by instrumentation layers

    # -- identity ------------------------------------------------------
    @property
    def core(self):
        """The :class:`SimCore` this process is currently bound to."""
        return self.node.cores[self.core_id]

    def rebind(self, core_id: int) -> None:
        """Bind to a different core on the same node (between directives)."""
        if self.state == ST_COMPUTING:
            raise SimulationError(f"{self} cannot migrate mid-compute")
        self.node.core(core_id)  # validates
        self.core_id = core_id

    def request_rebind(self, core_id: int) -> None:
        """Ask for a migration at the next directive boundary (the way an
        OS scheduler moves a running process)."""
        self.node.core(core_id)  # validate now, apply later
        self.pending_rebind = core_id

    # -- timestamps ----------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self.machine.sim.now

    def read_tsc(self) -> int:
        """Read the bound core's TSC — what an rdtsc in this process sees."""
        return self.node.cores[self.core_id].tsc(self.machine.sim.now)

    # -- overhead accounting --------------------------------------------
    def charge_overhead(self, seconds: float) -> None:
        """Accumulate profiling overhead to fold into the next compute."""
        if seconds < 0:
            raise ConfigError(f"overhead must be >= 0, got {seconds}")
        self._overhead_pending += seconds
        self.overhead_charged += seconds

    def take_overhead(self) -> float:
        """Drain pending overhead (called by :class:`Compute`)."""
        v = self._overhead_pending
        self._overhead_pending = 0.0
        return v

    # -- lifecycle -------------------------------------------------------
    def kill(self) -> None:
        """Terminate the process immediately (SIGKILL at simulated speed).

        The generator is closed, the process finishes with ``result=None``,
        and any already-scheduled wakeups (a pending sleep timer, a compute
        completion) become no-ops instead of resuming a corpse.  Fault
        injection uses this to take tempd down mid-run; anything the
        process was mid-way through — a half-written sweep, an unflushed
        buffer — is simply lost, exactly like the real crash.
        """
        if self.state == ST_FINISHED:
            return
        self.killed = True
        self._gen.close()
        self._finish(None)

    def resume(self, value: Any = None) -> None:
        """Drive the generator one step with *value* as the yield result."""
        if self.state == ST_FINISHED:
            if self.killed:
                return  # a stale wakeup landing after a kill
            raise SimulationError(f"{self} resumed after finishing")
        self.state = ST_RUNNING
        if self.pending_rebind is not None:
            # A resume is a directive boundary (the previous directive has
            # fully completed and released its core): apply the deferred
            # migration before the generator observes anything.
            core_id, self.pending_rebind = self.pending_rebind, None
            self.rebind(core_id)
        try:
            directive = self._gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if not isinstance(directive, Directive):
            raise SimulationError(
                f"{self} yielded {directive!r}, which is not a Directive"
            )
        directive.start(self.machine, self)

    def _finish(self, result: Any) -> None:
        self.state = ST_FINISHED
        self.result = result
        waiters, self._finish_waiters = self._finish_waiters, []
        for w in waiters:
            w(result)
        self.machine._on_process_finished(self)

    def add_finish_waiter(self, fn: Callable[[Any], None]) -> None:
        """Register a callback fired with the result when this proc ends."""
        if self.state == ST_FINISHED:
            fn(self.result)
        else:
            self._finish_waiters.append(fn)

    def __repr__(self) -> str:
        return (
            f"SimProcess(pid={self.pid} {self.name!r} on "
            f"{self.node_name}/core{self.core_id} state={self.state})"
        )
