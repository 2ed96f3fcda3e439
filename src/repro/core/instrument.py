"""Function entry/exit instrumentation for simulated workloads.

``@instrument`` is the reproduction's ``-finstrument-functions``: wrap a
generator-style workload function and, whenever a traced process executes
it, the wrapper emits ENTER/EXIT records timestamped with the process's
bound-core TSC and charges the per-hook cost to the process.

Costs are charged per event, never hardcoded as a percentage: a workload
that calls many short functions pays proportionally more, which is both the
paper's §3.4 measurement methodology and its §3.3 limitation.  Default hook
costs are calibrated from the instructions the real hooks execute (rdtsc
~30 ns on Opteron-era parts, a trace-buffer append, and for gprof's mcount a
caller/callee arc hash update — see ``benchmarks/test_overhead.py``).

Uninstrumented execution is the natural default: a function decorated with
``@instrument`` runs with zero added cost when the process carries no
tracer, so the same workload source serves as its own baseline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from repro.core.commrec import pack_comm_addr
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
)
from repro.simmachine.process import SimProcess
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class HookCosts:
    """Per-event instrumentation costs (seconds of charged CPU time)."""

    enter_s: float = 90e-9      # rdtsc + buffer append
    exit_s: float = 90e-9
    sample_base_s: float = 0.9e-3       # tempd: sysfs open/read/parse
    sample_per_sensor_s: float = 0.12e-3

    def __post_init__(self):
        for f in (self.enter_s, self.exit_s, self.sample_base_s,
                  self.sample_per_sensor_s):
            if f < 0:
                raise ConfigError(f"hook costs must be >= 0: {self}")


class NodeTracer:
    """Per-node trace collector shared by all traced processes on the node.

    Holds the node's :class:`~repro.core.trace.NodeTrace`, the session-wide
    symbol table, and the hook-cost schedule.  The ``stopped`` flag is how
    the session's "destructor" signals tempd to terminate (§3.2).
    """

    def __init__(
        self,
        node_name: str,
        symtab: SymbolTable,
        tsc_hz: float,
        sensor_names: list[str],
        costs: HookCosts = HookCosts(),
        spool=None,
    ):
        self.node_name = node_name
        self.symtab = symtab
        self.costs = costs
        if spool is not None:
            from repro.core.spool import SpoolingNodeTrace
            self.trace = SpoolingNodeTrace(node_name, tsc_hz, sensor_names,
                                           spool)
        else:
            self.trace = NodeTrace(node_name, tsc_hz, sensor_names)
        self.stopped = False
        #: events counted for overhead accounting / diagnostics
        self.n_func_events = 0
        self.n_samples = 0
        #: sweeps tempd skipped because a sensor read failed (§4.1:
        #: "thermal sensor technology is emergent and at times unstable");
        #: incremented live as failures happen, not at daemon exit
        self.n_failed_sweeps = 0
        #: sensor reads re-attempted under tempd's retry-with-backoff
        self.n_retries = 0
        #: communication events recorded (MSG_SEND/MSG_RECV/COLL_*)
        self.n_comm_events = 0

    # -- hooks -----------------------------------------------------------
    # The hooks emit straight into the trace's columnar sink
    # (``append_event``) — six scalars per event, no per-event object.

    def on_enter(self, proc: SimProcess, name: str) -> None:
        """Function-entry hook: record and charge."""
        addr = self.symtab.address_of(name)
        self.trace.append_event(REC_ENTER, addr, proc.read_tsc(),
                                proc.core_id, proc.pid)
        proc.charge_overhead(self.costs.enter_s)
        self.n_func_events += 1

    def on_exit(self, proc: SimProcess, name: str) -> None:
        """Function-exit hook: record and charge."""
        addr = self.symtab.address_of(name)
        self.trace.append_event(REC_EXIT, addr, proc.read_tsc(),
                                proc.core_id, proc.pid)
        proc.charge_overhead(self.costs.exit_s)
        self.n_func_events += 1

    def on_samples(self, proc: SimProcess,
                   samples: list[tuple[int, float]]) -> None:
        """tempd hook: record one sweep of (sensor_index, degC) samples."""
        tsc = proc.read_tsc()
        for idx, value in samples:
            self.trace.append_event(REC_TEMP, idx, tsc, proc.core_id,
                                    proc.pid, float(value))
        self.n_samples += len(samples)

    def on_comm(self, proc: SimProcess, kind: int, *, rank: int, peer: int,
                tag: int, flags: int, clock: int, value: float) -> None:
        """Communication hook: record a MSG_SEND/MSG_RECV/COLL_* event.

        The rank's Lamport clock component rides in the ``core`` field and
        the coordinates pack into ``addr`` (see :mod:`repro.core.commrec`).
        No overhead is charged: the simulated MPI library's bookkeeping is
        already part of the communication cost model, and charging here
        would shift timings of every traced-vs-untraced comparison.
        """
        addr = pack_comm_addr(rank, peer, tag, flags)
        self.trace.append_event(kind, addr, proc.read_tsc(), clock,
                                proc.pid, value)
        self.n_comm_events += 1

    def sample_cost(self, n_sensors: int) -> float:
        """CPU cost of one tempd sampling sweep."""
        return self.costs.sample_base_s + n_sensors * self.costs.sample_per_sensor_s

    def stop(self) -> None:
        """Signal daemons (tempd) to exit at their next wakeup."""
        self.stopped = True


def _proc_of(ctx) -> SimProcess:
    """Accept either a SimProcess or anything carrying ``.proc`` (MpiContext)."""
    return ctx if isinstance(ctx, SimProcess) else ctx.proc


def tracer_of(ctx) -> Optional[NodeTracer]:
    """The tracer attached to a context's process, or None when untraced."""
    return _proc_of(ctx).trace_context


def instrument(fn=None, *, name: Optional[str] = None):
    """Decorator: emit ENTER/EXIT records around a generator workload function.

    The decorated function must take a context (a
    :class:`~repro.simmachine.process.SimProcess` or
    :class:`~repro.mpisim.runtime.MpiContext`) as its first argument.  The
    function's symbol defaults to ``fn.__name__``; pass ``name=`` to mimic
    Fortran-style trailing-underscore symbols (``adi_``) or C++ mangling.

    Exit records are emitted even when the body raises, matching the
    semantics of gcc's exit hook for normal unwinding.
    """

    def deco(func):
        symbol = name or func.__name__

        @functools.wraps(func)
        def wrapper(ctx, *args, **kwargs):
            tracer = tracer_of(ctx)
            if tracer is None or tracer.stopped:
                result = yield from func(ctx, *args, **kwargs)
                return result
            proc = _proc_of(ctx)
            tracer.on_enter(proc, symbol)
            try:
                result = yield from func(ctx, *args, **kwargs)
            finally:
                tracer.on_exit(proc, symbol)
            return result

        wrapper._tempest_symbol = symbol
        wrapper._tempest_wrapped = func
        return wrapper

    if fn is not None:
        return deco(fn)
    return deco


def instrument_module(module, *, exclude: tuple[str, ...] = (),
                      include_private: bool = False) -> list[str]:
    """Instrument every generator function defined in *module*, in place.

    The transparent path of the paper's design: "Users must simply compile
    with instrumentation enabled" — here, call ``instrument_module`` on
    your workload module and every generator function it defines gets
    entry/exit hooks, without touching its source.

    Only functions *defined in* the module are wrapped (imports are left
    alone), already-instrumented functions are skipped, and names in
    ``exclude`` (or underscore-private names unless ``include_private``)
    are passed over.  Returns the list of symbols instrumented.
    """
    import inspect

    wrapped: list[str] = []
    for name, fn in list(vars(module).items()):
        if name in exclude:
            continue
        if name.startswith("_") and not include_private:
            continue
        if not inspect.isgeneratorfunction(fn):
            continue
        if getattr(fn, "__module__", None) != module.__name__:
            continue
        if hasattr(fn, "_tempest_symbol"):
            continue
        setattr(module, name, instrument(fn))
        wrapped.append(name)
    return wrapped
