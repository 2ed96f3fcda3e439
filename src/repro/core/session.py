"""TempestSession: orchestrate a profiled run on the simulated cluster.

Usage mirrors the paper's workflow (compile with instrumentation, link the
library, run, invoke the parser)::

    machine = Machine(ClusterConfig(n_nodes=4))
    session = TempestSession(machine)
    results = session.run_mpi(ft_benchmark, n_ranks=4, args=("C",))
    profile = session.profile()
    print(render_stdout_report(profile))

The session attaches one :class:`~repro.core.instrument.NodeTracer` and one
tempd daemon per node in use, injects the tracer into each workload process
(the "link against libtempest" step), stops the daemons when the workload
exits (the library destructor), and hands the aggregated trace to the
parser.
"""

from __future__ import annotations

import logging
from typing import Any, Callable, Optional

from repro.core.instrument import HookCosts, NodeTracer
from repro.core.parser import TempestParser
from repro.core.profilemodel import RunProfile
from repro.core.sensors import SimSensorReader
from repro.core.symtab import SymbolTable
from repro.core.tempd import TempdConfig, tempd_process
from repro.core.trace import TraceBundle
from repro.mpisim.network import Network
from repro.mpisim.runtime import mpi_spawn
from repro.simmachine.machine import Machine
from repro.simmachine.process import SimProcess, ST_FINISHED
from repro.util.errors import ConfigError, TraceError

_log = logging.getLogger(__name__)


class TempestSession:
    """One profiled run: tracers + tempd daemons + trace collection."""

    def __init__(
        self,
        machine: Machine,
        *,
        costs: HookCosts = HookCosts(),
        tempd_config: TempdConfig = TempdConfig(),
        tempd_core: Optional[int] = None,
        enabled: bool = True,
        spool_dir=None,
        injector=None,
        on_progress: Optional[Callable] = None,
        progress_interval_s: float = 1.0,
    ):
        self.machine = machine
        self.costs = costs
        self.tempd_config = tempd_config
        self.tempd_core = tempd_core
        #: ``on_progress(profile, sim_now)`` fires every
        #: ``progress_interval_s`` simulated seconds while a workload runs,
        #: with a live :class:`RunProfile` snapshot (see :meth:`live_profile`)
        self.on_progress = on_progress
        self.progress_interval_s = float(progress_interval_s)
        self._progress_installed = False
        self._live = None                      # lazy StreamingRunProfiler
        self._live_cursors: dict[str, int] = {}
        #: optional :class:`repro.faults.FaultInjector` (duck-typed — the
        #: session only calls ``wrap_reader`` / ``wrap_tracer`` /
        #: ``watch_tempd``) that degrades sensors, traces, and daemons for
        #: chaos experiments
        self.injector = injector
        #: when set, every node's records stream to <spool_dir>/<node>.spool
        #: as they are recorded (constant-write trace collection)
        self.spool_dir = spool_dir
        #: with ``enabled=False`` the session runs workloads untraced —
        #: the baseline side of the §3.4 overhead comparison.
        self.enabled = enabled
        self.symtab = SymbolTable()
        self.tracers: dict[str, NodeTracer] = {}
        self.readers: dict[str, SimSensorReader] = {}
        self._tempd_procs: dict[str, SimProcess] = {}
        self._stopped = False
        self._spools_finalized = False
        #: simulated time at which the last workload finished (before the
        #: tempd drain window) — the number overhead comparisons should use
        self.last_workload_end: float = 0.0

    # ------------------------------------------------------------------
    # Attachment

    def attach(self, node_name: str) -> NodeTracer:
        """Attach tracing + tempd to a node (idempotent)."""
        if node_name in self.tracers:
            return self.tracers[node_name]
        node = self.machine.node(node_name)
        reader = SimSensorReader(node)
        if self.injector is not None:
            reader = self.injector.wrap_reader(node_name, reader)
        spool = None
        if self.spool_dir is not None:
            from pathlib import Path
            from repro.core.spool import TraceSpool
            spool = TraceSpool(Path(self.spool_dir) / f"{node_name}.spool")
        tracer = NodeTracer(
            node_name=node_name,
            symtab=self.symtab,
            tsc_hz=node.cores[0].nominal_freq_hz,
            sensor_names=reader.sensor_names(),
            costs=self.costs,
            spool=spool,
        )
        if self.injector is not None and spool is None:
            # Record loss/corruption happens in the in-memory sink; the
            # spooled path keeps its write-through contract untouched.
            self.injector.wrap_tracer(tracer)
        self.tracers[node_name] = tracer
        self.readers[node_name] = reader
        if self.enabled:
            core = (
                self.tempd_core
                if self.tempd_core is not None
                else len(node.cores) - 1
            )
            proc = self.machine.spawn(
                lambda p: tempd_process(p, tracer, reader, self.tempd_config),
                node_name,
                core,
                name=f"tempd@{node_name}",
            )
            self._tempd_procs[node_name] = proc
            if self.injector is not None:
                self.injector.watch_tempd(self, node_name, tracer, reader)
        return tracer

    def wrap(self, ctx, gen):
        """Process wrapper injected into workloads: attach the tracer before
        the first instruction runs (tempd "is launched before the main
        function of the profiled application is invoked")."""
        proc = ctx if isinstance(ctx, SimProcess) else ctx.proc
        tracer = self.attach(proc.node_name)
        if self.enabled:
            proc.trace_context = tracer
        result = yield from gen
        return result

    # ------------------------------------------------------------------
    # Running workloads

    def run_mpi(
        self,
        program: Callable,
        n_ranks: int,
        *args: Any,
        placement: Optional[list[tuple[str, int]]] = None,
        network: Optional[Network] = None,
        name: str = "mpi",
    ) -> list[Any]:
        """Run an SPMD program under profiling; returns per-rank results."""
        world, procs = mpi_spawn(
            self.machine,
            program,
            n_ranks,
            *args,
            placement=placement,
            network=network,
            name=name,
            wrap=self.wrap,
        )
        self._install_progress()
        try:
            self.machine.run_to_completion(procs)
        except BaseException:
            self._emergency_flush()
            raise
        self.last_workload_end = self.machine.sim.now
        self.stop()
        return [p.result for p in procs]

    def run_serial(
        self,
        program: Callable,
        node: str,
        core: int = 0,
        *args: Any,
        name: Optional[str] = None,
    ) -> Any:
        """Run a single-process workload under profiling; returns its result."""

        def body(proc: SimProcess):
            gen = program(proc, *args)
            result = yield from self.wrap(proc, gen)
            return result

        proc = self.machine.spawn(body, node, core, name=name or "serial")
        self._install_progress()
        try:
            self.machine.run_to_completion([proc])
        except BaseException:
            self._emergency_flush()
            raise
        self.last_workload_end = self.machine.sim.now
        self.stop()
        return proc.result

    def stop(self) -> None:
        """Stop every tempd (the library destructor's SIGTERM) and drain."""
        if self._stopped:
            return
        self._stopped = True
        for tracer in self.tracers.values():
            tracer.stop()
        pending = [p for p in self._tempd_procs.values()
                   if p.state != ST_FINISHED]
        if pending:
            # Let the daemons wake from their current sleep and exit.
            horizon = self.machine.sim.now + 2.0 * self.tempd_config.period_s
            self.machine.sim.run(until=horizon)
            stuck = [p for p in pending if p.state != ST_FINISHED]
            if stuck:
                raise ConfigError(f"tempd daemons failed to stop: {stuck}")
        if self.spool_dir is not None:
            self.finalize_spools()

    def _emergency_flush(self) -> None:
        """Best-effort preservation when a workload dies mid-run.

        Every spool is closed, which drains its buffered columnar chunk
        (up to 4095 records, previously dropped on the floor) before the
        handle closes, and a live header is written so the partial trace
        stays parseable post-mortem.  Errors here must never mask the
        workload's own exception.
        """
        if self.spool_dir is None:
            return
        for tracer in self.tracers.values():
            try:
                tracer.trace.spool.close()
            except (OSError, TraceError) as exc:
                _log.debug("emergency spool flush for %s failed: %s",
                           tracer.node_name, exc)
        try:
            self.finalize_spools()
        except (OSError, TraceError, ConfigError) as exc:
            _log.debug("emergency spool-header write failed: %s", exc)

    def _install_progress(self) -> None:
        """Arm the periodic live-profile callback (idempotent)."""
        if self._progress_installed or self.on_progress is None:
            return
        self._progress_installed = True
        self.machine.every(
            self.progress_interval_s,
            lambda: self.on_progress(self.live_profile(),
                                     self.machine.sim.now),
        )

    def finalize_spools(self) -> None:
        """Close spools and write the header, which makes the spool
        directory a trace directory: :meth:`TraceBundle.load`, ``tempest
        parse``/``check``/``race``/``push`` and the collectors all open
        it through :func:`repro.core.trace.read_trace_header`.

        After :meth:`stop` the header declares each node's record count
        (the directory is closed); after ``_emergency_flush`` it stays live.

        Idempotent: a session may finalize through ``stop()`` *and*
        through ``_emergency_flush`` (or an external collector may have
        drained the same spools already) — the second call must neither
        raise on the closed spools nor rewrite the header out from under
        a reader.
        """
        from repro.core.spool import write_spool_header

        if self._spools_finalized:
            return
        self._spools_finalized = True
        nodes = {}
        for name, tracer in self.tracers.items():
            trace = tracer.trace      # a SpoolingNodeTrace: see attach()
            trace.spool.close()
            nodes[name] = {
                "tsc_hz": trace.tsc_hz,
                "sensor_names": trace.sensor_names,
            }
            if self._stopped:
                nodes[name]["n_records"] = trace.spool.records_written
        write_spool_header(
            self.spool_dir, self.symtab, nodes,
            {"sampling_hz": self.tempd_config.sampling_hz},
        )

    # ------------------------------------------------------------------
    # Collection

    def collect(self) -> TraceBundle:
        """Aggregate every node's trace into a bundle (the 'trace file')."""
        bundle = TraceBundle(self.symtab)
        for tracer in self.tracers.values():
            bundle.add_node(tracer.trace)
        bundle.meta = {
            "sampling_hz": self.tempd_config.sampling_hz,
            "seed": self.machine.config.seed,
            "nodes": list(self.tracers),
        }
        return bundle

    def profile(self, *, strict: bool = True) -> RunProfile:
        """Collect and parse in one step."""
        return TempestParser(self.collect(), strict=strict).parse()

    def live_profile(self) -> RunProfile:
        """A valid :class:`RunProfile` of everything recorded *so far*.

        Callable at any point — mid-run (from a progress callback or an
        interleaved sim process), or after completion.  Each call feeds
        only the records that arrived since the previous call into
        per-node streaming accumulators (cursor-based tail reads), so the
        cost of live profiling is proportional to new data, and memory
        stays O(functions × sensors) even for ``keep_in_memory=False``
        spooled traces — the on-disk spool is tail-read in place of the
        in-memory columns.  Open call frames are credited up to the
        latest event seen; the snapshot never disturbs accumulation.
        """
        from repro.core.spool import (
            STREAM_CHUNK_RECORDS,
            SpoolingNodeTrace,
            iter_spool_chunks,
        )
        from repro.core.streamprof import StreamingRunProfiler

        if self._live is None:
            self._live = StreamingRunProfiler(
                self.symtab,
                sampling_hz=self.tempd_config.sampling_hz,
                strict=False,
                meta={
                    "sampling_hz": self.tempd_config.sampling_hz,
                    "seed": self.machine.config.seed,
                    "live": True,
                },
            )
        profiler = self._live
        profiler.meta["nodes"] = list(self.tracers)
        for name, tracer in self.tracers.items():
            trace = tracer.trace
            acc = profiler.add_node(name, trace.tsc_hz, trace.sensor_names)
            cursor = self._live_cursors.get(name, 0)
            if isinstance(trace, SpoolingNodeTrace) and not trace.keep_in_memory:
                # Bounded-memory tail read: flush buffered records, then
                # stream the new region in STREAM_CHUNK_RECORDS pieces so
                # a long gap between live_profile() calls never forces
                # the whole backlog resident at once.
                trace.spool.flush()
                for chunk in iter_spool_chunks(
                        trace.spool.path,
                        chunk_records=STREAM_CHUNK_RECORDS,
                        start_record=cursor):
                    acc.consume(chunk)
                    cursor += len(chunk)
                self._live_cursors[name] = cursor
            else:
                chunk = trace.columns.array[cursor:]
                if len(chunk):
                    acc.consume(chunk)
                    self._live_cursors[name] = cursor + len(chunk)
        return profiler.snapshot()

    # ------------------------------------------------------------------
    # Overhead accounting helpers (§3.4)

    def total_overhead_charged(self) -> float:
        """Seconds of instrumentation overhead charged to all processes."""
        return sum(
            p.overhead_charged for p in self.machine.processes
        )
