"""Executing a :class:`~repro.lab.manifest.RunSpec` and recording the run.

The executor is the bridge between a pure-data spec and the existing
session/faults machinery: it resolves the platform preset into a
:class:`~repro.simmachine.machine.Machine`, the inject spec into a
:class:`~repro.faults.inject.FaultInjector`, runs the workload under a
:class:`~repro.core.session.TempestSession`, and condenses the trace
into a ``tempest-summary-v3`` document through the streaming engine
(which is also how the summary grows an HCCT when the spec budgets one).

:func:`record_run` is the laboratory write path — execute, blob the
summary and check report, land ``manifest.json`` last (atomically) as
the completion marker.  :func:`rerun_manifest` is the reproducibility
proof — re-execute a stored manifest's spec and compare every output
digest; any inequality is drift.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.lab.laboratory import Laboratory
from repro.lab.manifest import (
    KIND_MICRO,
    RunManifest,
    RunSpec,
    fault_plan_record,
    machine_fingerprint,
)
from repro.util.canonjson import content_digest
from repro.util.errors import LabError

__all__ = [
    "ExecutedRun",
    "RerunResult",
    "build_machine",
    "execute_run",
    "plan_run",
    "record_run",
    "rerun_manifest",
]


def build_machine(spec: RunSpec):
    """Resolve a spec's platform + cluster shape into a Machine."""
    from repro.simmachine.machine import ClusterConfig, Machine
    from repro.simmachine.platforms import PLATFORMS

    kwargs = dict(n_nodes=spec.nodes, seed=spec.seed,
                  vary_nodes=spec.vary_nodes)
    if spec.platform != "default":
        try:
            preset = PLATFORMS[spec.platform]
        except KeyError:
            raise LabError(
                f"unknown platform {spec.platform!r}; "
                f"have {sorted(PLATFORMS)} or 'default'"
            )
        kwargs["base_node"] = preset()
    return Machine(ClusterConfig(**kwargs))


def _resolve_workload(spec: RunSpec):
    """(program, config, run_name) for an NPB spec; micro handled apart."""
    from repro.workloads.npb import BENCHMARKS, bt, cg, ep, ft, is_, lu, mg

    configs = {
        "FT": lambda: ft.FTConfig(klass=spec.klass, iterations=spec.iters),
        "BT": lambda: bt.BTConfig(klass=spec.klass, iterations=spec.iters),
        "CG": lambda: cg.CGConfig(klass=spec.klass, niter=spec.iters),
        "EP": lambda: ep.EPConfig(klass=spec.klass),
        "MG": lambda: mg.MGConfig(klass=spec.klass, iterations=spec.iters),
        "IS": lambda: is_.ISConfig(klass=spec.klass, iterations=spec.iters),
        "LU": lambda: lu.LUConfig(klass=spec.klass, iterations=spec.iters),
    }
    bench = spec.bench.upper()
    if bench not in BENCHMARKS:
        raise LabError(
            f"unknown NPB benchmark {spec.bench!r}; have {sorted(BENCHMARKS)}"
        )
    name = f"{bench}.{spec.klass}.{spec.ranks}"
    return BENCHMARKS[bench], configs[bench](), name


def plan_run(spec: RunSpec) -> tuple[RunManifest, "object"]:
    """Resolve a spec's identity without running anything.

    Builds the machine (cheap — no simulation advances), fingerprints
    it, resolves the fault plan, and returns the outputs-less manifest
    plus the machine, ready to execute.  Sweep resume calls this to
    learn a cell's run id before deciding whether to skip it.
    """
    from repro import __version__

    machine = build_machine(spec)
    manifest = RunManifest(
        spec=spec,
        tempest_version=__version__,
        platform_config=machine_fingerprint(machine),
        fault_plan=fault_plan_record(spec, machine.node_names()),
    )
    return manifest, machine


@dataclass
class ExecutedRun:
    """Everything one execution produced."""

    manifest: RunManifest
    summary_doc: dict = field(default_factory=dict)
    check_doc: dict = field(default_factory=dict)
    profile: Optional[object] = None   # RunProfile, for rendering


def execute_run(spec: RunSpec, *, machine=None,
                manifest: Optional[RunManifest] = None) -> ExecutedRun:
    """Run the spec's workload and produce its outputs + digests."""
    from repro.check import CheckReport, check_profile
    from repro.core import TempestSession
    from repro.core.streamprof import StreamingRunProfiler
    from repro.core.spool import STREAM_CHUNK_RECORDS

    if machine is None or manifest is None:
        manifest, machine = plan_run(spec)

    injector = None
    if spec.inject is not None:
        from repro.faults import FaultInjector

        seed = spec.fault_seed if spec.fault_seed is not None else spec.seed
        injector = FaultInjector.from_spec(spec.inject, seed,
                                           machine.node_names())
    session = TempestSession(machine, injector=injector)
    if spec.kind == KIND_MICRO:
        from repro.workloads.microbench import ALL_MICROS

        bench = spec.bench.upper()
        if bench not in ALL_MICROS:
            raise LabError(
                f"unknown micro benchmark {spec.bench!r}; "
                f"have {sorted(ALL_MICROS)}"
            )
        session.run_serial(ALL_MICROS[bench], machine.node_names()[0], 0)
    else:
        program, config, run_name = _resolve_workload(spec)
        session.run_mpi(lambda ctx: program(ctx, config), spec.ranks,
                        name=run_name)

    bundle = session.collect()
    # Condense through the streaming engine: this is the code path that
    # builds HCCTs, and its summary(final=True) round-trips to exactly
    # the profile the accumulator would finalize.
    profiler = StreamingRunProfiler(
        bundle.symtab,
        sampling_hz=float(bundle.meta.get("sampling_hz", 4.0)),
        strict=injector is None,
        meta=dict(bundle.meta),
        hcct_budget=spec.hcct_budget,
    )
    records_sha = {}
    n_records = 0
    for name, trace in sorted(bundle.nodes.items()):
        acc = profiler.add_node(name, trace.tsc_hz, trace.sensor_names)
        raw = trace.columns.to_bytes()
        records_sha[name] = hashlib.sha256(raw).hexdigest()
        n_records += len(trace)
        for chunk in trace.iter_column_chunks(STREAM_CHUNK_RECORDS):
            acc.consume(chunk)
    summary = profiler.summary(final=True)
    summary_doc = summary.to_dict()
    profile = summary.to_profile()

    report = CheckReport()
    report.add_checked(manifest.run_id)
    report.extend(check_profile(profile, path=manifest.run_id))
    check_doc = report.to_dict()

    manifest.outputs = {
        "summary": content_digest(summary_doc),
        "check_report": content_digest(check_doc),
        "records_sha256": records_sha,
        "n_records": int(n_records),
        "diagnostics": {"errors": report.n_errors,
                        "warnings": report.n_warnings},
    }
    return ExecutedRun(manifest=manifest, summary_doc=summary_doc,
                       check_doc=check_doc, profile=profile)


def record_run(lab: Laboratory, spec: RunSpec, *,
               force: bool = False) -> tuple[RunManifest, bool]:
    """Execute a spec into the laboratory; returns (manifest, executed).

    Skips execution when a completed run with the same inputs digest
    already exists (``executed=False``) unless *force*.  The summary and
    check-report blobs land before ``manifest.json`` does, so a crash
    at any point leaves either no run or a complete one.
    """
    manifest, machine = plan_run(spec)
    run_id = manifest.run_id
    if lab.has_run(run_id) and not force:
        return RunManifest.from_dict(lab.read_manifest_doc(run_id)), False
    result = execute_run(spec, machine=machine, manifest=manifest)
    with lab.lock:
        lab.put_json(result.summary_doc)
        lab.put_json(result.check_doc)
        lab.write_manifest_doc(run_id, result.manifest.to_dict())
    return result.manifest, True


@dataclass
class RerunResult:
    """Outcome of re-executing a stored manifest's spec."""

    run_id: str
    drift: list[str] = field(default_factory=list)   # human-readable findings
    new_outputs: dict = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return not self.drift


def rerun_manifest(lab: Laboratory, run_id: str) -> RerunResult:
    """Re-execute a manifested run and compare every digest.

    Checks, in order of increasing cost: the platform fingerprint (the
    spec still resolves to the same machine), the fault-plan schedule
    digest (same seeds still draw the same schedule), then the output
    digests of a full re-execution (summary, check report, raw records).
    """
    stored = RunManifest.from_dict(lab.read_manifest_doc(run_id))
    fresh, machine = plan_run(stored.spec)
    out = RerunResult(run_id=run_id)
    if fresh.platform_config != stored.platform_config:
        out.drift.append(
            "platform fingerprint changed: the spec no longer resolves "
            "to the machine it was recorded on"
        )
    if fresh.fault_plan != stored.fault_plan:
        out.drift.append(
            "fault plan changed: the same (spec, seed) now draws a "
            "different schedule"
        )
    if fresh.tempest_version != stored.tempest_version:
        out.drift.append(
            f"code version changed: recorded {stored.tempest_version}, "
            f"running {fresh.tempest_version}"
        )
    result = execute_run(stored.spec, machine=machine, manifest=fresh)
    out.new_outputs = dict(result.manifest.outputs)
    for key in ("summary", "check_report", "n_records"):
        want = stored.outputs.get(key)
        got = result.manifest.outputs.get(key)
        if want != got:
            out.drift.append(f"output {key!r} diverged: recorded "
                             f"{str(want)[:16]}, reproduced {str(got)[:16]}")
    want_rec = stored.outputs.get("records_sha256", {})
    got_rec = result.manifest.outputs.get("records_sha256", {})
    for node in sorted(set(want_rec) | set(got_rec)):
        if want_rec.get(node) != got_rec.get(node):
            out.drift.append(f"raw records of {node} diverged")
    return out
