"""Chaos scenarios: the full profiling pipeline under injected faults.

Acceptance scenario from the fault-model issue: run NPB FT with a seeded
FaultPlan failing ~20% of one node's tempd sweeps and dropping ~5% of its
trace records; the top-3 hottest functions must match the fault-free run,
and the damaged node must report per-function coverage < 1.0."""

import pytest

from repro.analysis.hotspots import rank_hot_functions
from repro.core.session import TempestSession
from repro.faults import FaultConfig, FaultInjector, FaultPlan
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads.kernels import MachineRate
from repro.workloads.npb.ft import FTConfig, ft_benchmark

NODES = ["node1", "node2", "node3", "node4"]

# Slow the machine 40x so class-S FT runs ~2.5 simulated seconds — enough
# 4 Hz sweeps for stable per-function statistics, still ~30 ms wall.
SLOW = MachineRate(1.45e9 / 40, 2.0e9 / 40, 2.4e9 / 40)
FT = FTConfig(klass="S", iterations=8, rate=SLOW)

CHAOS = FaultConfig(
    nodes=("node1",),
    sweep_failure_rate=0.2,
    record_loss_rate=0.05,
    horizon_s=40.0,
)


def run_ft(injector=None):
    machine = Machine(ClusterConfig(n_nodes=4, seed=1234))
    session = TempestSession(machine, injector=injector)
    session.run_mpi(ft_benchmark, 4, FT)
    # Fault-damaged traces need the lenient parser (gaps, repairs).
    profile = session.profile(strict=injector is None)
    return session, profile


def chaos_injector(seed=99):
    plan = FaultPlan(CHAOS, seed=seed, node_names=NODES)
    return FaultInjector(plan)


def test_top3_ranking_stable_under_chaos():
    _, clean = run_ft()
    injector = chaos_injector()
    session, faulted = run_ft(injector)

    clean_top = [name for name, _ in rank_hot_functions(clean, top_n=3)]
    fault_top = [name for name, _ in rank_hot_functions(faulted, top_n=3)]
    assert clean_top == fault_top
    assert len(clean_top) == 3

    # The faults really happened: sweeps failed and records vanished.
    reader = injector.readers["node1"]
    tracer = session.tracers["node1"]
    assert reader.n_transient_failures > 0
    assert tracer.n_failed_sweeps > 0
    assert tracer.trace.n_records_dropped > 0
    # ...and only on the targeted node.
    for other in NODES[1:]:
        assert session.tracers[other].n_failed_sweeps == 0

    # The damaged node owns up to its gaps: significant functions there
    # report coverage < 1.0 instead of presenting thin data as complete.
    node1 = faulted.node("node1")
    gappy = [fp for fp in node1.functions.values()
             if fp.significant and fp.coverage < 1.0]
    assert gappy, "expected sub-1.0 coverage on the faulted node"
    assert min(fp.coverage for fp in gappy) < 0.9


def test_chaos_run_is_reproducible():
    """Same machine seed + same FaultPlan seed => identical damaged trace,
    byte for byte, and therefore an identical profile."""
    s1, p1 = run_ft(chaos_injector(seed=99))
    s2, p2 = run_ft(chaos_injector(seed=99))
    r1 = s1.tracers["node1"].trace.columns.to_bytes()
    r2 = s2.tracers["node1"].trace.columns.to_bytes()
    assert r1 == r2
    assert rank_hot_functions(p1) == rank_hot_functions(p2)

    # And the schedule itself is byte-identical across plan constructions.
    a = FaultPlan(CHAOS, seed=99, node_names=NODES)
    b = FaultPlan(CHAOS, seed=99, node_names=NODES)
    assert a.encode() == b.encode()


def test_tempd_crash_and_restart_mid_run():
    cfg = FaultConfig(
        nodes=("node3",),
        crashes=1,
        crash_restart_delay_s=0.5,
        horizon_s=1.5,          # crash lands inside the ~2.5 s run
    )
    plan = FaultPlan(cfg, seed=5, node_names=NODES)
    injector = FaultInjector(plan)
    session, profile = run_ft(injector)

    assert injector.n_tempd_kills == 1
    assert injector.n_tempd_restarts == 1
    # The ranking still forms and the restarted daemon kept sampling.
    assert rank_hot_functions(profile, top_n=3)
    assert session.tracers["node3"].n_samples > 0


def test_unaffected_run_with_empty_plan_matches_clean():
    """A FaultPlan with no faults wired through the injector must be a
    perfect no-op on the profile."""
    _, clean = run_ft()
    plan = FaultPlan(FaultConfig(), seed=1, node_names=NODES)
    _, noop = run_ft(FaultInjector(plan))
    assert rank_hot_functions(clean) == rank_hot_functions(noop)


# ----------------------------------------------------------------------
# Determinism under the chaos lens: scrambled tie-breaks and RNG hygiene


def micro_scenario(sim):
    """One full serial profiling session on an injected simulator,
    reduced to the numbers a report would print."""
    from repro.core.session import TempestSession
    from repro.workloads.microbench import ALL_MICROS

    machine = Machine(ClusterConfig(n_nodes=1, seed=1234,
                                    vary_nodes=False), sim=sim)
    session = TempestSession(machine)
    session.run_serial(ALL_MICROS["A"], "node1", 0)
    profile = session.profile()
    node = profile.node("node1")
    return {
        name: (round(f.total_time_s, 12), f.n_calls, f.n_samples)
        for name, f in sorted(node.functions.items())
    }


def test_micro_session_survives_tie_scrambling():
    """The whole pipeline's result must not depend on how same-time DES
    events happen to be ordered — the detector proves it by permuting
    every tie group and comparing profiles."""
    from repro.check.determinism import run_tie_scramble

    report = run_tie_scramble(micro_scenario)
    assert report.deterministic, report.describe()
    assert not any(d.severity in ("warning", "error")
                   for d in report.diagnostics)


def test_micro_session_draws_no_global_rng():
    """All simulation randomness flows through seeded repro.util.rng
    substreams; a single draw from the process-global RNG is a DS002."""
    from repro.check.determinism import global_rng_guard
    from repro.simmachine.events import Simulator

    with global_rng_guard() as guard:
        micro_scenario(Simulator())
    assert guard.clean, [d.describe() for d in guard.diagnostics()]


def test_detector_flags_mpi_tie_order_coupling():
    """The MPI layer leans on the kernel's documented insertion-order
    tie-break: same-time events from different ranks do not commute, so
    scrambled tie-breaks shift the (still fully seeded-deterministic)
    result.  The detector must surface that coupling as a DS001 warning
    naming the mpisim call sites — this is the regression test that the
    detector actually catches order-dependent ties in a real scenario,
    not just in toy ones."""
    from repro.check.determinism import run_tie_scramble

    def scenario(sim):
        machine = Machine(ClusterConfig(n_nodes=4, seed=1234), sim=sim)
        session = TempestSession(machine, injector=chaos_injector())
        session.run_mpi(ft_benchmark, 4, FT)
        profile = session.profile(strict=False)
        return {
            node: sorted((name, round(f.total_time_s, 12), f.n_calls)
                         for name, f in profile.node(node).functions.items())
            for node in profile.node_names()
        }

    report = run_tie_scramble(scenario, seeds=(0, 1))
    assert not report.deterministic
    ds = [d for d in report.diagnostics if d.rule == "DS001"]
    assert len(ds) == 1 and ds[0].severity == "warning"
    assert "repro.mpisim.comm" in ds[0].message
