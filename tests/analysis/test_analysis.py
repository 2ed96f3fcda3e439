"""Tests for hot-spot ranking, phase characterization, and optimization."""

import numpy as np
import pytest

from repro.analysis.correlate import (
    comm_compute_split,
    cross_node_spread,
    function_across_nodes,
    function_temperature_excess,
)
from repro.analysis.hotspots import hot_nodes, identify_hot_spots, rank_hot_functions
from repro.analysis.optimize import compare_runs, dvfs_region, recommend
from repro.analysis.phases import (
    characterize_series,
    detect_jump,
    synchronization_score,
)
from repro.core import TempestSession, instrument
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.power import ACTIVITY_BURN, ACTIVITY_COMM, ACTIVITY_MEMORY
from repro.simmachine.process import Compute, Sleep
from repro.util.errors import ConfigError


@instrument
def hot_fn(ctx, seconds=8.0):
    whole = int(seconds)
    for _ in range(whole):
        yield Compute(1.0, ACTIVITY_BURN)


@instrument
def cool_fn(ctx, seconds=8.0):
    whole = int(seconds)
    for _ in range(whole):
        yield Compute(1.0, ACTIVITY_COMM)


@instrument(name="main")
def two_phase(ctx):
    yield from cool_fn(ctx)
    yield from hot_fn(ctx)


def profiled_run(program=two_phase, seed=3):
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=seed))
    s = TempestSession(m)
    s.run_serial(program, "node1", 0)
    return s.profile()


# ----------------------------------------------------------------------
# Hot spots


def test_hot_fn_ranked_above_cool_fn():
    prof = profiled_run()
    ranked = rank_hot_functions(prof)
    names = [n for n, _ in ranked]
    assert names.index("hot_fn") < names.index("cool_fn")


def test_identify_hot_spots_fields():
    prof = profiled_run()
    spots = identify_hot_spots(prof, top_n=2)
    assert len(spots) == 2
    top = spots[0]
    assert top.function in ("hot_fn", "main")
    assert top.excess_c > 0
    assert "node1" == top.node
    assert top.describe()


def test_hot_nodes_ordering():
    m = Machine(ClusterConfig(n_nodes=2, node_configs=[
        # Second node has a hot inlet: must rank hotter under equal load.
        __import__("repro.simmachine.node", fromlist=["NodeConfig"]).NodeConfig(
            name="node1"),
        __import__("repro.simmachine.node", fromlist=["NodeConfig"]).NodeConfig(
            name="node2", inlet_offset_c=5.0),
    ]))
    s = TempestSession(m)

    def prog(ctx):
        yield from hot_fn(ctx, 6.0)

    from repro.mpisim.runtime import mpi_spawn
    s.run_mpi(prog, 2, placement=[("node1", 0), ("node2", 0)])
    prof = s.profile()
    ranked = hot_nodes(prof)
    assert ranked[0][0] == "node2"
    assert ranked[0][1] > ranked[1][1] + 2.0


# ----------------------------------------------------------------------
# Phases


def test_characterize_warming_series():
    t = np.arange(0, 60, 0.25)
    v = 35.0 + 0.05 * t
    ch = characterize_series(t, v)
    assert ch.classification == "warming"
    assert ch.slope_c_per_s == pytest.approx(0.05, abs=0.005)


def test_characterize_volatile_series():
    rng = np.random.default_rng(0)
    t = np.arange(0, 60, 0.25)
    v = 35.0 + rng.normal(0, 1.0, len(t))
    ch = characterize_series(t, v)
    assert ch.classification == "volatile"
    assert abs(ch.slope_c_per_s) < 0.02


def test_characterize_flat_and_cooling():
    t = np.arange(0, 60, 0.25)
    assert characterize_series(t, np.full(len(t), 30.0)).classification == "flat"
    assert characterize_series(t, 50.0 - 0.1 * t).classification == "cooling"


def test_characterize_needs_samples():
    with pytest.raises(ConfigError):
        characterize_series(np.array([0.0]), np.array([1.0]))


def test_detect_jump_finds_step():
    t = np.arange(0, 30, 0.25)
    v = np.where(t < 12.0, 30.0, 42.0)
    when, rise = detect_jump(t, v)
    assert when == pytest.approx(12.0, abs=1.5)
    assert rise == pytest.approx(12.0, abs=1.0)


def test_detect_jump_needs_window():
    with pytest.raises(ConfigError):
        detect_jump(np.arange(3.0), np.arange(3.0))


def test_synchronization_score_extremes():
    """Construct a fake two-node profile: identical series vs noise."""
    from repro.core.profilemodel import NodeProfile, RunProfile
    from repro.core.timeline import Timeline

    t = np.arange(0, 20, 0.25)
    sync = 30 + 10 * np.sin(t / 3)
    rng = np.random.default_rng(1)

    def node_with(vals, name):
        return NodeProfile(
            node_name=name, duration_s=20.0, functions={},
            sensor_series={"CPU A Temp": (t, vals)},
            timeline=Timeline({}, {}),
        )

    synced = RunProfile(
        nodes={"n1": node_with(sync, "n1"), "n2": node_with(sync + 1, "n2")},
        sampling_hz=4.0,
    )
    assert synchronization_score(synced, "CPU A Temp") > 0.99
    noisy = RunProfile(
        nodes={
            "n1": node_with(30 + rng.normal(0, 1, len(t)), "n1"),
            "n2": node_with(30 + rng.normal(0, 1, len(t)), "n2"),
        },
        sampling_hz=4.0,
    )
    assert abs(synchronization_score(noisy, "CPU A Temp")) < 0.5


# ----------------------------------------------------------------------
# Correlation


def test_function_temperature_excess_sign():
    prof = profiled_run()
    excess = function_temperature_excess(prof.node("node1"))
    assert excess["hot_fn"] > excess["cool_fn"]


def test_function_across_nodes_and_spread():
    m = Machine(ClusterConfig(n_nodes=2, node_configs=[
        __import__("repro.simmachine.node", fromlist=["NodeConfig"]).NodeConfig(
            name="node1"),
        __import__("repro.simmachine.node", fromlist=["NodeConfig"]).NodeConfig(
            name="node2", inlet_offset_c=4.0, speed_grade=1.08),
    ]))
    s = TempestSession(m)

    def prog(ctx):
        yield from hot_fn(ctx, 6.0)

    s.run_mpi(prog, 2, placement=[("node1", 0), ("node2", 0)])
    prof = s.profile()
    across = function_across_nodes(prof, "hot_fn")
    assert set(across) == {"node1", "node2"}
    assert all(st is not None for st in across.values())
    spread = cross_node_spread(prof, "hot_fn")
    assert spread is not None and spread > 1.5  # same load, different thermals
    assert cross_node_spread(prof, "nonexistent") is None


def test_comm_compute_split():
    prof = profiled_run()
    comm, comp = comm_compute_split(
        prof.node("node1"), comm_symbols={"cool_fn"}
    )
    assert comm == pytest.approx(8.0, rel=0.05)
    assert comp == pytest.approx(8.0, rel=0.05)


# ----------------------------------------------------------------------
# Optimization


@instrument(name="main")
def optimized_two_phase(ctx):
    yield from cool_fn(ctx)
    result = yield from dvfs_region(ctx, hot_fn(ctx), opp_index=2)
    return result


def test_dvfs_region_trades_time_for_temperature():
    before = profiled_run(two_phase)
    after = profiled_run(optimized_two_phase)
    report = compare_runs(before, after)
    assert len(report.deltas) == 1
    d = report.deltas[0]
    assert d.slowdown > 1.2          # the 1.0 GHz region costs time...
    assert d.peak_reduction_c > 1.0  # ...and saves peak temperature
    assert "node1" in report.describe()


def test_recommend_targets_hot_function():
    prof = profiled_run()
    recs = recommend(prof, top_n=2)
    assert any(r.function in ("hot_fn", "main") for r in recs)
    assert all("dvfs_region" in r.action for r in recs)


def test_segment_phases_finds_steps():
    from repro.analysis.phases import segment_phases

    t = np.arange(0, 40, 0.25)
    v = np.where(t < 12, 30.0, np.where(t < 28, 38.0, 33.0))
    v = v + np.random.default_rng(0).normal(0, 0.2, len(t))
    phases = segment_phases(t, v, threshold_c=2.0)
    assert len(phases) == 3
    assert phases[0].mean_c == pytest.approx(30.0, abs=0.5)
    assert phases[1].mean_c == pytest.approx(38.0, abs=0.5)
    assert phases[2].mean_c == pytest.approx(33.0, abs=0.5)
    # Boundaries near the true change points.
    assert phases[1].start_s == pytest.approx(12.0, abs=1.5)
    assert phases[2].start_s == pytest.approx(28.0, abs=1.5)


def test_segment_phases_flat_series_is_one_phase():
    from repro.analysis.phases import segment_phases

    t = np.arange(0, 20, 0.25)
    v = np.full(len(t), 35.0)
    phases = segment_phases(t, v)
    assert len(phases) == 1
    assert phases[0].duration_s == pytest.approx(t[-1] - t[0])


def test_segment_phases_validation():
    from repro.analysis.phases import segment_phases

    with pytest.raises(ConfigError):
        segment_phases(np.arange(3.0), np.arange(3.0))


def test_segment_phases_on_bt_profile():
    """The BT init->ADI transition appears as a phase boundary."""
    from repro.analysis.phases import segment_phases
    from repro.workloads.npb import bt

    m = Machine(ClusterConfig(n_nodes=4, vary_nodes=False, seed=12))
    s = TempestSession(m)
    config = bt.BTConfig(klass="C", iterations=8)
    s.run_mpi(lambda ctx: bt.bt_benchmark(ctx, config), 4)
    prof = s.profile()
    times, vals = prof.node("node1").sensor_series["CPU0 Temp"]
    phases = segment_phases(times, vals, threshold_c=1.5)
    assert len(phases) >= 2
    # Later phases are hotter than the init phase.
    assert phases[-1].mean_c > phases[0].mean_c + 1.0
