"""Integration tests: session -> trace -> parser -> profile -> report."""

import pytest

from repro.core import (
    TempestSession,
    TempestParser,
    instrument,
    render_stdout_report,
)
from repro.core.report import dump_csv, dump_json, profile_to_rows
from repro.core.perblk import block, is_block_symbol
from repro.core.ascii_plot import (
    render_cluster_profile,
    render_function_profile,
    render_series,
)
from repro.core.trace import TraceBundle
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.power import ACTIVITY_BURN, ACTIVITY_COMPUTE
from repro.simmachine.process import Compute, Sleep
from repro.util.errors import ConfigError


@instrument
def hot_loop(ctx):
    for _ in range(12):
        yield Compute(0.5, ACTIVITY_BURN)


@instrument
def short_timer(ctx):
    yield Sleep(0.05)  # below the 0.25 s sampling interval


@instrument(name="main")
def micro_main(ctx):
    yield from hot_loop(ctx)
    yield from short_timer(ctx)


def run_micro(seed=1):
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=seed))
    s = TempestSession(m)
    s.run_serial(micro_main, "node1", 0)
    return m, s, s.profile()


def test_profile_contains_all_functions():
    _, _, prof = run_micro()
    node = prof.node("node1")
    assert set(node.functions) == {"main", "hot_loop", "short_timer"}


def test_inclusive_times_nest_correctly():
    _, _, prof = run_micro()
    node = prof.node("node1")
    main = node.function("main")
    loop = node.function("hot_loop")
    timer = node.function("short_timer")
    assert main.total_time_s == pytest.approx(
        loop.total_time_s + timer.total_time_s, rel=1e-3
    )
    assert loop.total_time_s == pytest.approx(6.0, rel=0.05)


def test_short_function_marked_insignificant():
    """§4.2: functions shorter than the sampling interval get no stats."""
    _, _, prof = run_micro()
    timer = prof.node("node1").function("short_timer")
    assert not timer.significant
    assert timer.sensor_stats == {}
    loop = prof.node("node1").function("hot_loop")
    assert loop.significant
    assert len(loop.sensor_stats) == 3


def test_dominating_child_matches_parent_stats():
    """Figure 2(a): main and foo1 show near-identical thermal statistics."""
    _, _, prof = run_micro()
    node = prof.node("node1")
    m_stats = node.function("main").sensor_stats["CPU0 Temp"]
    l_stats = node.function("hot_loop").sensor_stats["CPU0 Temp"]
    assert m_stats.avg == pytest.approx(l_stats.avg, abs=0.6)
    assert m_stats.max == l_stats.max


def test_hot_function_heats_its_socket():
    _, _, prof = run_micro()
    stats = prof.node("node1").function("hot_loop").sensor_stats
    assert stats["CPU0 Temp"].max > stats["CPU0 Temp"].min + 2.0
    assert stats["CPU0 Temp"].avg > stats["CPU1 Temp"].avg + 2.0


def test_profile_deterministic_across_runs():
    _, _, a = run_micro(seed=42)
    _, _, b = run_micro(seed=42)
    sa = a.node("node1").function("hot_loop").sensor_stats["CPU0 Temp"]
    sb = b.node("node1").function("hot_loop").sensor_stats["CPU0 Temp"]
    assert sa == sb


def test_different_seed_changes_sensor_noise():
    _, _, a = run_micro(seed=1)
    _, _, b = run_micro(seed=2)
    ta, va = a.node("node1").sensor_series["CPU0 Temp"]
    tb, vb = b.node("node1").sensor_series["CPU0 Temp"]
    assert not (va[: len(vb)] == vb[: len(va)]).all()


def test_bundle_roundtrip_preserves_profile(tmp_path):
    _, s, prof = run_micro()
    bundle = s.collect()
    bundle.save(tmp_path / "b")
    reloaded = TraceBundle.load(tmp_path / "b")
    prof2 = TempestParser(reloaded).parse()
    f1 = prof.node("node1").function("hot_loop")
    f2 = prof2.node("node1").function("hot_loop")
    assert f1.total_time_s == pytest.approx(f2.total_time_s)
    assert f1.sensor_stats == f2.sensor_stats


def test_stdout_report_structure():
    _, _, prof = run_micro()
    text = render_stdout_report(prof)
    assert "Function: main" in text
    assert "Total Time(sec):" in text
    assert "Min" in text and "Mod" in text
    assert "not significant" in text  # short_timer
    # Fahrenheit by default: CPU temps land in the 80-120 F band.
    assert "CPU0 Temp" in text


def test_stdout_report_celsius_and_filters():
    _, _, prof = run_micro()
    text = render_stdout_report(
        prof, fahrenheit=False, top_n=1, include_insignificant=False
    )
    assert "Function: main" in text
    assert "hot_loop" not in text
    assert "not significant" not in text


def test_rows_csv_json_exports():
    _, _, prof = run_micro()
    rows = profile_to_rows(prof)
    fn_names = {r["function"] for r in rows}
    assert fn_names == {"main", "hot_loop", "short_timer"}
    insig = [r for r in rows if r["function"] == "short_timer"]
    assert len(insig) == 1 and insig[0]["sensor"] is None
    csv_text = dump_csv(prof)
    assert csv_text.startswith("node,function,")
    json_text = dump_json(prof)
    assert '"sampling_hz": 4.0' in json_text


def test_run_profile_helpers():
    _, _, prof = run_micro()
    assert prof.node_names() == ["node1"]
    assert prof.function_names()[0] == "main"
    assert prof.hottest_node() == "node1"
    node = prof.node("node1")
    assert node.mean_temperature("CPU0 Temp") > node.mean_temperature("M/B Temp")
    name, stats = node.function("hot_loop").hottest_sensor()
    assert name == "CPU0 Temp"
    with pytest.raises(ConfigError):
        node.function("nope")
    with pytest.raises(ConfigError):
        prof.node("node9")


def test_ascii_plots_render():
    _, s, prof = run_micro()
    node = prof.node("node1")
    times, values = node.sensor_series["CPU0 Temp"]
    chart = render_series(times, values, title="CPU0")
    assert "CPU0" in chart and "*" in chart and "time (s)" in chart
    fig2b = render_function_profile(node, "CPU0 Temp", bundle=s.collect())
    assert "hot_loop" in fig2b  # function band annotation
    fig3 = render_cluster_profile(prof, "CPU0 Temp")
    assert "[node1]" in fig3


def test_disabled_session_runs_untraced():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m, enabled=False)
    s.run_serial(micro_main, "node1", 0)
    assert s.total_overhead_charged() == 0.0
    bundle = s.collect()
    assert bundle.total_records() == 0


def test_overhead_positive_when_enabled():
    m, s, _ = run_micro()
    assert s.total_overhead_charged() > 0.0


@instrument
def blocked_solver(ctx):
    with block(ctx, "x_sweep"):
        yield Compute(1.0, ACTIVITY_COMPUTE)
    with block(ctx, "y_sweep"):
        yield Compute(2.0, ACTIVITY_COMPUTE)


def test_perblk_blocks_profiled_like_functions():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m)
    s.run_serial(blocked_solver, "node1", 0)
    prof = s.profile()
    node = prof.node("node1")
    assert "x_sweep@blk" in node.functions
    assert "y_sweep@blk" in node.functions
    assert is_block_symbol("x_sweep@blk")
    assert not is_block_symbol("blocked_solver")
    assert node.function("y_sweep@blk").total_time_s == pytest.approx(2.0, rel=0.05)
    # Blocks nest inside their function's inclusive time.
    assert (
        node.function("blocked_solver").total_time_s
        >= node.function("y_sweep@blk").total_time_s
    )


def test_mpi_session_profiles_all_nodes():
    from repro.mpisim.runtime import MpiContext

    @instrument(name="main")
    def prog(ctx):
        yield Compute(1.0, ACTIVITY_BURN)
        total = yield from ctx.comm.allreduce(ctx.rank)
        yield Compute(0.5, ACTIVITY_BURN)
        return total

    m = Machine(ClusterConfig(n_nodes=2, vary_nodes=False))
    s = TempestSession(m)
    results = s.run_mpi(prog, 2)
    assert results == [1, 1]
    prof = s.profile()
    assert set(prof.node_names()) == {"node1", "node2"}
    for n in prof.node_names():
        assert "main" in prof.node(n).functions
