"""Experiment F2 — Figure 2: micro-benchmark D profile.

Part (a): the standard-output report where ``foo1`` (a 60 s CPU burn)
dominates ``main`` with near-identical thermal statistics, while ``foo2``'s
time is "small relative to the sampling interval" and gets no statistics.
Part (b): the temperature-vs-time profile — the CPU sensor climbs steadily
through foo1, then "the temperature drops abruptly while the timer is set
and expires" (shown with a long-timer variant of foo2, which is what the
paper's plotted run used).
"""

import pytest

from repro.core import TempestSession, render_stdout_report
from repro.core.ascii_plot import render_function_profile
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads import microbench as mb

from .conftest import once, write_artifact


def run_fig2():
    # Table variant: the paper's short timer (insignificant foo2).
    m1 = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=20))
    s1 = TempestSession(m1)
    s1.run_serial(mb.micro_d, "node1", 0, 60.0, 0.05)
    table_profile = s1.profile()
    # Figure variant: a visible cooldown window after the burn.
    m2 = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=20))
    s2 = TempestSession(m2)
    s2.run_serial(mb.micro_d, "node1", 0, 60.0, 6.0)
    figure_profile = s2.profile()
    return table_profile, figure_profile, s2.collect()


def test_fig2_micro_d(benchmark, results_dir):
    table_profile, figure_profile, figure_bundle = once(benchmark, run_fig2)
    node = table_profile.node("node1")
    main, foo1, foo2 = (node.function(f) for f in ("main", "foo1", "foo2"))

    # Part (a) shape: foo1 dominates main; their stats nearly coincide.
    assert foo1.total_time_s / main.total_time_s > 0.99
    sm, sf = main.sensor_stats["CPU0 Temp"], foo1.sensor_stats["CPU0 Temp"]
    assert sm.avg == pytest.approx(sf.avg, abs=0.5)
    assert sm.max == sf.max
    # Var = Sdv^2, as in the paper's tables.
    assert sf.var == pytest.approx(sf.sdv**2, rel=1e-9)

    # foo2 below the sampling interval: no thermal statistics.
    assert foo2.total_time_s < 0.25
    assert not foo2.significant and foo2.sensor_stats == {}

    # The burn heats the CPU markedly (paper: 94 F -> 124 F; we check the
    # shape, not the absolute: >= 8 F of rise on the burning socket).
    rise_f = (sf.max - sf.min) * 9 / 5
    assert rise_f >= 8.0
    # The other socket stays much cooler.
    assert sf.avg > foo1.sensor_stats["CPU1 Temp"].avg + 2.0

    # Part (b) shape: with a long timer, the post-burn samples drop.
    fig_node = figure_profile.node("node1")
    times, vals = fig_node.sensor_series["CPU0 Temp"]
    burn_end = fig_node.function("foo1").total_time_s
    during = vals[(times > burn_end - 4.0) & (times <= burn_end)]
    after = vals[times > burn_end + 2.0]
    assert len(during) and len(after)
    assert after.mean() < during.mean() - 0.5  # abrupt drop once foo2 waits

    text = [
        "===== Figure 2(a): Tempest standard output (micro D) =====",
        render_stdout_report(table_profile),
        "",
        "===== Figure 2(b): temperature profile (micro D, long timer) =====",
        render_function_profile(fig_node, "CPU0 Temp", figure_bundle,
                                width=76, height=12),
    ]
    write_artifact(results_dir, "fig2_micro_d.txt", "\n".join(text))
