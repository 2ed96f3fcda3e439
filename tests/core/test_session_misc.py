"""Session lifecycle and miscellaneous coverage tests."""

import pytest

from repro.core import TempestSession
from repro.core.ascii_plot import render_function_profile
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.errors import ConfigError
from repro.workloads import microbench as mb
from repro.workloads.kernels import (
    MachineRate,
    burn_phase,
    compute_phase,
    flop_phase,
    int_phase,
    memory_phase,
)
from repro.workloads.specmix import SPEC_MIXES


def test_attach_is_idempotent():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m)
    t1 = s.attach("node1")
    t2 = s.attach("node1")
    assert t1 is t2
    # Only one tempd was spawned.
    assert sum(1 for p in m.processes if p.name.startswith("tempd")) == 1


def test_stop_is_idempotent():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m)
    s.run_serial(mb.micro_a, "node1", 0, 1.0)
    s.stop()
    s.stop()  # second call is a no-op


def test_tempd_core_override():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m, tempd_core=2)
    s.run_serial(mb.micro_a, "node1", 0, 1.0)
    tempd = next(p for p in m.processes if p.name.startswith("tempd"))
    assert tempd.core_id == 2


def test_disabled_session_spawns_no_tempd():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m, enabled=False)
    s.run_serial(mb.micro_a, "node1", 0, 1.0)
    assert not any(p.name.startswith("tempd") for p in m.processes)


def test_total_overhead_accounting():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    s = TempestSession(m)
    s.run_serial(mb.micro_c, "node1", 0, 2.0)
    tracer = s.tracers["node1"]
    # Total charged = function events x hook costs (tempd charges too, but
    # through Compute directives, not charge_overhead).
    expected = tracer.n_func_events * s.costs.enter_s  # enter == exit cost
    assert s.total_overhead_charged() == pytest.approx(expected, rel=1e-6)


def test_all_spec_mixes_run_traced():
    for name, prog in SPEC_MIXES.items():
        m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
        s = TempestSession(m)
        if name == "perl":
            s.run_serial(prog, "node1", 0, 200, 0.001)
        else:
            s.run_serial(prog, "node1", 0)
        prof = s.profile()
        fns = set(prof.node("node1").functions)
        assert any(f.startswith("spec_") for f in fns), (name, fns)


def test_kernel_phase_builders():
    rate = MachineRate(flops_per_s=1e9, mem_bytes_per_s=1e9,
                       int_ops_per_s=1e9)
    assert flop_phase(2e9, rate).seconds == pytest.approx(2.0)
    assert memory_phase(3e9, rate).seconds == pytest.approx(3.0)
    assert int_phase(1e9, rate).seconds == pytest.approx(1.0)
    assert burn_phase(5.0).activity == 1.0
    combo = compute_phase(flops=1e9, mem_bytes=1e9, int_ops=1e9,
                          activity=0.7, rate=rate)
    assert combo.seconds == pytest.approx(3.0)
    assert combo.activity == 0.7
    with pytest.raises(ConfigError):
        compute_phase(flops=-1.0)
    with pytest.raises(ConfigError):
        MachineRate(flops_per_s=0.0)


def test_function_band_labels_multiple_segments():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=17))
    s = TempestSession(m)
    s.run_serial(mb.micro_c, "node1", 0, 3.0)
    node = s.profile().node("node1")
    fig = render_function_profile(node, "CPU0 Temp", bundle=s.collect(),
                                  width=80)
    # The band names the phases in time order.
    band_line = fig.splitlines()[1]
    assert "foo1" in band_line
    assert "foo3" in band_line
