"""Tests for the instrumentation decorator and tracer hooks."""

import pytest

from repro.core.instrument import HookCosts, NodeTracer, instrument, tracer_of
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.process import Compute
from repro.util.errors import ConfigError


def make_machine():
    return Machine(ClusterConfig(n_nodes=1, vary_nodes=False))


def make_tracer(costs=HookCosts()):
    return NodeTracer("node1", SymbolTable(), tsc_hz=1.8e9,
                      sensor_names=["s0"], costs=costs)


@instrument
def leaf(ctx):
    yield Compute(1.0, 1.0)
    return "leaf-done"


@instrument(name="fortran_style_")
def renamed(ctx):
    yield Compute(0.5, 1.0)


@instrument
def outer(ctx):
    value = yield from leaf(ctx)
    yield from renamed(ctx)
    return value


def run_traced(program, tracer):
    m = make_machine()

    def body(proc):
        proc.trace_context = tracer
        result = yield from program(proc)
        return result

    p = m.spawn(body, "node1", 0)
    m.run_to_completion([p])
    return m, p


def test_enter_exit_records_emitted():
    tracer = make_tracer()
    _, p = run_traced(leaf, tracer)
    kinds = tracer.trace.columns.array["kind"].tolist()
    assert kinds == [REC_ENTER, REC_EXIT]
    assert p.result == "leaf-done"
    name = tracer.symtab.name_of(int(tracer.trace.columns.array["addr"][0]))
    assert name == "leaf"


def test_nested_instrumentation_order():
    tracer = make_tracer()
    run_traced(outer, tracer)
    arr = tracer.trace.columns.array
    names = [
        (kind, tracer.symtab.name_of(addr))
        for kind, addr in zip(arr["kind"].tolist(), arr["addr"].tolist())
    ]
    assert names == [
        (REC_ENTER, "outer"),
        (REC_ENTER, "leaf"),
        (REC_EXIT, "leaf"),
        (REC_ENTER, "fortran_style_"),
        (REC_EXIT, "fortran_style_"),
        (REC_EXIT, "outer"),
    ]


def test_custom_symbol_name():
    assert renamed._tempest_symbol == "fortran_style_"


def test_untraced_process_pays_nothing():
    m = make_machine()
    p = m.spawn(lambda proc: leaf(proc), "node1", 0)
    m.run_to_completion([p])
    assert p.overhead_charged == 0.0
    assert p.result == "leaf-done"


def test_hook_costs_charged_per_event():
    costs = HookCosts(enter_s=1e-3, exit_s=2e-3)
    tracer = make_tracer(costs)
    _, p = run_traced(outer, tracer)
    # outer, leaf, renamed: 3 enters + 3 exits
    assert p.overhead_charged == pytest.approx(3 * 1e-3 + 3 * 2e-3)
    assert tracer.n_func_events == 6


def test_exit_emitted_on_exception():
    tracer = make_tracer()

    @instrument
    def boom(ctx):
        yield Compute(0.1, 1.0)
        raise RuntimeError("bang")

    m = make_machine()

    def body(proc):
        proc.trace_context = tracer
        try:
            yield from boom(proc)
        except RuntimeError:
            pass
        return "survived"

    p = m.spawn(body, "node1", 0)
    m.run_to_completion([p])
    kinds = tracer.trace.columns.array["kind"].tolist()
    assert kinds == [REC_ENTER, REC_EXIT]
    assert p.result == "survived"


def test_stopped_tracer_records_nothing():
    tracer = make_tracer()
    tracer.stop()
    _, p = run_traced(leaf, tracer)
    assert len(tracer.trace) == 0
    assert p.overhead_charged == 0.0


def test_timestamps_are_core_tsc():
    tracer = make_tracer()
    _, p = run_traced(leaf, tracer)
    enter, exit_ = tracer.trace.columns.array["tsc"].tolist()
    # leaf computes 1.0 s at 1.8 GHz nominal TSC.
    assert exit_ - enter == pytest.approx(1.8e9, rel=1e-6)


def test_negative_hook_cost_rejected():
    with pytest.raises(ConfigError):
        HookCosts(enter_s=-1.0)


def test_sample_cost_scales_with_sensor_count():
    tracer = make_tracer(HookCosts(sample_base_s=1e-3, sample_per_sensor_s=1e-4))
    assert tracer.sample_cost(6) == pytest.approx(1e-3 + 6e-4)


def test_tracer_of_accepts_proc_or_context():
    m = make_machine()
    seen = {}

    def body(proc):
        seen["tracer"] = tracer_of(proc)
        yield Compute(0.01, 1.0)

    p = m.spawn(body, "node1", 0)
    m.run_to_completion([p])
    assert seen["tracer"] is None


def test_instrument_module_wraps_generator_functions():
    """Transparent auto-instrumentation of a workload module."""
    import types

    from repro.core.instrument import instrument_module

    mod = types.ModuleType("fake_workload")
    src = '''
from repro.simmachine.process import Compute

def phase_one(ctx):
    yield Compute(0.5, 1.0)

def phase_two(ctx):
    yield from phase_one(ctx)
    yield Compute(0.5, 0.5)

def _helper(ctx):
    yield Compute(0.1, 0.5)

def not_a_generator(x):
    return x + 1
'''
    exec(compile(src, "fake_workload.py", "exec"), mod.__dict__)
    wrapped = instrument_module(mod)
    assert sorted(wrapped) == ["phase_one", "phase_two"]
    assert mod.not_a_generator(1) == 2           # untouched
    assert not hasattr(mod._helper, "_tempest_symbol")  # private skipped
    # Re-running is a no-op (already instrumented).
    assert instrument_module(mod) == []

    # And the wrapped module records both functions, including the
    # intra-module call resolved through the module's globals.
    tracer = make_tracer()
    m = make_machine()

    def body(proc):
        proc.trace_context = tracer
        yield from mod.phase_two(proc)

    p = m.spawn(body, "node1", 0)
    m.run_to_completion([p])
    names = [tracer.symtab.name_of(a)
             for a in tracer.trace.columns.array["addr"].tolist()]
    assert names == ["phase_two", "phase_one", "phase_one", "phase_two"]
