"""Seeded adversarial trace generator for the streaming differential
harness.

:func:`generate_trace` builds a globally time-ordered trace that walks
the streaming accumulator through every structural edge the segment
reduction and its repair pre-pass have to get right: interleaved processes, deep and
recursive nesting, zero-length spans (ENTER and EXIT on the same tick),
sensor sweeps tied to event timestamps (the closed-interval boundary
cases), trailing open frames, and — with ``adversarial=True`` —
unbalanced stacks (empty-stack EXITs, crossed EXITs that force the
lenient unwind), unknown record kinds, and fault-plan record
loss/corruption.  Everything is driven by one ``default_rng(seed)``, so
a failing seed reproduces exactly.
"""

import numpy as np

from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace, REC_ENTER, REC_EXIT, REC_TEMP
from repro.faults import FaultConfig, FaultPlan, LossyNodeTrace

TSC_HZ = 1e9

#: a kind byte no engine knows; both must skip it untouched
UNKNOWN_KIND = 9


def generate_trace(seed, *, n_events=900, n_pids=3, n_funcs=10,
                   n_sensors=2, adversarial=False, corrupt=False):
    """One seeded (trace, symtab) pair.

    ``adversarial`` adds unbalanced EXITs, unknown record kinds and
    fault-plan record *loss* — all of which keep the emitted timestamps
    globally non-decreasing, so no chunk can hold late records.
    ``corrupt`` additionally enables fault-plan record corruption, whose
    forward TSC jitter breaks global monotonicity: a jittered record
    raises its process's clock, records of other processes that later
    chunks hold arrive late, and only calls, exclusive time and arcs
    stay chunking-invariant; in one whole chunk the engine still
    matches the oracle.
    """
    rng = np.random.default_rng(seed)
    symtab = SymbolTable()
    addrs = [symtab.address_of(f"g{i}") for i in range(n_funcs)]
    names = {addr: f"g{i}" for i, addr in enumerate(addrs)}
    sensors = [f"S{i}" for i in range(n_sensors)]
    node = f"diff{seed}"
    if adversarial:
        plan = FaultPlan(
            FaultConfig(record_loss_rate=0.03,
                        record_corrupt_rate=0.03 if corrupt else 0.0),
            seed=seed, node_names=[node])
        trace = LossyNodeTrace(node, TSC_HZ, sensors, plan)
    else:
        trace = NodeTrace(node, TSC_HZ, sensors)
    stacks: dict[int, list[int]] = {pid: [] for pid in range(1, n_pids + 1)}
    tsc = 0
    for _ in range(n_events):
        pid = int(rng.integers(1, n_pids + 1))
        stack = stacks[pid]
        # ~15% of steps reuse the previous tick: equal timestamps produce
        # zero-length spans, touching unions, and attribution ties.
        if rng.random() >= 0.15:
            tsc += int(rng.integers(1, 50_000))
        r = rng.random()
        if r < 0.40 or not stack:
            addr = addrs[int(rng.integers(0, n_funcs))]
            trace.append_event(REC_ENTER, addr, tsc, pid % 2, pid)
            stack.append(addr)
            if rng.random() < 0.12:
                # Zero-length span: EXIT on the same tick.
                trace.append_event(REC_EXIT, addr, tsc, pid % 2, pid)
                stack.pop()
        elif r < 0.72:
            addr = stack.pop()
            trace.append_event(REC_EXIT, addr, tsc, pid % 2, pid)
        elif adversarial and r < 0.80:
            # Unbalanced EXIT: names a random function, which is either
            # crossed (lenient unwind), absent (full unwind), or hits an
            # empty stack — mirror the engines' lenient bookkeeping so
            # later matched EXITs stay coherent.
            addr = addrs[int(rng.integers(0, n_funcs))]
            trace.append_event(REC_EXIT, addr, tsc, pid % 2, pid)
            if addr in stack:
                while stack and stack[-1] != addr:
                    stack.pop()
                if stack:
                    stack.pop()
            else:
                stack.clear()
        elif adversarial and r < 0.84:
            trace.append_event(UNKNOWN_KIND, 0xDEAD, tsc, pid % 2, pid)
        else:
            # A tempd sweep; half the time on the tick of the last event
            # (already the case: tsc unchanged since the draw above).
            for s in range(n_sensors):
                value = float(np.round(rng.normal(50.0, 3.0) * 4.0) / 4.0)
                trace.append_event(REC_TEMP, s, tsc, 3, 999, value)
    # Some processes end with open frames: lenient finalize territory.
    for pid, stack in stacks.items():
        while stack and rng.random() < 0.6:
            tsc += int(rng.integers(1, 50_000))
            trace.append_event(REC_EXIT, stack.pop(), tsc, pid % 2, pid)
    # Every process that still holds open frames emits one last heartbeat
    # (a zero-length span) at the trace end.  This pins its lenient
    # close time at/after all mid-stream closes — the regime where the
    # online union is exactly the batch interval union.  A process
    # abandoned long before other processes' later same-function spans
    # is the documented streaming/batch divergence (the O(functions)
    # union cannot keep a hole open inside an active span), so the
    # harness pins the exact contract on everything up to that edge.
    # Heartbeats bypass the fault layer: a dropped or jittered heartbeat
    # would silently re-create the abandonment case the heartbeat exists
    # to exclude.
    tsc += int(rng.integers(1, 50_000))
    for pid, stack in stacks.items():
        if stack:
            addr = addrs[int(rng.integers(0, n_funcs))]
            NodeTrace.append_event(trace, REC_ENTER, addr, tsc, pid % 2, pid)
            NodeTrace.append_event(trace, REC_EXIT, addr, tsc, pid % 2, pid)
    assert names  # symtab stays alive with the trace
    return trace, symtab


def generate_deep_trace(seed, *, n_events=1200, n_pids=2, n_funcs=6,
                        n_sensors=1, max_depth=64):
    """A seeded trace biased toward deep and recursive call shapes.

    The default generator keeps stacks shallow (EXIT probability beats
    ENTER above a few frames), so calling-context trees stay wide and
    short.  This one is the HCCT adversary: long ENTER runs drive the
    stack toward ``max_depth``, a small function alphabet forces heavy
    direct and mutual recursion (the same function at many distinct
    depths — contexts that a flat profile collapses), and partial
    unwinds re-grow different subtrees from mid-stack prefixes.
    Timestamps stay globally non-decreasing, so every engine-equivalence
    contract applies unchanged.
    """
    rng = np.random.default_rng(seed)
    symtab = SymbolTable()
    addrs = [symtab.address_of(f"r{i}") for i in range(n_funcs)]
    sensors = [f"S{i}" for i in range(n_sensors)]
    trace = NodeTrace(f"deep{seed}", TSC_HZ, sensors)
    stacks: dict[int, list[int]] = {pid: [] for pid in range(1, n_pids + 1)}
    tsc = 0
    for _ in range(n_events):
        pid = int(rng.integers(1, n_pids + 1))
        stack = stacks[pid]
        if rng.random() >= 0.10:
            tsc += int(rng.integers(1, 20_000))
        r = rng.random()
        if (r < 0.62 and len(stack) < max_depth) or not stack:
            # Recursion-heavy descent: usually re-enter the current
            # function or its caller rather than a fresh one.
            if stack and rng.random() < 0.55:
                addr = stack[-1] if rng.random() < 0.6 else \
                    stack[int(rng.integers(0, len(stack)))]
            else:
                addr = addrs[int(rng.integers(0, n_funcs))]
            trace.append_event(REC_ENTER, addr, tsc, pid % 2, pid)
            stack.append(addr)
        elif r < 0.88:
            addr = stack.pop()
            trace.append_event(REC_EXIT, addr, tsc, pid % 2, pid)
        elif r < 0.94 and len(stack) > 2:
            # Partial unwind to a random prefix, then the next descent
            # grows a sibling subtree from that context.
            keep = int(rng.integers(1, len(stack) - 1))
            while len(stack) > keep:
                addr = stack.pop()
                trace.append_event(REC_EXIT, addr, tsc, pid % 2, pid)
        else:
            for s in range(n_sensors):
                value = float(np.round(rng.normal(50.0, 3.0) * 4.0) / 4.0)
                trace.append_event(REC_TEMP, s, tsc, 3, 999, value)
    # Unwind everything so the exact CCT is fully closed (no lenient
    # end-of-trace credit differences between comparisons).
    for pid, stack in stacks.items():
        while stack:
            tsc += int(rng.integers(1, 20_000))
            trace.append_event(REC_EXIT, stack.pop(), tsc, pid % 2, pid)
    return trace, symtab
