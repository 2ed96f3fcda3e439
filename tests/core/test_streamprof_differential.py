"""Differential harness: the profile engine against the post-mortem
oracle.

Per seeded adversarial trace (see :mod:`tests.core.difftrace`):

* engine vs the **post-mortem oracle**
  (:func:`tests.core.oracle.oracle_profile`) — every field exact except
  the moments and exclusive time (``assert_stream_matches_batch``);
* on corrupt seeds, whose forward TSC jitter leaves records of other
  processes behind an earlier chunk, the whole-trace engine matches the
  oracle, and any chunking keeps calls, exclusive time and arcs — and
  every field when no ``late-records`` occur;
* calling-context trees vs :func:`tests.core.oracle.oracle_tree` at the
  same chunk boundaries, budgeted ones included;
* the TL018 comparator on fault-injected bundles — the lint-level
  restatement of the same contract must stay green.

Clean traces must additionally take zero repairs, and the repair
registry must stay in sync with docs/INTERNALS.md.  A real NPB run
closes the loop: on BT class W the parser, the spool at several chunk
sizes and the live wire summary all take no repairs and match.
"""

from pathlib import Path

import pytest

from repro.check.tracelint import compare_profiles
from repro.cluster import CollectorClient, CollectorConfig, LoopbackHub
from repro.core import TempestSession, streamprof
from repro.core.parser import TempestParser
from repro.core.profilemodel import RunProfile
from repro.core.streamprof import (
    REPAIR_REASONS,
    ProfileAccumulator,
    stream_spool_profile,
)
from repro.core.report import dump_json
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    NodeTrace,
    TraceBundle,
)
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads.npb import bt
from tests.core.difftrace import generate_trace
from tests.core.oracle import oracle_profile, oracle_tree
from tests.rows import Row, to_array
from tests.core.test_streamprof import (
    TSC_HZ,
    assert_per_process_fields_equal,
    assert_profiles_equivalent,
    assert_stream_matches_batch,
    batch_profile,
    stream_acc,
)

SEEDS = range(24)
CHUNK_SIZES = (1, 7, 64, 1021)


@pytest.mark.parametrize("seed", SEEDS)
def test_differential_three_way(seed):
    # Every third seed is adversarial (unbalanced stacks, unknown kinds,
    # fault-plan record loss), and every other adversarial seed also
    # corrupts records (forward TSC jitter).  The chunk size cycles so
    # each shape meets several boundary granularities across the sweep.
    adversarial = seed % 3 == 2
    corrupt = adversarial and seed % 6 == 5
    chunk = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
    trace, symtab = generate_trace(seed, adversarial=adversarial,
                                   corrupt=corrupt)
    acc, fast = stream_acc(trace, symtab, chunk)
    if not corrupt:
        # Loss-only faults keep timestamps globally non-decreasing, so
        # no chunk can hold late records.
        assert "late-records" not in acc.fallbacks
        assert_stream_matches_batch(fast, batch_profile(trace, symtab))
    else:
        # A jittered record raises its process's clock past records of
        # other processes that later chunks still hold: those arrive
        # late.  In one chunk there is nothing to be late for.
        _, whole = stream_acc(trace, symtab, None)
        assert_stream_matches_batch(whole, batch_profile(trace, symtab))
        assert_per_process_fields_equal(fast, whole)
        if "late-records" not in acc.fallbacks:
            assert_profiles_equivalent(fast, whole)
    if not adversarial:
        assert acc.fallbacks == {}


@pytest.mark.parametrize("chunk", CHUNK_SIZES + (None,))
def test_differential_chunk_sweep_one_seed(chunk):
    """One fixed shape across every chunk size, including whole-trace."""
    trace, symtab = generate_trace(1234, adversarial=True)
    _, fast = stream_acc(trace, symtab, chunk)
    assert_stream_matches_batch(fast, batch_profile(trace, symtab))


@pytest.mark.parametrize("seed", [2, 5, 8])
def test_tl018_green_on_fault_injected_bundles(seed):
    """The lint-level TL018 comparator agrees with the harness."""
    trace, symtab = generate_trace(seed, adversarial=True)
    chunk = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
    _, fast = stream_acc(trace, symtab, chunk)
    batch = batch_profile(trace, symtab)
    wrap = lambda prof: RunProfile(nodes={prof.node_name: prof},
                                   sampling_hz=4.0, meta={})
    assert compare_profiles(wrap(batch), wrap(fast)) == []


@pytest.fixture(scope="module")
def bt_class_w(tmp_path_factory):
    """BT class W on 4 ranks, spooled: (collected bundle, spool dir)."""
    spools = tmp_path_factory.mktemp("bt_w") / "spools"
    session = TempestSession(Machine(ClusterConfig(n_nodes=4, seed=2007)),
                             spool_dir=spools)
    session.run_mpi(
        lambda ctx: bt.bt_benchmark(ctx, bt.BTConfig(klass="W",
                                                     iterations=200)), 4)
    return session.collect(), spools


def recording_accumulators(monkeypatch, module):
    """Every ProfileAccumulator *module* builds from now on."""
    accs = []

    class Recording(ProfileAccumulator):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            accs.append(self)

    monkeypatch.setattr(module, "ProfileAccumulator", Recording)
    return accs


def test_parser_on_bt_class_w_takes_no_fallbacks_and_matches_oracle(
        bt_class_w, monkeypatch):
    """BT class W on 4 ranks: every node's tsc column is out of order
    (tempd's sweeps land ahead of the rank's buffered records) and three
    nodes start at negative converted times.  The parser still keeps
    every chunk free of repairs and matches the oracle."""
    bundle, _ = bt_class_w
    accs = recording_accumulators(monkeypatch, streamprof)
    parsed = TempestParser(bundle).parse()
    assert len(accs) == 4
    assert [acc.fallbacks for acc in accs] == [{}] * 4
    for name, trace in bundle.nodes.items():
        arr = trace.columns.array
        assert (arr["tsc"][1:] < arr["tsc"][:-1]).any(), name
        assert_stream_matches_batch(
            parsed.node(name),
            oracle_profile(trace, bundle.symtab, strict=True))


def assert_run_profiles_equal(got: RunProfile, want: RunProfile):
    """Every field of every node, moments within 1e-9."""
    assert got.node_names() == want.node_names()
    for name in want.node_names():
        assert_profiles_equivalent(got.node(name), want.node(name))


@pytest.mark.parametrize("chunk_records", [512, 4096, None])
def test_spool_profile_equals_bundle_profile(bt_class_w, monkeypatch,
                                             chunk_records):
    """A spool holds each node's records in written order — tempd's
    sweeps ahead of a rank's buffered records — but every chunk is put
    in time order as it is consumed, and no record is a whole chunk
    late: the spool profiles exactly like the bundle saved from it,
    with no repairs."""
    _, spools = bt_class_w
    resident = TempestParser(TraceBundle.load(spools)).parse()
    accs = recording_accumulators(monkeypatch, streamprof)
    spooled = stream_spool_profile(spools, chunk_records=chunk_records,
                                   strict=True)
    assert len(accs) == 4
    assert [acc.fallbacks for acc in accs] == [{}] * 4
    assert_run_profiles_equal(spooled, resident)


def test_resident_bundle_profiles_a_chunk_late_record_as_its_directory(
        tmp_path, monkeypatch):
    """The reorder window is one chunk for a resident bundle too: pid
    2's call of g over a sample reaches the node two chunks after the
    sample, so it is folded at its own time, with ``late-records``, on
    the bundle exactly as on the directory saved from it."""
    symtab = SymbolTable()
    f, g = symtab.address_of("f"), symtab.address_of("g")
    sec = int(TSC_HZ)
    calls = [Row(kind, f, (2 * i + end) * sec, 0, 1)
             for i in range(STREAM_CHUNK_RECORDS)
             for kind, end in ((REC_ENTER, 0), (REC_EXIT, 1))]
    sample = Row(REC_TEMP, 0, 10 * sec + sec // 2, 3, 999, 50.0)
    late = [Row(REC_ENTER, g, 10 * sec + sec // 5, 1, 2),
            Row(REC_EXIT, g, 10 * sec + 4 * sec // 5, 1, 2)]
    trace = NodeTrace("n", TSC_HZ, ["S0"])
    trace.extend_columns(to_array(calls[:21] + [sample] + calls[21:] + late))
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    bundle.save(tmp_path / "late")
    accs = recording_accumulators(monkeypatch, streamprof)
    resident = TempestParser(bundle).parse()
    saved = stream_spool_profile(tmp_path / "late", strict=True)
    assert [acc.fallbacks for acc in accs] == [{"late-records": 1}] * 2
    assert dump_json(resident) == dump_json(saved)
    assert_run_profiles_equal(resident, saved)
    # the sample was folded before g's call arrived: g gets no credit
    assert resident.node("n").functions["g"].n_samples == 0


def test_live_wire_summary_equals_bundle_profile(bt_class_w, monkeypatch):
    """The same spools pushed over a live loopback in 4096-record
    frames: the aggregator's final summary renders the parser's
    profile of the saved bundle, with no repairs."""
    _, spools = bt_class_w
    resident = TempestParser(TraceBundle.load(spools)).parse()
    accs = recording_accumulators(monkeypatch, streamprof)
    hub = LoopbackHub(live=True)
    for name in resident.node_names():
        client = CollectorClient.from_spool_header(
            spools, name, hub.connect,
            config=CollectorConfig(chunk_records=4096))
        try:
            client.push_spool(spools / f"{name}.spool")
        finally:
            client.close()
    wired = hub.aggregator.run_summary(final=True).to_profile()
    assert len(accs) == 4
    assert [acc.fallbacks for acc in accs] == [{}] * 4
    assert_run_profiles_equal(wired, resident)


def test_repair_reasons_documented():
    """Drift test: every repair counter key must be explained in the
    INTERNALS streaming section."""
    doc = (Path(__file__).resolve().parents[2]
           / "docs" / "INTERNALS.md").read_text()
    for key in REPAIR_REASONS:
        assert f"`{key}`" in doc, (
            f"REPAIR_REASONS[{key!r}] is not documented in INTERNALS.md")


# --------------------------------------------------------------------- HCCT
# The tree-construction contract mirrors the flat one: the engine and
# the event-at-a-time oracle tree, pruned at the same chunk boundaries,
# make identical intern/evict decisions, so the trees agree
# path-for-path — structure, times, calls and error bounds equal,
# per-context moments within the same 1e-9 the flat profile allows for
# push vs push_many rounding.

from tests.core.difftrace import generate_deep_trace
from tests.core.test_cct import assert_trees_match


@pytest.mark.parametrize("seed", [0, 2, 5, 11])
@pytest.mark.parametrize("budget", [0, 8, 64])
def test_differential_tree_construction(seed, budget):
    adversarial = seed % 3 == 2
    chunk = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
    trace, symtab = generate_trace(seed, adversarial=adversarial)
    acc, prof = stream_acc(trace, symtab, chunk, hcct_budget=budget)
    ref = oracle_tree(trace, symtab, budget=budget, chunk_records=chunk)
    assert acc._tree is not None
    assert acc._tree.validate() == []
    assert ref.validate() == []
    assert_trees_match(acc._tree, ref, ctx=f"seed={seed} budget={budget}")
    assert_stream_matches_batch(prof, batch_profile(trace, symtab))


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("budget", [0, 48])
def test_differential_tree_deep_recursive(seed, budget):
    """Recursion-heavy CCTs (depth ~40): engine vs oracle tree."""
    trace, symtab = generate_deep_trace(seed)
    for chunk in (7, 1021):
        acc, _ = stream_acc(trace, symtab, chunk, hcct_budget=budget)
        assert acc._tree.validate() == []
        assert_trees_match(
            acc._tree,
            oracle_tree(trace, symtab, budget=budget, chunk_records=chunk),
            ctx=f"seed={seed} budget={budget} chunk={chunk}")


def test_tree_flat_projection_matches_profile():
    """At budget 0 (exact CCT) the tree's flat projection reproduces the
    flat profile's exclusive times and call counts exactly."""
    trace, symtab = generate_trace(4)
    acc, prof = stream_acc(trace, symtab, 64, hcct_budget=0)
    flat = acc._tree.flat_projection()
    for fp in prof.functions_by_time():
        excl, calls = flat[fp.name]
        assert calls == fp.n_calls
        assert abs(excl - fp.exclusive_time_s) <= 1e-9 * max(
            1.0, fp.exclusive_time_s)


def test_tree_chunking_invariance():
    """Same engine, different chunk sizes, unbounded budget: identical
    trees (eviction-free construction is chunking-independent)."""
    trace, symtab = generate_trace(7, adversarial=True)
    ref, _ = stream_acc(trace, symtab, 1021, hcct_budget=0)
    for chunk in (1, 64, None):
        acc, _ = stream_acc(trace, symtab, chunk, hcct_budget=0)
        assert_trees_match(acc._tree, ref._tree, ctx=f"chunk={chunk}")


# ------------------------------------------------------------ pairing
# The engine pairs every process's frames with one sort per chunk; the
# corner cases of that pairing, each against the oracle at every chunk
# size (the tree, too, where a chunk may hold no function record).

import numpy as np

from repro.core.streamprof import _narrow
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP, NodeTrace

PAIRING_CHUNKS = (1, 7, 64, None)
STEP = 50_000_000            # ticks between events: 0.05 s at 1 GHz


def event_trace(events, *, sweep_every=3):
    """A node trace of ``(kind, name, pid)`` events STEP ticks apart,
    with a two-sensor sweep after every *sweep_every* events."""
    trace = NodeTrace("node1", 1e9, ["S0", "S1"])
    symtab = SymbolTable()
    tsc = 0
    for i, (kind, name, pid) in enumerate(events, 1):
        tsc += STEP
        trace.append_event(kind, symtab.address_of(name), tsc, 0, pid)
        if i % sweep_every == 0:
            for s in range(2):
                trace.append_event(REC_TEMP, s, tsc + 1, 3, 999,
                                   40.0 + (i % 7) * 0.5 + s)
    return trace, symtab


def nest(pid, names):
    """ENTERs down *names*, then the EXITs back up."""
    return ([(REC_ENTER, n, pid) for n in names]
            + [(REC_EXIT, n, pid) for n in reversed(names)])


def assert_matches_oracle(trace, symtab, chunks=PAIRING_CHUNKS, **kw):
    """Every chunk size against the oracle; returns the accumulators."""
    want = batch_profile(trace, symtab)
    accs = {}
    for chunk in chunks:
        acc, got = stream_acc(trace, symtab, chunk, **kw)
        assert_stream_matches_batch(got, want)
        accs[chunk] = acc
    return accs


def interleave(*streams):
    """Round-robin merge of per-process event lists (stream order kept)."""
    out, streams = [], [list(s) for s in streams]
    while any(streams):
        for s in streams:
            if s:
                out.append(s.pop(0))
    return out


@pytest.mark.parametrize("lower, higher, reason", [
    ("unbalanced", "mismatched", "unbalanced-frames"),
    ("mismatched", "unbalanced", "frame-mismatch"),
    ("both", "clean", "unbalanced-frames"),
])
def test_lowest_failing_pid_names_the_repair(lower, higher, reason):
    """Two processes fail differently in one chunk: the lower pid's
    failure is the one counted, and unbalanced frames win over a
    mismatch within one pid."""
    def stream(pid, how):
        ok = nest(pid, ["main", "a", "b"])
        if how == "unbalanced":        # an EXIT with nothing open
            return [(REC_EXIT, "orphan", pid)] + ok
        if how == "mismatched":        # b closes as c
            return ok[:3] + [(REC_EXIT, "c", pid)] + ok[4:]
        if how == "both":
            return ([(REC_EXIT, "orphan", pid)] + ok[:3]
                    + [(REC_EXIT, "c", pid)] + ok[4:])
        return ok

    trace, symtab = event_trace(interleave(stream(3, lower),
                                           stream(8, higher)))
    accs = assert_matches_oracle(trace, symtab)
    # the whole trace fits one 64-record chunk
    assert accs[None].fallbacks == accs[64].fallbacks == {reason: 1}


def test_stacks_carried_across_every_chunk_boundary():
    """Three processes keep frames open from the first record to the
    last, at changing depths, so every chunk boundary carries stacks;
    a TEMP-only stretch makes chunks with no function record."""
    a = nest(1, ["main", "solve", "x", "y"]) * 3
    b = nest(2, ["main", "io"]) * 5
    c = nest(5, ["main", "solve", "x"]) * 4
    body = interleave(a, b, c)
    events = ([(REC_ENTER, "root", p) for p in (1, 2, 5)] + body
              + [(REC_EXIT, "root", p) for p in (1, 2, 5)])
    trace, symtab = event_trace(events, sweep_every=2)
    mid = len(trace.columns.array) // 2
    arr = trace.columns.array
    # a burst of sweeps mid-run, while every process has frames open
    burst = np.repeat(arr[mid - 1:mid], 20)
    burst["kind"] = REC_TEMP
    burst["addr"] = np.arange(20) % 2
    burst["value"] = 45.0 + np.arange(20) * 0.25
    burst["tsc"] = arr["tsc"][mid - 1] + 1 + np.arange(20)
    arr["tsc"][mid:] += 100
    whole = np.concatenate((arr[:mid], burst, arr[mid:]))
    trace = NodeTrace("node1", 1e9, ["S0", "S1"])
    trace.extend_columns(whole)
    assert_matches_oracle(trace, symtab)
    for chunk in PAIRING_CHUNKS:
        for budget in (0, 8):
            acc, _ = stream_acc(trace, symtab, chunk, hcct_budget=budget)
            assert_trees_match(
                acc._tree,
                oracle_tree(trace, symtab, budget=budget,
                            chunk_records=chunk),
                ctx=f"chunk={chunk} budget={budget}")


def test_deep_recursion_widens_the_pairing_key():
    """Three processes hold a frame open while a fourth recurses past
    8192 levels: the (process rank, depth) key no longer fits int16 and
    takes int32.  (Each chunk pairs every carried frame again, so the
    one-record chunking of this 16k-event trace is left out.)"""
    depth = 8300
    holders = [(REC_ENTER, "main", p) for p in (1, 2, 3)]
    deep = nest(4, ["main"] + ["rec"] * depth)
    events = (holders + deep
              + [(REC_EXIT, "main", p) for p in (1, 2, 3)])
    trace, symtab = event_trace(events, sweep_every=500)
    assert 4 * (depth + 1) > np.iinfo(np.int16).max
    assert _narrow(np.arange(3), 4 * (depth + 1) - 1).dtype == np.int32
    assert_matches_oracle(trace, symtab, chunks=(7, 64, None))


def test_sixty_four_processes_in_one_chunk():
    streams = [nest(p, ["main", f"f{p % 5}", f"g{p % 3}"]) * 2
               for p in range(1, 65)]
    trace, symtab = event_trace(interleave(*streams), sweep_every=16)
    assert_matches_oracle(trace, symtab)


def test_large_and_negative_pids():
    """pids spanning the whole int32 range group as well as small ones:
    the grouping key widens to int64."""
    pids = (-2**31, -7, 0, 2**31 - 1)
    streams = [nest(p, ["main", "work"]) * 3 for p in pids]
    trace, symtab = event_trace(interleave(*streams))
    assert_matches_oracle(trace, symtab)
