"""The profile engine: online estimators, chunk invariance, agreement
with the post-mortem oracle (tests/core/oracle.py), and live mid-run
profiling."""

import math

import numpy as np
import pytest

from repro.core import instrument
from repro.core.parser import TempestParser
from repro.core.records import RecordColumns
from repro.core.session import TempestSession
from repro.core.stats import SensorStats
from repro.core.streamprof import (
    OnlineStats,
    ProfileAccumulator,
    StreamingRunProfiler,
    stream_spool_profile,
)
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    TraceBundle,
)
from repro.faults import FaultConfig, FaultPlan, LossyNodeTrace
from repro.simmachine.machine import ClusterConfig, Machine
from repro.simmachine.power import ACTIVITY_BURN
from repro.simmachine.process import Compute, Sleep
from repro.util.errors import TraceError
from tests.core.oracle import compute_sensor_stats, oracle_profile

TSC_HZ = 1e9


# ----------------------------------------------------------------------
# OnlineStats vs the exact batch statistics

def quantized_samples(n, seed=7):
    rng = np.random.default_rng(seed)
    # Quantized like real thermal readings: multiples of 0.5 degC.
    return np.round(rng.normal(55.0, 4.0, size=n) * 2.0) / 2.0


@pytest.mark.parametrize("n", [1, 2, 4, 5, 6, 50, 5000])
def test_online_stats_matches_exact(n):
    values = quantized_samples(n)
    st = OnlineStats()
    st.push_many(values)
    exact = compute_sensor_stats(values)
    assert st.n == exact.n
    assert st.min == exact.min
    assert st.max == exact.max
    assert st.mod == exact.mod
    assert st.avg == pytest.approx(exact.avg, rel=1e-9)
    assert st.var == pytest.approx(exact.var, rel=1e-9, abs=1e-12)
    assert st.sdv == pytest.approx(exact.sdv, rel=1e-9, abs=1e-12)
    assert st.med == exact.med


def test_online_stats_empty():
    st = OnlineStats()
    assert st.n == 0
    assert math.isnan(st.avg) and math.isnan(st.med) and math.isnan(st.mod)


def test_from_accumulator_and_empty():
    st = OnlineStats()
    st.push_many([40.0, 41.0, 41.0])
    s = SensorStats.from_accumulator(st)
    assert (s.n, s.min, s.max, s.mod) == (3, 40.0, 41.0, 41.0)
    empty = SensorStats.from_accumulator(OnlineStats())
    assert empty == SensorStats.empty()
    assert empty.n == 0 and math.isnan(empty.avg)


def test_mode_tie_breaks_to_smaller_value():
    st = OnlineStats()
    st.push_many([41.0, 40.0, 41.0, 40.0])
    assert st.mod == 40.0  # same tie rule as compute_sensor_stats


def _adversarial_distributions():
    rng = np.random.default_rng(11)
    constant = np.full(400, 51.25)
    bimodal = np.where(rng.random(600) < 0.5, 40.0, 90.0)
    rng.shuffle(bimodal)
    # Huge common offset, tiny spread: the classic catastrophic-
    # cancellation case for naive sum-of-squares variance.
    offset = 1e9 + np.round(rng.normal(0.0, 0.25, size=500) * 4.0) / 4.0
    return {"constant": constant, "bimodal": bimodal, "offset-1e9": offset}


# What bulk merging can actually promise per distribution: moments are
# ~1e-12 relative on in-range data, but a 1e9 common offset costs ~1e-9
# of the variance to cancellation even under Welford/Chan (a naive
# sum-of-squares loses *everything*: eps·mean²/var ≈ 1e3 relative).
_MOMENT_REL = {"constant": 1e-12, "bimodal": 1e-9, "offset-1e9": 1e-6}


@pytest.mark.parametrize("name", sorted(_adversarial_distributions()))
def test_push_many_adversarial_distributions(name):
    """Bulk Chan/Welford merging survives the distributions that break
    naive accumulation: zero variance, two far modes, and a 1e9 offset."""
    values = _adversarial_distributions()[name]
    st = OnlineStats()
    # Ragged blocks, including k == 1 (the push() short-circuit).
    for lo, hi in zip([0, 1, 4, 50, 51], [1, 4, 50, 51, len(values)]):
        st.push_many(values[lo:hi])
    exact = compute_sensor_stats(values)
    assert (st.n, st.min, st.max, st.mod) == (
        exact.n, exact.min, exact.max, exact.mod)
    assert st.avg == pytest.approx(exact.avg, rel=1e-12)
    assert st.var == pytest.approx(exact.var, rel=_MOMENT_REL[name],
                                   abs=1e-12)
    assert st.med == exact.med
    if name == "constant":
        assert st.var == 0.0 and st.med == 51.25


@pytest.mark.parametrize("name", sorted(_adversarial_distributions()))
def test_push_many_bit_matches_elementwise_push(name):
    """One bulk fold per block must reproduce the per-element stream for
    every exact field, and the Chan-merged moments to ~1e-12."""
    values = _adversarial_distributions()[name]
    bulk, scalar = OnlineStats(), OnlineStats()
    for lo in range(0, len(values), 37):
        block = values[lo:lo + 37]
        bulk.push_many(block)
        for v in block.tolist():
            scalar.push(v)
    assert (bulk.n, bulk.min, bulk.max, bulk.mod, bulk.med) == (
        scalar.n, scalar.min, scalar.max, scalar.mod, scalar.med)
    assert bulk.avg == pytest.approx(scalar.avg, rel=1e-12)
    assert bulk.var == pytest.approx(scalar.var, rel=_MOMENT_REL[name],
                                     abs=1e-15)


# ----------------------------------------------------------------------
# Synthetic monotone node traces

def synth_trace(n_quads=400, n_pids=3, n_funcs=8, n_sensors=2, seed=11,
                trace=None):
    """A balanced multi-pid trace with nesting, recursion-ish repeats and
    touching spans; timestamps globally monotone."""
    rng = np.random.default_rng(seed)
    symtab = SymbolTable()
    addrs = [symtab.address_of(f"f{i}") for i in range(n_funcs)]
    sensors = [f"S{i}" for i in range(n_sensors)]
    if trace is None:
        trace = NodeTrace("node1", TSC_HZ, sensors)
    tsc = 0
    for q in range(n_quads):
        pid = int(rng.integers(1, n_pids + 1))
        outer, inner = (int(x) for x in rng.integers(0, n_funcs, size=2))
        for kind, addr in ((REC_ENTER, addrs[outer]),
                           (REC_ENTER, addrs[inner]),
                           (REC_EXIT, addrs[inner]),
                           (REC_EXIT, addrs[outer])):
            tsc += int(rng.integers(10_000, 80_000))
            trace.append_event(kind, addr, tsc, pid % 2, pid)
            if rng.random() < 0.08:
                # A sweep lands between function events (same or later tsc
                # exercises the boundary-tie attribution paths).
                t_tsc = tsc if rng.random() < 0.5 else tsc + 1_000
                for s in range(n_sensors):
                    trace.append_event(
                        REC_TEMP, s, t_tsc, 3, 999,
                        float(np.round(rng.normal(50, 3) * 4) / 4))
    return trace, symtab


def make_acc(trace, symtab, **kw):
    return ProfileAccumulator(
        trace.node_name, symtab, trace.seconds, trace.sensor_names,
        sampling_hz=4.0, **kw)


def profile_key(prof):
    """Everything observable about a NodeProfile, as comparable data."""
    fns = {}
    for name, fp in prof.functions.items():
        fns[name] = (
            fp.total_time_s, fp.exclusive_time_s, fp.n_calls,
            fp.significant, fp.n_samples, fp.coverage,
            {s: st for s, st in fp.sensor_stats.items()},
        )
    return (prof.node_name, prof.duration_s, fns,
            dict(prof.timeline.arcs), prof.timeline.span,
            prof.sensor_summary)


def _stats_exact(st):
    """The SensorStats fields that are bit-identical across chunkings."""
    return (st.n, st.min, st.max, st.med, st.mod)


def exact_profile_key(prof):
    """profile_key with the Chan-merged moments (avg/var/sdv) stripped —
    everything here must be *bit-equal* across chunk sizes."""
    fns = {}
    for name, fp in prof.functions.items():
        fns[name] = (
            fp.total_time_s, fp.exclusive_time_s, fp.n_calls,
            fp.significant, fp.n_samples, fp.coverage,
            {s: _stats_exact(st) for s, st in fp.sensor_stats.items()},
        )
    return (prof.node_name, prof.duration_s, fns,
            dict(prof.timeline.arcs), prof.timeline.span,
            {s: _stats_exact(st) for s, st in prof.sensor_summary.items()})


def _iter_stats_pairs(a, b):
    for name, fa in a.functions.items():
        fb = b.functions[name]
        for sensor, sa in fa.sensor_stats.items():
            yield sa, fb.sensor_stats[sensor]
    for sensor, sa in a.sensor_summary.items():
        yield sa, b.sensor_summary[sensor]


def assert_profiles_equivalent(a, b):
    """The chunking-invariance contract: every field bit-equal except the
    bulk-merged moments, which agree to 1e-9 relative (observed ~1e-15:
    one Chan fold per chunk vs per-sample Welford)."""
    assert exact_profile_key(a) == exact_profile_key(b)
    for sa, sb in _iter_stats_pairs(a, b):
        assert sa.avg == pytest.approx(sb.avg, rel=1e-9)
        assert sa.var == pytest.approx(sb.var, rel=1e-9, abs=1e-12)
        assert sa.sdv == pytest.approx(sb.sdv, rel=1e-9, abs=1e-12)


def assert_per_process_fields_equal(a, b):
    """Calls, exclusive time and arcs: the fields every process decides
    on its own, which no chunking can change (late records included)."""
    assert set(a.functions) == set(b.functions)
    for name, fa in a.functions.items():
        fb = b.functions[name]
        assert fa.n_calls == fb.n_calls, name
        assert fa.exclusive_time_s == pytest.approx(fb.exclusive_time_s,
                                                    rel=1e-12), name
    assert a.timeline.arcs == b.timeline.arcs


def stream_acc(trace, symtab, chunk_records, **kw):
    """(accumulator, final profile) after feeding *trace* in chunks."""
    acc = make_acc(trace, symtab, **kw)
    if chunk_records is None:
        acc.consume(trace.columns.array)
    else:
        for chunk in trace.iter_column_chunks(chunk_records):
            acc.consume(chunk)
    return acc, acc.finalize()


def stream_profile(trace, symtab, chunk_records, **kw):
    return stream_acc(trace, symtab, chunk_records, **kw)[1]


def batch_profile(trace, symtab, *, strict=False):
    """The post-mortem oracle's profile of one node trace."""
    return oracle_profile(trace, symtab, strict=strict)


# ----------------------------------------------------------------------
# Chunk-size invariance (the streaming property): identical profiles up
# to moment rounding (see assert_profiles_equivalent)

@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_chunk_size_invariance(chunk):
    trace, symtab = synth_trace()
    whole = stream_profile(trace, symtab, None)
    chunked = stream_profile(trace, symtab, chunk)
    assert_profiles_equivalent(chunked, whole)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
def test_chunk_size_invariance_lossy(chunk):
    """Damaged streams: the repairs are per-process, so calls, exclusive
    time and arcs are chunking-invariant whatever the damage.  Every
    field is, unless a forward-jittered record left later records of
    other processes behind an earlier chunk (``late-records``)."""
    plan = FaultPlan(
        FaultConfig(record_loss_rate=0.05, record_corrupt_rate=0.05),
        seed=3, node_names=["node1"])
    lossy = LossyNodeTrace("node1", TSC_HZ, ["S0", "S1"], plan)
    trace, symtab = synth_trace(trace=lossy)
    whole = stream_profile(trace, symtab, None)
    acc, chunked = stream_acc(trace, symtab, chunk)
    assert_per_process_fields_equal(chunked, whole)
    if "late-records" not in acc.fallbacks:
        assert_profiles_equivalent(chunked, whole)


@pytest.mark.parametrize("chunk", [2, 1021])
def test_chunk_size_invariance_adversarial_sizes(chunk):
    """Size 2 puts nearly every ENTER/EXIT pair astride a boundary; 1021
    (prime) walks the boundary through every phase of the quad pattern."""
    trace, symtab = synth_trace()
    whole = stream_profile(trace, symtab, None)
    chunked = stream_profile(trace, symtab, chunk)
    assert_profiles_equivalent(chunked, whole)


def test_chunk_split_exactly_on_enter_and_exit():
    """Splits landing exactly before/after an ENTER or EXIT record must
    not disturb the carry-over stack threading."""
    trace, symtab = synth_trace(n_quads=60, seed=9)
    arr = trace.columns.array
    whole = stream_profile(trace, symtab, None)
    enter_pos = np.nonzero(arr["kind"] == REC_ENTER)[0]
    exit_pos = np.nonzero(arr["kind"] == REC_EXIT)[0]
    for cut in (int(enter_pos[3]), int(enter_pos[3]) + 1,
                int(exit_pos[5]), int(exit_pos[5]) + 1):
        acc = make_acc(trace, symtab)
        acc.consume(arr[:cut])
        acc.consume(arr[cut:])
        assert_profiles_equivalent(acc.finalize(), whole)


def test_vectorized_takes_no_fallbacks_on_clean_trace():
    """A well-formed monotone trace must stay on the fast path for every
    chunk — a fallback here is a performance regression."""
    trace, symtab = synth_trace(n_quads=200, seed=17)
    acc = make_acc(trace, symtab)
    for chunk in trace.iter_column_chunks(257):
        acc.consume(chunk)
    acc.finalize()
    assert acc.fallbacks == {}



# ----------------------------------------------------------------------
# Streaming vs batch on monotone traces

def assert_stream_matches_batch(stream_prof, batch_prof):
    assert set(stream_prof.functions) == set(batch_prof.functions)
    assert stream_prof.duration_s == pytest.approx(batch_prof.duration_s,
                                                  rel=1e-12)
    for name, bf in batch_prof.functions.items():
        sf = stream_prof.functions[name]
        assert sf.n_calls == bf.n_calls
        assert sf.significant == bf.significant
        assert sf.n_samples == bf.n_samples
        assert sf.coverage == pytest.approx(bf.coverage, rel=1e-12)
        assert sf.total_time_s == pytest.approx(bf.total_time_s, rel=1e-12)
        assert sf.exclusive_time_s == pytest.approx(bf.exclusive_time_s,
                                                    rel=1e-12)
        assert set(sf.sensor_stats) == set(bf.sensor_stats)
        for sensor, bs in bf.sensor_stats.items():
            ss = sf.sensor_stats[sensor]
            assert ss.n == bs.n
            assert ss.min == bs.min
            assert ss.max == bs.max
            assert ss.mod == bs.mod
            assert ss.avg == pytest.approx(bs.avg, rel=1e-9)
            assert ss.var == pytest.approx(bs.var, rel=1e-9, abs=1e-12)
            assert ss.med == bs.med
    assert stream_prof.timeline.arcs == batch_prof.timeline.arcs


def test_streaming_matches_batch_on_monotone_trace():
    trace, symtab = synth_trace(n_quads=1500, seed=23)
    stream_prof = stream_profile(trace, symtab, 512)
    batch_prof = batch_profile(trace, symtab)
    assert_stream_matches_batch(stream_prof, batch_prof)


def test_streaming_matches_batch_exact_inclusive_sums():
    """On monotone streams the online union replays the batch span-merge
    summation order, so inclusive totals are bit-equal, not just close.
    (Exclusive time is only close: the vectorized batch builder sums
    per-pid segment vectors in a different order than the per-event
    stream.)"""
    trace, symtab = synth_trace(n_quads=800, seed=5)
    stream_prof = stream_profile(trace, symtab, 64)
    batch_prof = batch_profile(trace, symtab)
    for name, bf in batch_prof.functions.items():
        assert stream_prof.functions[name].total_time_s == bf.total_time_s
        assert stream_prof.functions[name].exclusive_time_s == \
            pytest.approx(bf.exclusive_time_s, rel=1e-12)


# ----------------------------------------------------------------------
# Lenient repair + strict errors, ported semantics

def mini_events(events, sensors=("S0",)):
    trace = NodeTrace("n", TSC_HZ, list(sensors))
    symtab = SymbolTable()
    for name, kind, tsc, pid in events:
        addr = symtab.address_of(name) if name else 0
        trace.append_event(kind, addr, tsc, 0, pid)
    return trace, symtab


def test_strict_exit_empty_stack():
    trace, symtab = mini_events([("f", REC_EXIT, 100, 1)])
    acc = make_acc(trace, symtab, strict=True)
    with pytest.raises(TraceError, match="EXIT 'f' with empty stack"):
        acc.consume(trace.columns.array)


def test_strict_exit_mismatch():
    trace, symtab = mini_events([
        ("a", REC_ENTER, 100, 1), ("b", REC_EXIT, 200, 1)])
    acc = make_acc(trace, symtab, strict=True)
    with pytest.raises(TraceError, match="EXIT 'b' but top of stack is 'a'"):
        acc.consume(trace.columns.array)


def test_strict_open_frames_at_finalize():
    trace, symtab = mini_events([("a", REC_ENTER, 100, 1)])
    acc = make_acc(trace, symtab, strict=True)
    acc.consume(trace.columns.array)
    with pytest.raises(TraceError, match="ended with open frames"):
        acc.finalize()


def test_lenient_repair_matches_batch_builder():
    """Mismatched EXITs unwind and open frames close at the last event —
    the streaming repair must produce the replay builder's numbers."""
    trace, symtab = mini_events([
        ("a", REC_ENTER, 0, 1),
        ("b", REC_ENTER, 1_000_000, 1),
        ("c", REC_ENTER, 2_000_000, 1),
        ("a", REC_EXIT, 3_000_000, 1),     # unwinds c and b
        ("d", REC_ENTER, 4_000_000, 1),    # left open at end of trace
        ("x", REC_ENTER, 5_000_000, 1),
        ("x", REC_EXIT, 6_000_000, 1),
    ])
    stream_prof = stream_profile(trace, symtab, 1, strict=False)
    batch_prof = batch_profile(trace, symtab)
    for name in batch_prof.functions:
        bf = batch_prof.functions[name]
        sf = stream_prof.functions[name]
        assert sf.total_time_s == bf.total_time_s, name
        assert sf.exclusive_time_s == bf.exclusive_time_s, name
        assert sf.n_calls == bf.n_calls, name


def test_abandoned_process_bridges_union_gaps():
    """The stated limit of lenient repair: pid 1 stops emitting with f
    open at t=2, so its frame closes only at finalize — after pid 2 has
    run f over [3, 4] and [6, 7].  The online union has no hole to keep
    [2, 3] and [4, 6] out: f reads 6 s where the post-mortem intervals
    give 3 s.  Calls and exclusive time are unaffected."""
    trace, symtab = mini_events([
        ("f", REC_ENTER, 1_000_000_000, 1),
        ("h", REC_ENTER, 2_000_000_000, 1),     # pid 1's last record
        ("f", REC_ENTER, 3_000_000_000, 2),
        ("f", REC_EXIT, 4_000_000_000, 2),
        ("f", REC_ENTER, 6_000_000_000, 2),
        ("f", REC_EXIT, 7_000_000_000, 2),
    ])
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    parsed = TempestParser(bundle, strict=False).parse() \
        .node("n").functions["f"]
    oracle = batch_profile(trace, symtab).functions["f"]
    assert oracle.total_time_s == pytest.approx(3.0)
    assert parsed.total_time_s == pytest.approx(6.0)
    assert (parsed.n_calls, parsed.exclusive_time_s) == \
        (oracle.n_calls, oracle.exclusive_time_s)


def test_negative_start_time_stays_on_fast_path():
    """A fresh accumulator has seen no time yet: a clean chunk whose
    converted timestamps start below zero (TSC calibration offsets do
    this) must not count as a time regression."""
    trace, symtab = mini_events([
        ("a", REC_ENTER, -90_000, 1),
        ("b", REC_ENTER, -50_000, 1),
        ("b", REC_EXIT, -10_000, 1),
        ("a", REC_EXIT, 20_000, 1),
    ])
    acc = make_acc(trace, symtab, strict=True)
    acc.consume(trace.columns.array)
    prof = acc.finalize()
    assert acc.fallbacks == {}
    assert prof.functions["a"].total_time_s == pytest.approx(110e-6)


# ----------------------------------------------------------------------
# Strict errors name the node

def test_strict_parse_names_the_regression():
    trace, symtab = mini_events([
        ("a", REC_ENTER, 1_000, 1), ("b", REC_ENTER, 50, 2),
        ("b", REC_EXIT, 60, 2), ("a", REC_EXIT, 400, 1)])
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    with pytest.raises(TraceError) as err:
        TempestParser(bundle).parse()
    assert str(err.value) == (
        "n: pid 1: timestamps regressed (4e-07 after 1e-06); "
        "was the process bound to one core?")


# ----------------------------------------------------------------------
# The pre-pass: time order, repairs, late records

def disordered_trace():
    """Every repair the pre-pass makes, plus cross-process disorder:
    pid 2's records reach the node ahead of pid 1's."""
    trace, symtab = mini_events([
        ("a", REC_ENTER, 1_000, 1),
        ("b", REC_ENTER, 2_000, 1),
        ("x", REC_ENTER, 5_000, 2),      # pid 2 ahead of pid 1
        ("x", REC_EXIT, 6_000, 2),
        ("c", REC_ENTER, 3_000, 1),
        ("c", REC_EXIT, 2_500, 1),       # regression: takes 3_000
        ("a", REC_EXIT, 4_000, 1),       # crossed: unwinds b
        ("z", REC_EXIT, 4_500, 1),       # empty stack: dropped
        ("y", REC_ENTER, 7_000, 2),
        ("q", REC_EXIT, 8_000, 2),       # matches nothing: unwinds y
        ("d", REC_ENTER, 9_000, 1),
        ("d", REC_EXIT, 9_500, 1),
    ])
    for tsc, value in ((2_200, 47.0), (3_000, 48.0), (5_500, 49.0),
                       (7_500, 50.0), (9_200, 51.0)):
        trace.append_event(REC_TEMP, 0, tsc, 3, 999, value)
    return trace, symtab


@pytest.mark.parametrize("chunk", [1, 3, None])
def test_read_only_input_is_never_written(chunk):
    """The pre-pass sorts, clamps and rewrites copies: a read-only chunk
    (the aggregator hands in views of decoded frames) is consumed
    without a write and profiles like a writable copy."""
    trace, symtab = disordered_trace()
    frozen = trace.columns.array.copy()
    frozen.setflags(write=False)
    before = frozen.tobytes()
    size = chunk or len(frozen)

    def feed(arr):
        acc = make_acc(trace, symtab)
        for lo in range(0, len(arr), size):
            acc.consume(arr[lo:lo + size])
        return acc, acc.finalize()

    acc, from_frozen = feed(frozen)
    _, from_copy = feed(frozen.copy())
    assert frozen.tobytes() == before
    assert profile_key(from_frozen) == profile_key(from_copy)
    if chunk is None:
        assert {"time-regression", "frame-mismatch"} <= set(acc.fallbacks)
        assert_stream_matches_batch(from_frozen,
                                    batch_profile(trace, symtab))


def test_record_a_whole_chunk_late_is_counted():
    """pid 2's calls reach the engine a chunk after pid 1's, all below
    the time pid 1 reached: counted as late, folded at their own time,
    and calls, exclusive time and arcs equal the whole-stream result."""
    early, symtab = mini_events([
        ("f", REC_ENTER, 1_000_000_000, 1),
        ("g", REC_ENTER, 2_000_000_000, 1),
        ("g", REC_EXIT, 3_000_000_000, 1),
        ("f", REC_EXIT, 4_000_000_000, 1),
    ])
    for tsc in (1_200_000_000, 2_200_000_000, 3_200_000_000):
        early.append_event(REC_TEMP, 0, tsc, 3, 999, 50.0)
    late = NodeTrace("n", TSC_HZ, ["S0"])
    for name, kind, tsc in (("f", REC_ENTER, 1_500_000_000),
                            ("h", REC_ENTER, 1_600_000_000),
                            ("h", REC_EXIT, 2_500_000_000),
                            ("f", REC_EXIT, 2_600_000_000)):
        late.append_event(kind, symtab.address_of(name), tsc, 0, 2)
    acc = make_acc(early, symtab, strict=True)
    acc.consume(early.columns.array)
    acc.consume(late.columns.array)
    chunked = acc.finalize()
    assert acc.fallbacks == {"late-records": 1}
    whole = np.concatenate((early.columns.array, late.columns.array))
    whole_acc = make_acc(early, symtab, strict=True)
    whole_acc.consume(whole)
    assert whole_acc.fallbacks == {}
    assert_per_process_fields_equal(chunked, whole_acc.finalize())
    assert chunked.functions["h"].total_time_s == pytest.approx(0.9)


def interleave(block, rng):
    """*block* with its processes' records randomly interleaved, each
    process's own order kept."""
    pids = block["pid"]
    owner = pids[rng.permutation(len(block))]
    out = np.empty_like(block)
    for pid in np.unique(pids).tolist():
        out[owner == pid] = block[pids == pid]
    return out


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("chunk", [1, 7, 64, None])
def test_local_disorder_within_a_chunk_equals_oracle(seed, chunk):
    """Per-process streams interleaved at random inside each chunk (the
    disorder a node sees between its processes' buffered writes):
    the engine puts every chunk back in time order, so the profile
    equals the oracle's on the time-sorted trace, with no late
    records and no repairs."""
    from tests.core.difftrace import generate_trace

    trace, symtab = generate_trace(seed)
    arr = trace.columns.array
    size = chunk or len(arr)
    rng = np.random.default_rng(seed)
    shuffled = np.concatenate([interleave(arr[lo:lo + size], rng)
                               for lo in range(0, len(arr), size)])
    if size > 1:
        assert (shuffled["tsc"][1:] < shuffled["tsc"][:-1]).any()
    acc = make_acc(trace, symtab)
    for lo in range(0, len(shuffled), size):
        acc.consume(shuffled[lo:lo + size])
    assert_stream_matches_batch(acc.finalize(), batch_profile(trace, symtab))
    assert acc.fallbacks == {}


def test_empty_trace_finalizes_empty():
    trace = NodeTrace("n", TSC_HZ, ["S0"])
    acc = make_acc(trace, SymbolTable())
    prof = acc.finalize()
    assert prof.functions == {}
    assert prof.duration_s == 0.0
    assert prof.sensor_summary["S0"].n == 0


def test_consume_after_finalize_rejected():
    trace, symtab = synth_trace(n_quads=5)
    acc = make_acc(trace, symtab)
    acc.finalize()
    with pytest.raises(TraceError, match="already finalized"):
        acc.consume(trace.columns.array)


def test_streaming_bad_sensor_index_raises():
    trace, symtab = mini_events([(None, REC_TEMP, 100, 999)], sensors=[])
    acc = make_acc(trace, symtab)
    with pytest.raises(TraceError, match="sensor index 0"):
        acc.consume(trace.columns.array)


def test_consume_samples_direct_feed():
    """A tempd sweep consumed as a chunk of its own, between a
    function's ENTER and EXIT chunks, attributes to the open frame."""
    trace, symtab = mini_events([
        ("f", REC_ENTER, 0, 1), ("f", REC_EXIT, 2_000_000_000, 1)])
    sweep = NodeTrace("n", TSC_HZ, ["S0"])
    for value in (48.0, 49.0):
        sweep.append_event(REC_TEMP, 0, 1_000_000_000, 3, 999, value)
    acc = make_acc(trace, symtab)
    arr = trace.columns.array
    acc.consume(arr[:1])
    acc.consume(sweep.columns.array)
    acc.consume(arr[1:])
    prof = acc.finalize()
    st = prof.functions["f"].sensor_stats["S0"]
    assert (st.n, st.min, st.max) == (2, 48.0, 49.0)


# ----------------------------------------------------------------------
# Snapshots: valid profiles mid-stream, accumulation undisturbed

def test_snapshot_is_nondestructive_and_progressive():
    trace, symtab = synth_trace(n_quads=300, seed=2)
    acc = make_acc(trace, symtab)
    arr = trace.columns.array
    half = len(arr) // 2
    acc.consume(arr[:half])
    snap1 = acc.snapshot()
    snap1b = acc.snapshot()
    assert profile_key(snap1) == profile_key(snap1b)
    acc.consume(arr[half:])
    final = acc.finalize()
    whole = stream_profile(trace, symtab, None)
    assert_profiles_equivalent(final, whole)
    # The mid-stream snapshot saw some, not all, of the calls.
    assert sum(f.n_calls for f in snap1.functions.values()) < \
        sum(f.n_calls for f in final.functions.values())


def test_snapshot_credits_open_frames():
    trace, symtab = mini_events([
        ("a", REC_ENTER, 0, 1),
        ("b", REC_ENTER, 1_000_000_000, 1),
        ("b", REC_EXIT, 2_000_000_000, 1),
    ])
    acc = make_acc(trace, symtab)
    acc.consume(trace.columns.array)
    snap = acc.snapshot()
    # 'a' is still open; the snapshot credits it up to the last event (2s).
    assert snap.functions["a"].total_time_s == pytest.approx(2.0)
    assert snap.functions["b"].total_time_s == pytest.approx(1.0)


# ----------------------------------------------------------------------
# Live profiling through the session

@instrument
def _hot(ctx):
    for _ in range(10):
        yield Compute(0.4, ACTIVITY_BURN)


@instrument
def _idle(ctx):
    yield Sleep(0.1)


@instrument(name="main")
def _workload(ctx):
    yield from _hot(ctx)
    yield from _idle(ctx)


def test_live_profile_mid_run_and_progress_callbacks():
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=3))
    seen = []

    def on_progress(profile, now):
        seen.append((now, profile))

    s = TempestSession(m, on_progress=on_progress, progress_interval_s=0.5)
    s.run_serial(_workload, "node1", 0)

    assert len(seen) >= 4          # ~4s workload, 0.5s cadence
    mid_now, mid_prof = seen[len(seen) // 2]
    assert 0.0 < mid_now < s.last_workload_end
    node = mid_prof.node("node1")
    assert "_hot" in node.functions            # mid-run: _hot already seen
    assert node.functions["_hot"].total_time_s > 0.0
    # Snapshots are monotone: later snapshots never lose inclusive time.
    totals = [p.node("node1").functions.get("_hot") for _, p in seen]
    times = [f.total_time_s for f in totals if f is not None]
    assert times == sorted(times)

    # After the run the live view covers the whole trace.
    final_live = s.live_profile()
    batch = s.profile(strict=False)
    lf = final_live.node("node1").functions["_hot"]
    bf = batch.node("node1").functions["_hot"]
    assert lf.n_calls == bf.n_calls
    assert lf.total_time_s == pytest.approx(bf.total_time_s, rel=1e-9)


def test_live_profile_constant_memory_spooled(tmp_path):
    """keep_in_memory=False traces live-profile off the spool tail."""
    from repro.core.instrument import NodeTracer
    from repro.core.spool import TraceSpool

    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=4))
    s = TempestSession(m, spool_dir=tmp_path)
    # Flip the session's tracers to constant-memory mode at attach time.
    orig_attach = s.attach

    def attach(node_name):
        tracer = orig_attach(node_name)
        trace = tracer.trace
        if hasattr(trace, "keep_in_memory"):
            trace.keep_in_memory = False
            trace.columns = RecordColumns()   # drop anything buffered
        return tracer

    s.attach = attach
    s.run_serial(_workload, "node1", 0)
    live = s.live_profile()
    node = live.node("node1")
    assert node.functions["_hot"].n_calls == 1
    assert node.functions["_hot"].total_time_s > 3.0
    # The in-memory columns really stayed empty.
    assert len(s.tracers["node1"].trace.columns) == 0


# ----------------------------------------------------------------------
# Spool-directory streaming

def test_stream_spool_profile_matches_batch(tmp_path):
    m = Machine(ClusterConfig(n_nodes=2, vary_nodes=False, seed=9))
    s = TempestSession(m, spool_dir=tmp_path)
    s.run_mpi(lambda ctx: _workload(ctx), 2)
    streamed = stream_spool_profile(tmp_path, chunk_records=333,
                                    strict=False)
    batch = TempestParser(TraceBundle.load(tmp_path), strict=False).parse()
    assert set(streamed.nodes) == set(batch.nodes)
    for name in batch.nodes:
        sn = streamed.node(name)
        bn = batch.node(name)
        assert set(sn.functions) == set(bn.functions)
        for fname, bf in bn.functions.items():
            sf = sn.functions[fname]
            assert sf.n_calls == bf.n_calls
            assert sf.total_time_s == pytest.approx(bf.total_time_s,
                                                    rel=1e-9)


def test_streaming_run_profiler_unknown_node():
    profiler = StreamingRunProfiler(SymbolTable())
    with pytest.raises(TraceError, match="no accumulator for node"):
        profiler.consume("ghost", np.empty(0))


@pytest.mark.parametrize("hz", [math.nan, math.inf, 0.0, -1.0])
def test_streaming_run_profiler_rejects_bad_tsc_hz(hz):
    profiler = StreamingRunProfiler(SymbolTable())
    with pytest.raises(TraceError, match="finite and positive"):
        profiler.add_node("n", hz, ["S0"])
    assert profiler.accumulators == {}


# ----------------------------------------------------------------------
# A sensor no sample of a significant function reached carries no stats

def uncovered_sensor_trace():
    """One long function; sensor S0 sampled inside it, S1 never sampled."""
    trace = NodeTrace("n", TSC_HZ, ["S0", "S1"])
    symtab = SymbolTable()
    f = symtab.address_of("f")
    trace.append_event(REC_ENTER, f, 0, 0, 1)
    trace.append_event(REC_TEMP, 0, 500_000_000, 3, 999, 46.0)
    trace.append_event(REC_EXIT, f, 1_000_000_000, 0, 1)
    return trace, symtab


@pytest.mark.parametrize("batch", [True, False])
def test_min_samples_default_suppresses_uncovered_sensor(batch):
    trace, symtab = uncovered_sensor_trace()
    prof = (batch_profile(trace, symtab) if batch
            else stream_profile(trace, symtab, 2))
    fp = prof.functions["f"]
    assert set(fp.sensor_stats) == {"S0"}        # unchanged default shape
