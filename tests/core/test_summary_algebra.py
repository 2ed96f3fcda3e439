"""The mergeable-summary algebra: merge laws, split closure, and
serialization round-trips at every layer (estimator, node, run,
finished profile).

The contract under test (documented in ``repro.core.summary`` and
``docs/INTERNALS.md``): ``merge`` is associative and commutative with
an empty identity; merging the summaries of any chunked split of a
stream equals the whole-stream summary — counts, calls, arcs, spans,
``min``/``max``/``med``/``mod`` exactly, Welford moments up to
summation-order rounding; and the serialized form merges identically to
the in-process one.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core.streamprof import OnlineStats
from repro.core.summary import SUMMARY_FORMAT, NodeSummary, RunSummary
from repro.core.trace import NodeTrace, REC_ENTER, REC_EXIT
from repro.util.errors import TraceError

from tests.core.oracle import compute_sensor_stats
from tests.core.test_streamprof import (
    make_acc,
    quantized_samples,
    synth_trace,
)

_INTERNALS = Path(__file__).resolve().parents[2] / "docs" / "INTERNALS.md"


# ----------------------------------------------------------------------
# Helpers

def stats_of(values) -> OnlineStats:
    st = OnlineStats()
    st.push_many(np.asarray(values, dtype=np.float64))
    return st


def merged(*parts) -> OnlineStats:
    out = OnlineStats()
    for p in parts:
        out.merge(p)
    return out


def assert_estimators_close(a, b, *, exact):
    """Same-multiset estimators: exact fields bit-equal to each other and
    to *exact* (the batch statistics of the underlying samples), moments
    to summation rounding."""
    for st in (a, b):
        assert (st.n, st.min, st.max, st.med, st.mod) == (
            exact.n, exact.min, exact.max, exact.med, exact.mod)
    assert a.avg == pytest.approx(b.avg, rel=1e-9)
    assert a.var == pytest.approx(b.var, rel=1e-9, abs=1e-12)


def assert_node_profiles_close(a, b):
    """The split-closure contract at the profile layer: counts, arcs,
    span, and the exact estimator fields bit-equal; times to summation
    rounding."""
    assert a.node_name == b.node_name
    assert a.duration_s == pytest.approx(b.duration_s, rel=1e-9)
    assert set(a.functions) == set(b.functions)
    assert dict(a.timeline.arcs) == dict(b.timeline.arcs)
    assert a.timeline.span[0] == pytest.approx(b.timeline.span[0], rel=1e-9)
    assert a.timeline.span[1] == pytest.approx(b.timeline.span[1], rel=1e-9)
    for name, fa in a.functions.items():
        fb = b.functions[name]
        assert fa.n_calls == fb.n_calls
        assert fa.significant == fb.significant
        assert fa.n_samples == fb.n_samples
        assert fa.total_time_s == pytest.approx(fb.total_time_s, rel=1e-9)
        assert fa.exclusive_time_s == pytest.approx(fb.exclusive_time_s,
                                                    rel=1e-9)
        assert fa.coverage == pytest.approx(fb.coverage, rel=1e-9)
        assert set(fa.sensor_stats) == set(fb.sensor_stats)
        for sensor, sa in fa.sensor_stats.items():
            _assert_sensor_stats_close(sa, fb.sensor_stats[sensor])
    assert set(a.sensor_summary) == set(b.sensor_summary)
    for sensor, sa in a.sensor_summary.items():
        _assert_sensor_stats_close(sa, b.sensor_summary[sensor])


def _assert_sensor_stats_close(sa, sb):
    assert (sa.n, sa.min, sa.max, sa.med, sa.mod) == (
        sb.n, sb.min, sb.max, sb.med, sb.mod)
    assert sa.avg == pytest.approx(sb.avg, rel=1e-9)
    assert sa.var == pytest.approx(sb.var, rel=1e-9, abs=1e-12)


def empty_stack_cuts(arr, n_cuts, seed=0):
    """Record indices where every process stack is empty — the split
    points the closure contract names.  The synth traces complete each
    ENTER/ENTER/EXIT/EXIT quad before starting the next, so a global
    depth counter finds them."""
    depth = 0
    boundaries = []
    kinds = arr["kind"].tolist()
    for i, kind in enumerate(kinds):
        if kind == REC_ENTER:
            depth += 1
        elif kind == REC_EXIT:
            depth -= 1
        if depth == 0:
            boundaries.append(i + 1)
    inner = [b for b in boundaries if 0 < b < len(kinds)]
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(inner), size=n_cuts, replace=False)
    return sorted(inner[int(i)] for i in picks)


def split_summaries(trace, symtab, cuts):
    """One finalized NodeSummary per [cut, next_cut) segment."""
    arr = trace.columns.array
    edges = [0] + list(cuts) + [len(arr)]
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        acc = make_acc(trace, symtab)
        acc.consume(arr[lo:hi])
        parts.append(acc.summary(final=True))
    return parts


# ----------------------------------------------------------------------
# OnlineStats: identity, commutativity, associativity

def test_empty_is_two_sided_identity():
    samples = quantized_samples(300)
    base = stats_of(samples)
    left = merged(OnlineStats(), base)
    right = base.clone()
    right.merge(OnlineStats())
    assert left.to_state() == base.to_state()
    assert right.to_state() == base.to_state()
    both = merged(OnlineStats(), OnlineStats())
    assert both.to_state() == {"n": 0}


@pytest.mark.parametrize("na,nb", [(1, 1), (3, 1), (2, 7), (40, 600),
                                   (500, 500)])
def test_merge_is_commutative(na, nb):
    a = quantized_samples(na, seed=5)
    b = quantized_samples(nb, seed=6)
    ab = merged(stats_of(a), stats_of(b))
    ba = merged(stats_of(b), stats_of(a))
    exact = compute_sensor_stats(np.concatenate([a, b]))
    assert_estimators_close(ab, ba, exact=exact)


@pytest.mark.parametrize("sizes", [(1, 2, 3), (4, 4, 4), (100, 7, 900),
                                   (250, 250, 250)])
def test_merge_is_associative(sizes):
    chunks = [quantized_samples(n, seed=20 + i)
              for i, n in enumerate(sizes)]
    a, b, c = (stats_of(ch) for ch in chunks)
    left = merged(merged(a.clone(), b.clone()), c.clone())
    right = merged(a.clone(), merged(b.clone(), c.clone()))
    exact = compute_sensor_stats(np.concatenate(chunks))
    assert_estimators_close(left, right, exact=exact)


def test_merge_leaves_operands_untouched():
    a, b = stats_of(quantized_samples(50)), stats_of(quantized_samples(60,
                                                                       seed=8))
    before_a, before_b = a.to_state(), json.loads(json.dumps(b.to_state()))
    out = a.clone()
    out.merge(b)
    assert a.to_state() == before_a
    assert b.to_state() == before_b


def test_raw_sample_merges_stay_exact_below_five():
    a = stats_of([41.0, 43.5])
    b = stats_of([40.5, 44.0])
    m = merged(a, b)
    exact = compute_sensor_stats(np.array([41.0, 43.5, 40.5, 44.0]))
    assert m.med == exact.med


@pytest.mark.parametrize("n_chunks", [2, 5, 16, 64])
def test_chunked_split_equals_whole_stream(n_chunks):
    samples = quantized_samples(4000, seed=13)
    whole = stats_of(samples)
    parts = [stats_of(ch) for ch in np.array_split(samples, n_chunks)]
    folded = merged(*parts)
    exact = compute_sensor_stats(samples)
    assert_estimators_close(folded, whole, exact=exact)


def _fold_in_random_order(parts, rng) -> OnlineStats:
    """One estimator per part, each fed by push, push_many or a mix,
    some sent through a state round trip, then merged in random order
    and grouping."""
    pending = []
    for part in parts:
        st = OnlineStats()
        how = int(rng.integers(3))
        if how == 0:
            for v in part.tolist():
                st.push(v)
        elif how == 1:
            st.push_many(part)
        else:
            cut = int(rng.integers(len(part) + 1))
            st.push_many(part[:cut])
            for v in part[cut:].tolist():
                st.push(v)
        if rng.random() < 0.5:
            st = OnlineStats.from_state(
                json.loads(json.dumps(st.to_state())))
        pending.append(st)
    while len(pending) > 1:
        i, j = rng.choice(len(pending), size=2, replace=False)
        pending[i].merge(pending[j])
        pending.pop(j)
    return pending[0]


@pytest.mark.parametrize("seed", range(8))
def test_median_is_exact_in_every_merge_order(seed):
    """The median read off the bins is ``np.median`` of everything
    folded in, bit-for-bit, however the readings were split, fed and
    merged."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 400))
        step = float(rng.choice([0.125, 0.25, 0.5, 1.0]))
        values = np.round(rng.normal(55.0, 6.0, size=n) / step) * step
        n_parts = int(rng.integers(1, 9))
        cuts = np.sort(rng.integers(0, n + 1, size=n_parts - 1))
        parts = np.split(values, cuts)
        folded = _fold_in_random_order(parts, rng)
        back = OnlineStats.from_state(json.loads(json.dumps(
            folded.to_state())))
        want = float(np.median(values))
        assert folded.med == want
        assert back.med == want
        assert folded.n == n


# ----------------------------------------------------------------------
# Serialization round-trips

def test_state_roundtrip_is_bit_exact():
    for n in (0, 1, 4, 5, 300):
        st = stats_of(quantized_samples(n, seed=n + 1))
        state = st.to_state()
        wire = json.loads(json.dumps(state))
        back = OnlineStats.from_state(wire)
        assert back.to_state() == state
        # A deserialized estimator merges identically to the original.
        other = stats_of(quantized_samples(37, seed=99))
        assert merged(back, other).to_state() == \
            merged(st, other).to_state()


def test_legacy_v2_markers_are_ignored_and_median_is_exact():
    """A ``tempest-summary-v2`` document still carries the retired
    ``q``/``pos`` median markers in every estimator state; it loads, and
    its median comes out exact because the bins hold every reading."""
    trace, symtab = synth_trace(n_quads=300, seed=37)
    acc = make_acc(trace, symtab)
    acc.consume(trace.columns.array)
    run = RunSummary(nodes={"node1": acc.summary(final=True)},
                     sampling_hz=4.0, meta={})
    doc = json.loads(json.dumps(run.to_dict()))
    doc["format"] = "tempest-summary-v2"
    node = doc["nodes"]["node1"]
    states = [st for per in node["stats"].values() for st in per.values()]
    states += list(node["sensor_summary"].values())
    for state in states:
        if state["n"]:
            # Deliberately wrong markers: only an ignoring reader passes.
            state["q"] = [0.0, 1.0, 2.0, 3.0, 4.0]
            state["pos"] = [1, 2, 3, 4, state["n"]]
    back = RunSummary.from_dict(doc)
    assert back.to_dict() == run.to_dict()
    for state in states:
        if state["n"]:
            readings = np.repeat(state["bin_values"], state["bin_counts"])
            assert OnlineStats.from_state(state).med == \
                float(np.median(readings))


@pytest.mark.parametrize("mutate", [
    lambda st: st.pop("bin_values"),
    lambda st: st.pop("bin_counts"),
    lambda st: st.update(bin_counts=st["bin_counts"][:-1]),
    lambda st: st.update(bin_counts=[c + 1 for c in st["bin_counts"]]),
    lambda st: st.update(bin_values="garbage"),
], ids=["no-values", "no-counts", "short-counts", "counts-exceed-n",
        "values-not-a-list"])
def test_malformed_state_is_a_trace_error(mutate):
    """Bins that are missing or do not account for all ``n`` readings
    would make the median wrong; the reader refuses them with the typed
    error the CLI maps to exit 2."""
    state = stats_of(quantized_samples(50)).to_state()
    mutate(state)
    with pytest.raises(TraceError, match="malformed estimator state"):
        OnlineStats.from_state(state)
    doc = {"format": SUMMARY_FORMAT, "sampling_hz": 4.0, "nodes": {
        "node1": {"node": "node1", "sensor_names": ["S0"],
                  "sensor_summary": {"S0": state}}}}
    with pytest.raises(TraceError):
        RunSummary.from_dict(doc)


def test_empty_state_is_minimal():
    assert OnlineStats().to_state() == {"n": 0}
    assert OnlineStats.from_state({"n": 0}).n == 0


def test_run_summary_roundtrip_is_bit_exact():
    trace, symtab = synth_trace(n_quads=120, seed=31)
    acc = make_acc(trace, symtab)
    acc.consume(trace.columns.array)
    run = RunSummary(nodes={"node1": acc.summary(final=True)},
                     sampling_hz=4.0, meta={"label": "algebra"})
    doc = run.to_dict()
    assert doc["format"] == SUMMARY_FORMAT
    back = RunSummary.from_dict(json.loads(json.dumps(doc)))
    assert back.to_dict() == doc


def test_from_dict_rejects_wrong_format():
    with pytest.raises(TraceError):
        RunSummary.from_dict({"format": "tempest-summary-v0", "nodes": {}})


# ----------------------------------------------------------------------
# NodeSummary / RunSummary: split closure on real traces

def test_split_summaries_merge_to_whole_stream_profile():
    trace, symtab = synth_trace(n_quads=400, seed=11)
    whole_acc = make_acc(trace, symtab)
    whole_acc.consume(trace.columns.array)
    whole = whole_acc.summary(final=True)

    cuts = empty_stack_cuts(trace.columns.array, n_cuts=3, seed=2)
    parts = split_summaries(trace, symtab, cuts)
    folded = NodeSummary.empty("node1", list(trace.sensor_names))
    for part in parts:
        folded.merge(part)

    assert folded.n_records == whole.n_records
    assert folded.calls == whole.calls
    assert folded.arcs == whole.arcs
    assert folded.span is not None and whole.span is not None
    assert folded.span[0] == whole.span[0]
    assert folded.span[1] == whole.span[1]
    assert_node_profiles_close(
        folded.to_node_profile(sampling_hz=4.0),
        whole.to_node_profile(sampling_hz=4.0),
    )


def test_split_merge_is_order_independent():
    trace, symtab = synth_trace(n_quads=200, seed=23)
    cuts = empty_stack_cuts(trace.columns.array, n_cuts=2, seed=5)
    parts = split_summaries(trace, symtab, cuts)
    forward = NodeSummary.empty("node1", list(trace.sensor_names))
    for part in parts:
        forward.merge(part)
    backward = NodeSummary.empty("node1", list(trace.sensor_names))
    for part in reversed(parts):
        backward.merge(part)
    assert_node_profiles_close(
        forward.to_node_profile(sampling_hz=4.0),
        backward.to_node_profile(sampling_hz=4.0),
    )


def test_node_summary_merge_rejects_mismatches():
    a = NodeSummary.empty("node1", ["S0"])
    with pytest.raises(TraceError):
        a.merge(NodeSummary.empty("node2", ["S0"]))
    with pytest.raises(TraceError):
        a.merge(NodeSummary.empty("node1", ["S0", "S1"]))


def test_run_summary_merges_node_wise_with_empty_identity():
    trace1, symtab1 = synth_trace(n_quads=80, seed=41)
    trace2, symtab2 = synth_trace(
        n_quads=80, seed=42, trace=NodeTrace("node2", 1e9, ["S0", "S1"]))
    summaries = {}
    for trace, symtab in ((trace1, symtab1), (trace2, symtab2)):
        acc = make_acc(trace, symtab)
        acc.consume(trace.columns.array)
        summaries[trace.node_name] = acc.summary(final=True)

    a = RunSummary(nodes={"node1": summaries["node1"].clone()},
                   sampling_hz=4.0)
    b = RunSummary(nodes={"node2": summaries["node2"].clone()},
                   sampling_hz=4.0)
    identity = RunSummary.empty()
    identity.merge(a)
    identity.merge(b)
    assert sorted(identity.nodes) == ["node1", "node2"]
    assert identity.sampling_hz == 4.0
    assert identity.n_records == a.n_records + b.n_records
    # Disjoint node sets: merging is a union, so either order gives the
    # same serialized document (to_dict sorts node names).
    other = RunSummary.empty()
    other.merge(b)
    other.merge(a)
    assert other.to_dict() == identity.to_dict()


def test_run_summary_rejects_sampling_rate_conflict():
    a = RunSummary(sampling_hz=4.0)
    with pytest.raises(TraceError):
        a.merge(RunSummary(sampling_hz=8.0))


# ----------------------------------------------------------------------
# Documentation drift

def test_summary_state_keys_match_internals_doc():
    """The ``Stat state keys:`` line in INTERNALS.md must list exactly
    the keys a populated estimator serializes, in order."""
    text = _INTERNALS.read_text()
    match = re.search(r"^Stat state keys: (.+)$", text, re.MULTILINE)
    assert match, "INTERNALS.md lost its 'Stat state keys:' line"
    documented = re.findall(r"`(\w+)`", match.group(1))
    actual = list(stats_of(quantized_samples(10)).to_state())
    assert documented == actual


# ----------------------------------------------------------------------
# Summary v2: HCCT payloads ride the same algebra

def tree_summaries(trace, symtab, cuts, *, budget=0):
    """Like :func:`split_summaries`, but each accumulator builds a hot
    calling-context tree alongside the flat profile."""
    arr = trace.columns.array
    edges = [0] + list(cuts) + [len(arr)]
    parts = []
    for lo, hi in zip(edges, edges[1:]):
        acc = make_acc(trace, symtab, hcct_budget=budget)
        acc.consume(arr[lo:hi])
        parts.append(acc.summary(final=True))
    return parts


def test_v1_documents_still_accepted():
    """Fan-in peers that predate trees speak tempest-summary-v1; the
    reader accepts both wire tags (v1 is exactly v2 minus the hcct
    blocks)."""
    trace, symtab = synth_trace(n_quads=40, seed=61)
    acc = make_acc(trace, symtab)
    acc.consume(trace.columns.array)
    run = RunSummary(nodes={"node1": acc.summary(final=True)},
                     sampling_hz=4.0, meta={})
    doc = run.to_dict()
    assert all(node["hcct"] is None for node in doc["nodes"].values())
    doc["format"] = "tempest-summary-v1"
    back = RunSummary.from_dict(json.loads(json.dumps(doc)))
    assert back.nodes["node1"].context_tree is None


def test_tree_summary_roundtrip_is_bit_exact():
    trace, symtab = synth_trace(n_quads=120, seed=31)
    acc = make_acc(trace, symtab, hcct_budget=16)
    acc.consume(trace.columns.array)
    run = RunSummary(nodes={"node1": acc.summary(final=True)},
                     sampling_hz=4.0, meta={})
    doc = run.to_dict()
    assert doc["nodes"]["node1"]["hcct"] is not None
    back = RunSummary.from_dict(json.loads(json.dumps(doc)))
    assert back.to_dict() == doc
    assert (back.nodes["node1"].context_tree.to_comparable()
            == acc._tree.to_comparable())


def test_split_tree_summaries_merge_to_whole():
    """Segment summaries with exact CCTs merge to the whole-stream tree
    (the closure contract extended to the hcct payload)."""
    from tests.core.test_cct import assert_trees_match

    trace, symtab = synth_trace(n_quads=160, seed=77)
    cuts = empty_stack_cuts(trace.columns.array, n_cuts=3, seed=7)
    parts = tree_summaries(trace, symtab, cuts)
    folded = NodeSummary.empty("node1", list(trace.sensor_names))
    for part in parts:
        folded.merge(part)
    whole = make_acc(trace, symtab, hcct_budget=0)
    whole.consume(trace.columns.array)
    ref = whole.summary(final=True)
    assert folded.context_tree is not None
    assert_trees_match(folded.context_tree, ref.context_tree,
                       ctx="split-merge")
    assert_node_profiles_close(
        folded.to_node_profile(sampling_hz=4.0),
        ref.to_node_profile(sampling_hz=4.0),
    )


def test_tree_merge_clones_on_first_and_respects_budget():
    """Folding a tree-carrying summary into a bare one deep-copies the
    tree (operand isolation), and budgeted merges stay within budget."""
    trace, symtab = synth_trace(n_quads=100, seed=19)
    cuts = empty_stack_cuts(trace.columns.array, n_cuts=1, seed=3)
    a, b = tree_summaries(trace, symtab, cuts, budget=8)
    bare = NodeSummary.empty("node1", list(trace.sensor_names))
    bare.merge(a)
    assert bare.context_tree is not a.context_tree
    assert (bare.context_tree.to_comparable()
            == a.context_tree.to_comparable())
    bare.merge(b)
    assert len(bare.context_tree) <= 8
    assert bare.context_tree.validate() == []
    # operands untouched by the merge
    assert len(a.context_tree) <= 8 and len(b.context_tree) <= 8


def test_to_profile_carries_tree():
    trace, symtab = synth_trace(n_quads=50, seed=23)
    acc = make_acc(trace, symtab, hcct_budget=0)
    acc.consume(trace.columns.array)
    run = RunSummary(nodes={"node1": acc.summary(final=True)},
                     sampling_hz=4.0, meta={})
    prof = run.to_profile()
    tree = prof.node("node1").context_tree
    assert tree is not None and len(tree) > 0
    assert prof.context_tree() is not None
