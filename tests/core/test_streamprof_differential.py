"""Differential harness: the vectorized profile engine against its two
references.

Three-way check per seeded adversarial trace (see
:mod:`tests.core.difftrace`):

* vectorized engine vs **forced-scalar** engine — the exact contract:
  every field bit-equal except the Chan-merged moments
  (``avg``/``var``/``sdv``, 1e-9 relative);
* vectorized engine vs the **post-mortem oracle**
  (:func:`tests.core.oracle.oracle_profile`) — every field exact except
  the moments and exclusive time (``assert_stream_matches_batch``);
* the TL018 comparator on fault-injected bundles — the lint-level
  restatement of the same contract must stay green.

Clean traces must additionally take zero scalar fallbacks (the fast
path covering them is the point of the vectorization), and the fallback
registry must stay in sync with docs/INTERNALS.md.  A real NPB run
closes the loop: the parser on BT class W takes no fallbacks and
matches the oracle on every node, and the same run pins how far a spool,
profiled in written order, departs from its time-sorted bundle.
"""

from pathlib import Path

import pytest

from repro.check.tracelint import compare_profiles
from repro.core import TempestSession
from repro.core import parser as parser_mod
from repro.core.parser import TempestParser
from repro.core.profilemodel import RunProfile
from repro.core.spool import spool_to_bundle
from repro.core.streamprof import (
    FALLBACK_REASONS,
    ProfileAccumulator,
    stream_spool_profile,
)
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads.npb import bt
from tests.core.difftrace import generate_trace
from tests.core.oracle import oracle_profile
from tests.core.test_streamprof import (
    assert_profiles_equivalent,
    assert_stream_matches_batch,
    batch_profile,
    make_acc,
)

SEEDS = range(24)
CHUNK_SIZES = (1, 7, 64, 1021)


def stream(trace, symtab, chunk_records, **kw):
    acc = make_acc(trace, symtab, **kw)
    arr = trace.columns.array
    if chunk_records is None:
        acc.consume(arr)
    else:
        for lo in range(0, len(arr), chunk_records):
            acc.consume(arr[lo:lo + chunk_records])
    return acc, acc.finalize()


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
    acc, fast = stream(trace, symtab, chunk)
    _, slow = stream(trace, symtab, chunk, vectorized=False)
    assert_profiles_equivalent(fast, slow)
    if not corrupt:
        # Loss-only faults keep timestamps globally non-decreasing — the
        # precondition of the stream-vs-batch contract.  Corrupt seeds
        # jitter TSCs forward, so their batch agreement is only
        # skew-bounded (documented divergence); for them the
        # vectorized==scalar and chunking-invariance checks above and
        # below are the binding ones.
        assert_stream_matches_batch(fast, batch_profile(trace, symtab))
    else:
        _, whole = stream(trace, symtab, None)
        assert_profiles_equivalent(fast, whole)
    if not adversarial:
        assert acc.fallbacks == {}


@pytest.mark.parametrize("chunk", CHUNK_SIZES + (None,))
def test_differential_chunk_sweep_one_seed(chunk):
    """One fixed shape across every chunk size, including whole-trace."""
    trace, symtab = generate_trace(1234, adversarial=True)
    _, fast = stream(trace, symtab, chunk)
    _, slow = stream(trace, symtab, chunk, vectorized=False)
    assert_profiles_equivalent(fast, slow)


@pytest.mark.parametrize("seed", [2, 5, 8])
def test_tl018_green_on_fault_injected_bundles(seed):
    """The lint-level TL018 comparator agrees with the harness."""
    trace, symtab = generate_trace(seed, adversarial=True)
    chunk = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
    _, fast = stream(trace, symtab, chunk)
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


def test_parser_on_bt_class_w_takes_no_fallbacks_and_matches_oracle(
        bt_class_w, monkeypatch):
    """BT class W on 4 ranks: every node's tsc column is out of order
    (tempd's sweeps land ahead of the rank's buffered records) and three
    nodes start at negative converted times.  The parser still keeps
    every chunk on the fast path and matches the oracle."""
    bundle, _ = bt_class_w
    accs = []

    class Recording(ProfileAccumulator):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            accs.append(self)

    monkeypatch.setattr(parser_mod, "ProfileAccumulator", Recording)
    parsed = TempestParser(bundle).parse()
    assert len(accs) == 4
    assert [acc.fallbacks for acc in accs] == [{}] * 4
    for name, trace in bundle.nodes.items():
        arr = trace.columns.array
        assert (arr["tsc"][1:] < arr["tsc"][:-1]).any(), name
        assert_stream_matches_batch(
            parsed.node(name),
            oracle_profile(trace, bundle.symtab, strict=True))


def test_spool_is_profiled_in_written_order(bt_class_w):
    """Limit, pinned: only a resident node is time-sorted; a spool is
    profiled in the order it was written.  On BT class W calls and times
    still agree exactly with the bundle saved from the spool (they are
    per-process), but a sweep that reached the spool ahead of a rank's
    buffered records is credited to the stack as it stood on arrival,
    so sample counts and sensor statistics move.  If this starts to
    fail, spools are time-ordered: update INTERNALS "Time order" and the
    `parse` help."""
    _, spools = bt_class_w
    spooled = stream_spool_profile(spools)
    resident = TempestParser(spool_to_bundle(spools)).parse()
    moved = 0
    for name in resident.node_names():
        for fn, want in resident.node(name).functions.items():
            got = spooled.node(name).function(fn)
            assert ((got.n_calls, got.total_time_s, got.exclusive_time_s)
                    == (want.n_calls, want.total_time_s,
                        want.exclusive_time_s)), (name, fn)
            moved += got.n_samples != want.n_samples
    assert moved > 0


def test_fallback_reasons_documented():
    """Drift test: every fallback counter key must be explained in the
    INTERNALS streaming section, and vice versa nothing undocumented."""
    doc = (Path(__file__).resolve().parents[2]
           / "docs" / "INTERNALS.md").read_text()
    for key in FALLBACK_REASONS:
        assert f"`{key}`" in doc, (
            f"FALLBACK_REASONS[{key!r}] is not documented in INTERNALS.md")


# --------------------------------------------------------------------- HCCT
# The tree-construction contract mirrors the flat one: with the same
# chunking, the vectorized and forced-scalar engines make identical
# intern/evict decisions (pruning happens only at chunk boundaries), so
# the resulting trees agree path-for-path — structure, times, calls and
# error bounds bit-equal, per-context moments within the same 1e-9 the
# flat profile allows for push vs push_many rounding.

from tests.core.difftrace import generate_deep_trace
from tests.core.test_cct import assert_trees_match


@pytest.mark.parametrize("seed", [0, 2, 5, 11])
@pytest.mark.parametrize("budget", [0, 8, 64])
def test_differential_tree_construction(seed, budget):
    adversarial = seed % 3 == 2
    chunk = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
    trace, symtab = generate_trace(seed, adversarial=adversarial)
    a_fast, fast = stream(trace, symtab, chunk, hcct_budget=budget)
    a_slow, slow = stream(trace, symtab, chunk, vectorized=False,
                          hcct_budget=budget)
    assert a_fast._tree is not None and a_slow._tree is not None
    assert a_fast._tree.validate() == []
    assert a_slow._tree.validate() == []
    assert_trees_match(a_fast._tree, a_slow._tree,
                       ctx=f"seed={seed} budget={budget}")
    assert_profiles_equivalent(fast, slow)


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("budget", [0, 48])
def test_differential_tree_deep_recursive(seed, budget):
    """Recursion-heavy CCTs (depth ~40) through both engines."""
    trace, symtab = generate_deep_trace(seed)
    for chunk in (7, 1021):
        a_fast, _ = stream(trace, symtab, chunk, hcct_budget=budget)
        a_slow, _ = stream(trace, symtab, chunk, vectorized=False,
                           hcct_budget=budget)
        assert a_fast._tree.validate() == []
        assert_trees_match(a_fast._tree, a_slow._tree,
                           ctx=f"seed={seed} budget={budget} chunk={chunk}")


def test_tree_flat_projection_matches_profile():
    """At budget 0 (exact CCT) the tree's flat projection reproduces the
    flat profile's exclusive times and call counts exactly."""
    trace, symtab = generate_trace(4)
    acc, prof = stream(trace, symtab, 64, hcct_budget=0)
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
    ref, _ = stream(trace, symtab, 1021, hcct_budget=0)
    for chunk in (1, 64, None):
        acc, _ = stream(trace, symtab, chunk, hcct_budget=0)
        assert_trees_match(acc._tree, ref._tree, ctx=f"chunk={chunk}")
