"""Differential harness: the vectorized streaming accumulator against
its two references.

Three-way check per seeded adversarial trace (see
:mod:`tests.core.difftrace`):

* vectorized streaming vs **forced-scalar** streaming — the exact
  contract: every field bit-equal except the Chan-merged moments
  (``avg``/``var``/``sdv``, 1e-9 relative);
* vectorized streaming vs the **batch** parser
  (``TempestParser.parse_node``) — the documented streaming-vs-batch
  tolerances (``assert_stream_matches_batch``);
* the TL018 cross-validation rule on fault-injected bundles — the
  lint-level restatement of the same contract must stay green.

Clean traces must additionally take zero scalar fallbacks (the fast
path covering them is the point of the vectorization), and the fallback
registry must stay in sync with docs/INTERNALS.md.
"""

from pathlib import Path

import pytest

from repro.check.tracelint import compare_profiles
from repro.core.profilemodel import RunProfile
from repro.core.streamprof import FALLBACK_REASONS
from tests.core.difftrace import generate_trace
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
    """The lint-level batch-vs-stream rule agrees with the harness."""
    trace, symtab = generate_trace(seed, adversarial=True)
    chunk = CHUNK_SIZES[seed % len(CHUNK_SIZES)]
    _, fast = stream(trace, symtab, chunk)
    batch = batch_profile(trace, symtab)
    wrap = lambda prof: RunProfile(nodes={prof.node_name: prof},
                                   sampling_hz=4.0, meta={})
    assert compare_profiles(wrap(batch), wrap(fast)) == []


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
