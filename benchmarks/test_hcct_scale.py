"""HCCT streaming at scale: budgeted trees against the exact CCT.

Generates a ~1M-record synthetic trace whose call quads draw functions
from a Zipf-like skew (a few hot calling contexts dominate, the long
tail starves — the regime the space-saving budget is built for) and
streams it through :class:`ProfileAccumulator` three ways:

* **baseline** — ``hcct_budget=None``: the flat profile only, the
  pre-tree fast path the perf gates of earlier PRs protect;
* **budgeted** — ``hcct_budget=1024`` with the skewed workload's exact
  CCT several times larger, so eviction pressure is real;
* **exact** — ``hcct_budget=0``: the unbounded CCT, the ground truth.

Gates asserted here (so CI fails if the tree machinery regresses):

* after every chunk the budgeted tree tracks at most ``budget`` live
  contexts (the space-saving invariant; pinned open-stack contexts are
  far below the budget for this shallow workload);
* the budgeted tree's top-10 hot paths are exactly the exact CCT's
  top-10, and each budgeted exclusive time brackets the true one within
  the advertised ``error_s`` bound;
* the exact tree re-derives the flat profile: its flat projection's
  call counts match the accumulator's per-function counts exactly
  (the budgeted tree's are a lower bound — evictions take counts);
* the budgeted run costs at most ``OVERHEAD_GATE_X`` times the flat
  one (``hcct_overhead_x``): the two run alternately ``REPEATS`` times
  and the ratio is taken between their medians, so it is a same-run
  ratio, not an absolute time.

Results land in ``BENCH_hcct.json`` at the repo root (plus a rendered
table in ``benchmarks/results/hcct_scale.txt``).  ``TEMPEST_BENCH_RECORDS``
and ``TEMPEST_BENCH_SEED`` override scale and draw as in the sibling
benchmarks; both are recorded in the result JSON.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.records import RECORD_DTYPE
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_hcct.json"

N_RECORDS = int(os.environ.get("TEMPEST_BENCH_RECORDS", "1000000"))
BENCH_SEED = int(os.environ.get("TEMPEST_BENCH_SEED", "2007"))
TSC_HZ = 1.8e9
BUDGET = 1024
CHUNK = 8192
#: flat/budgeted timing pairs; the gate compares the medians
REPEATS = 3
#: most the budgeted tree may cost, as a multiple of the flat profile
OVERHEAD_GATE_X = 1.75


def synthesize_skewed_columns(n_records: int, *, n_pids: int = 4,
                              n_funcs: int = 96, n_sensors: int = 2,
                              seed: int = BENCH_SEED):
    """Balanced two-deep call quads with Zipf-skewed function choice.

    With 96 functions the exact CCT holds up to ``96 + 96*96`` contexts
    — an order of magnitude past the 1024 budget — while the ``1/rank``
    skew keeps the top contexts far above the eviction threshold, the
    regime where space-saving retains the exact top-k.
    """
    rng = np.random.default_rng(seed)
    symtab = SymbolTable()
    addrs = np.array([symtab.address_of(f"func_{i:03d}")
                      for i in range(n_funcs)], dtype=np.int64)
    weights = 1.0 / np.arange(1, n_funcs + 1, dtype=np.float64)
    probs = weights / weights.sum()

    out = np.empty(n_records, dtype=RECORD_DTYPE)
    pos = 0
    tsc = 0
    sweep_due = 0
    while pos < n_records:
        if pos + 4 > n_records:
            tsc += 5_000
            out[pos] = (REC_TEMP, pos % n_sensors, tsc, 3, 999, 40.0)
            pos += 1
            continue
        pid = int(rng.integers(1, n_pids + 1))
        outer, inner = rng.choice(n_funcs, size=2, p=probs)
        quad = [
            (REC_ENTER, addrs[outer]), (REC_ENTER, addrs[inner]),
            (REC_EXIT, addrs[inner]), (REC_EXIT, addrs[outer]),
        ]
        for kind, addr in quad:
            tsc += int(rng.integers(10_000, 60_000))
            out[pos] = (kind, addr, tsc, pid % 4, pid, 0.0)
            pos += 1
            sweep_due += 1
        if sweep_due >= 50 and pos + n_sensors <= n_records:
            sweep_due = 0
            tsc += 5_000
            for s in range(n_sensors):
                reading = round((40.0 + float(rng.normal(0.0, 2.0))) * 4) / 4
                out[pos] = (REC_TEMP, s, tsc, 3, 999, reading)
                pos += 1
    return out, symtab


def _make_accumulator(symtab, *, hcct_budget):
    from repro.core.streamprof import ProfileAccumulator

    return ProfileAccumulator(
        "bench", symtab, lambda tsc: tsc / TSC_HZ, ["S0", "S1"],
        sampling_hz=4.0, strict=False, hcct_budget=hcct_budget,
    )


def _stream(arr, symtab, *, hcct_budget, per_chunk_check=None):
    acc = _make_accumulator(symtab, hcct_budget=hcct_budget)
    t0 = time.perf_counter()
    for lo in range(0, len(arr), CHUNK):
        acc.consume(arr[lo:lo + CHUNK])
        if per_chunk_check is not None:
            per_chunk_check(acc)
    profile = acc.finalize()
    return time.perf_counter() - t0, acc, profile


def _top_paths(tree, k=10):
    ranked = [n for n in tree.hot_paths(k + 1) if n.path]
    return ranked[:k]


def run_hcct_benchmark(n_records: int = N_RECORDS) -> dict:
    # Warm-up at small scale keeps lazy imports out of the timings.
    warm_arr, warm_sym = synthesize_skewed_columns(20_000)
    for b in (None, 0, BUDGET):
        _stream(warm_arr, warm_sym, hcct_budget=b)

    arr, symtab = synthesize_skewed_columns(n_records)

    max_live = 0

    def check_budget(acc):
        nonlocal max_live
        live = len(acc._tree)
        max_live = max(max_live, live)
        assert live <= BUDGET, (
            f"budgeted tree tracked {live} live contexts mid-stream "
            f"(> budget {BUDGET})"
        )

    # Flat and budgeted runs alternate, so drift on a shared machine
    # hits both alike; the gate compares their medians.
    base_runs, budget_runs = [], []
    for _ in range(REPEATS):
        base_s, _, base_prof = _stream(arr, symtab, hcct_budget=None)
        base_runs.append(base_s)
        budget_s, b_acc, b_prof = _stream(arr, symtab, hcct_budget=BUDGET,
                                          per_chunk_check=check_budget)
        budget_runs.append(budget_s)
    base_s = statistics.median(base_runs)
    budget_s = statistics.median(budget_runs)
    exact_s, e_acc, _ = _stream(arr, symtab, hcct_budget=0)

    b_tree, e_tree = b_acc._tree, e_acc._tree
    assert b_tree.validate() == [] and e_tree.validate() == []
    assert len(b_tree) <= BUDGET
    assert e_tree.n_evicted == 0 and b_tree.n_evicted > 0, \
        "the workload must actually pressure the budget"

    # Top-10 retention: identical paths in identical order, and each
    # budgeted exclusive time brackets the truth within error_s.
    b_top = _top_paths(b_tree)
    e_top = _top_paths(e_tree)
    exact_by_path = {n.path: n for n in e_top}
    assert [n.path for n in b_top] == [n.path for n in e_top], (
        "budgeted top-10 diverged from the exact CCT's top-10"
    )
    for n in b_top:
        true = exact_by_path[n.path]
        assert n.excl_s <= true.excl_s + 1e-9
        assert true.excl_s <= n.excl_s + n.error_s + 1e-9

    # Flat projection closure: the exact tree re-derives the flat
    # profile's call counts; the budgeted tree's are a lower bound
    # (evicted contexts take their counts with them).
    e_flat = e_tree.flat_projection()
    b_flat = b_tree.flat_projection()
    for name, fp in b_prof.functions.items():
        assert e_flat.get(name, (0.0, 0))[1] == fp.n_calls
        assert b_flat.get(name, (0.0, 0))[1] <= fp.n_calls

    return {
        "n_records": n_records,
        "seed": BENCH_SEED,
        "budget": BUDGET,
        "chunk_records": CHUNK,
        "exact_contexts": len(e_tree),
        "budget_live_contexts": len(b_tree),
        "budget_max_live_mid_stream": max_live,
        "peak_live": b_tree.peak_live,
        "n_evicted": b_tree.n_evicted,
        "epsilon_s": b_tree.epsilon_s,
        "repeats": REPEATS,
        "baseline_runs_s": base_runs,
        "budgeted_runs_s": budget_runs,
        "baseline_s": base_s,
        "budgeted_s": budget_s,
        "exact_s": exact_s,
        "baseline_records_per_s": n_records / base_s,
        "budgeted_records_per_s": n_records / budget_s,
        "hcct_overhead_x": budget_s / base_s,
        "hcct_overhead_gate_x": OVERHEAD_GATE_X,
        "n_functions_flat": len(base_prof.functions),
    }


def render_table(result: dict) -> str:
    return "\n".join([
        f"HCCT streaming @ {result['n_records']:,} records "
        f"(budget {result['budget']}, seed {result['seed']})",
        f"{'exact CCT':<22}{result['exact_contexts']:>8,} contexts",
        f"{'budgeted (live)':<22}{result['budget_live_contexts']:>8,} "
        f"contexts",
        f"{'evicted':<22}{result['n_evicted']:>8,} "
        f"(epsilon {result['epsilon_s']:.6f} s)",
        f"{'baseline (no tree)':<22}{result['baseline_s']:>8.3f} s  "
        f"({result['baseline_records_per_s']:>10,.0f} rec/s)",
        f"{'budgeted tree':<22}{result['budgeted_s']:>8.3f} s  "
        f"({result['budgeted_records_per_s']:>10,.0f} rec/s)",
        f"{'tree overhead':<22}{result['hcct_overhead_x']:>8.2f} x",
    ])


def test_hcct_scale(benchmark, results_dir):
    from benchmarks.conftest import once, write_artifact

    result = once(benchmark, run_hcct_benchmark)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    write_artifact(results_dir, "hcct_scale.txt", render_table(result))

    assert result["budget_live_contexts"] <= result["budget"]
    assert result["budget_max_live_mid_stream"] <= result["budget"]
    assert result["exact_contexts"] > result["budget"], (
        "workload no longer exceeds the budget; raise n_funcs or the skew"
    )
    assert result["hcct_overhead_x"] <= OVERHEAD_GATE_X, (
        f"budgeted tree costs {result['hcct_overhead_x']:.2f}x the flat "
        f"profile (gate {OVERHEAD_GATE_X}x)"
    )
