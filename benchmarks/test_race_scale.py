"""Communication sanitizer at scale: 1M comm events across 16 ranks.

Synthesizes a clean (race-free) 16-rank ring exchange — every round each
rank sends one eager message to its right neighbour and receives from its
left, with every eighth round's receive posted as ``ANY_SOURCE`` so the
vector-clock join rows and the race sweep actually run — plus one
rank-identical collective bracket, laid out over 4 nodes.  The stream is
fed to :class:`~repro.check.causal.CausalAnalyzer` in spool-sized chunks
exactly as ``tempest race`` would, and the gates are:

* **throughput** — at least 200k comm events/s end to end (ingest +
  finalize); the retirement sweep in ``_check_races`` is what keeps the
  wildcard pass linear, so this gate guards against O(n^2) regressions;
* **verdict** — the clean ring must produce zero CM diagnostics.

Finalize is reported whole and split into the join-row fold
(``join_rows_s``) and everything else (``finalize_rest_s``).  The same
ring with every message going left (``join_rows_reversed_s``,
``finalize_reversed_s``) shows the fold does not depend on the
direction the messages take round the ring.  Results
land in ``BENCH_race.json`` at the repo root (plus a rendered
table in ``benchmarks/results/race_scale.txt``).  ``TEMPEST_BENCH_RECORDS``
overrides the event count as in the sibling benchmarks.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.check.causal import CausalAnalyzer
from repro.core.commrec import (
    FLAG_COMPLETE,
    FLAG_WILD_SOURCE,
    OP_BARRIER,
    PAIR_LIMIT,
)
from repro.core.records import RECORD_DTYPE
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.trace import (
    REC_COLL_ENTER,
    REC_COLL_EXIT,
    REC_MSG_RECV,
    REC_MSG_SEND,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_race.json"

N_EVENTS = int(os.environ.get("TEMPEST_BENCH_RECORDS", "1000000"))
N_RANKS = 16
N_NODES = 4
TSC_HZ = 2.0e9
WILDCARD_EVERY = 8
MIN_EVENTS_PER_S = 200_000.0


def _pack_addrs(rank, peer, tag, flags):
    """Vectorized commrec addr packing over int64 arrays."""
    return ((np.asarray(tag, dtype=np.int64) + 2)
            | ((np.asarray(peer, dtype=np.int64) + 2) << 32)
            | (np.asarray(rank, dtype=np.int64) << 44)
            | (np.asarray(flags, dtype=np.int64) << 56))


def synthesize_ring_trace(n_events: int = N_EVENTS, step: int = 1):
    """Per-node record arrays for a race-free ring exchange.

    Each rank's round k is three records — MSG_SEND (clock 3k+1) to the
    rank *step* places to its right, MSG_RECV post (clock 3k+2) from the
    rank *step* places to its left, MSG_RECV completion (clock 3k+3)
    pairing that post with the left rank's round-k send (``step=-1``
    swaps the directions).  Wildcard posts every ``WILDCARD_EVERY``
    rounds keep the happens-before machinery engaged without introducing
    a race: only one sender ever targets each rank, so every candidate is
    program-ordered against the matched send.  A trailing barrier bracket
    exercises the collective comparison.  Returns ``(arrays_by_node,
    total_events)``.
    """
    rounds = max(1, (n_events - 2 * N_RANKS) // (3 * N_RANKS))
    k = np.arange(rounds, dtype=np.int64)
    wild = (k % WILDCARD_EVERY) == 0
    per_rank = 3 * rounds + 2
    by_node: dict[str, list[np.ndarray]] = {
        f"node{i + 1}": [] for i in range(N_NODES)}
    for r in range(N_RANKS):
        right = (r + step) % N_RANKS
        left = (r - step) % N_RANKS
        arr = np.empty(per_rank, dtype=RECORD_DTYPE)
        sends, posts, comps = arr[0:-2:3], arr[1:-2:3], arr[2:-2:3]

        sends["kind"] = REC_MSG_SEND
        sends["addr"] = _pack_addrs(r, right, 11, 0)
        sends["core"] = 3 * k + 1
        sends["value"] = 1024.0

        post_flags = np.where(wild, FLAG_WILD_SOURCE, 0)
        posts["kind"] = REC_MSG_RECV
        posts["addr"] = _pack_addrs(r, np.where(wild, -1, left), 11,
                                    post_flags)
        posts["core"] = 3 * k + 2
        posts["value"] = 0.0

        comps["kind"] = REC_MSG_RECV
        comps["addr"] = _pack_addrs(r, left, 11, post_flags | FLAG_COMPLETE)
        comps["core"] = 3 * k + 3
        # pairs (own post clock, left neighbour's round-k send clock)
        comps["value"] = ((3 * k + 2) * float(PAIR_LIMIT)
                          + (3 * k + 1)).astype(np.float64)

        # rank-identical collective bracket at the tail
        arr[-2] = (REC_COLL_ENTER, int(_pack_addrs(r, -2, 1 << 20, 0)),
                   0, 3 * rounds + 1, r, float(OP_BARRIER))
        arr[-1] = (REC_COLL_EXIT, int(_pack_addrs(r, -2, 1 << 20, 0)),
                   0, 3 * rounds + 2, r, float(OP_BARRIER))

        # same global timebase on every node (no skew): round k happens
        # around tick 3000k, completions strictly after their sends
        arr["tsc"][0:-2:3] = 3000 * k
        arr["tsc"][1:-2:3] = 3000 * k + 1
        arr["tsc"][2:-2:3] = 3000 * k + 2000
        arr["tsc"][-2] = 3000 * rounds
        arr["tsc"][-1] = 3000 * rounds + 10
        arr["pid"] = r

        by_node[f"node{r // (N_RANKS // N_NODES) + 1}"].append(arr)
    arrays = {node: np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
              for node, chunks in by_node.items()}
    total = sum(len(a) for a in arrays.values())
    return arrays, total


def check_ring(arrays):
    """Stream *arrays* through a fresh analyzer as ``tempest race`` does.

    Returns ``(diagnostics, n_comm_events, ingest_s, total_s, fold_s)``;
    the join-row fold is timed on its own inside finalize.
    """
    analyzer = CausalAnalyzer(path="bench-ring")
    fold_s = []
    build = analyzer._build_join_rows

    def timed_build(comps):
        t = time.perf_counter()
        out = build(comps)
        fold_s.append(time.perf_counter() - t)
        return out

    analyzer._build_join_rows = timed_build
    t0 = time.perf_counter()
    for node, arr in arrays.items():
        analyzer.add_node(node, TSC_HZ)
        for lo in range(0, len(arr), STREAM_CHUNK_RECORDS):
            analyzer.consume(node, arr[lo:lo + STREAM_CHUNK_RECORDS])
    ingest_s = time.perf_counter() - t0
    diags = analyzer.finalize()
    total_s = time.perf_counter() - t0
    assert len(fold_s) == 1
    return diags, analyzer.n_comm_events, ingest_s, total_s, fold_s[0]


def run_race_benchmark(n_events: int = N_EVENTS) -> dict:
    # Small warm-up keeps lazy imports and caches out of the timings.
    warm, _ = synthesize_ring_trace(20_000)
    a = CausalAnalyzer()
    for node, arr in warm.items():
        a.add_node(node, TSC_HZ)
        a.consume(node, arr)
    assert a.finalize() == []

    arrays, total = synthesize_ring_trace(n_events)
    diags, n_comm, ingest_s, total_s, fold_s = check_ring(arrays)
    assert n_comm == total
    assert diags == [], [d.message for d in diags]
    del arrays
    reversed_arrays, _ = synthesize_ring_trace(n_events, step=-1)
    rev_diags, _, rev_ingest_s, rev_total_s, rev_fold_s = check_ring(
        reversed_arrays)

    rounds = max(1, (n_events - 2 * N_RANKS) // (3 * N_RANKS))
    n_wild = N_RANKS * ((rounds + WILDCARD_EVERY - 1) // WILDCARD_EVERY)
    return {
        "n_events": total,
        "n_ranks": N_RANKS,
        "n_nodes": N_NODES,
        "rounds": rounds,
        "n_wildcard_recvs": n_wild,
        "chunk_records": STREAM_CHUNK_RECORDS,
        "ingest_s": ingest_s,
        "finalize_s": total_s - ingest_s,
        "join_rows_s": fold_s,
        "finalize_rest_s": total_s - ingest_s - fold_s,
        "join_rows_reversed_s": rev_fold_s,
        "finalize_reversed_s": rev_total_s - rev_ingest_s,
        "n_diagnostics_reversed": len(rev_diags),
        "total_s": total_s,
        "events_per_s": total / total_s,
        "gate_events_per_s": MIN_EVENTS_PER_S,
        "n_diagnostics": len(diags),
    }


def render_table(result: dict) -> str:
    return "\n".join([
        f"Communication sanitizer @ {result['n_events']:,} comm events "
        f"({result['n_ranks']} ranks on {result['n_nodes']} nodes, "
        f"{result['n_wildcard_recvs']:,} wildcard receives)",
        f"{'ingest':<14}{result['ingest_s']:>8.3f} s",
        f"{'finalize':<14}{result['finalize_s']:>8.3f} s",
        f"{'  join rows':<14}{result['join_rows_s']:>8.3f} s",
        f"{'  the rest':<14}{result['finalize_rest_s']:>8.3f} s",
        f"{'reversed ring':<14}{result['finalize_reversed_s']:>8.3f} s "
        f"finalize, {result['join_rows_reversed_s']:.3f} s join rows, "
        f"{result['n_diagnostics_reversed']} diagnostics",
        f"{'throughput':<14}{result['events_per_s']:>12,.0f} events/s  "
        f"(gate {result['gate_events_per_s']:,.0f})",
        f"{'diagnostics':<14}{result['n_diagnostics']:>8}",
    ])


def test_race_scale(benchmark, results_dir):
    from benchmarks.conftest import once, write_artifact

    result = once(benchmark, run_race_benchmark)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    write_artifact(results_dir, "race_scale.txt", render_table(result))

    assert result["n_diagnostics"] == 0
    assert result["events_per_s"] >= MIN_EVENTS_PER_S, (
        f"sanitizer throughput {result['events_per_s']:,.0f} events/s "
        f"below the {MIN_EVENTS_PER_S:,.0f} gate"
    )
