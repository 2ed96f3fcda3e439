"""Seeded, vectorized input generators for the benchmark workloads.

Every generator is a pure function of its arguments: the same seed (an
int or a ``numpy.random.SeedSequence``) gives byte-identical record
arrays.  They live here rather than being imported
from ``benchmarks/`` so that edits to the paper-reproduction experiments
can never change this benchmark's inputs.

Shapes (record layout is :data:`repro.core.records.RECORD_DTYPE`):

* :func:`flat_trace` — balanced two-deep call quads (outer ENTER, inner
  ENTER, inner EXIT, outer EXIT) from 4 pids, uniform over the functions,
  with one 2-sensor TEMP sweep every 13 quads, readings quantized to
  0.25 degC like real hwmon values;
* :func:`zipf_trace` — the same layout with the quad's two functions
  drawn with ``1/rank`` skew (a few hot contexts, a long starving tail);
* :func:`damage` — deletes the first EXIT of every even-numbered block,
  which sends those chunks to the lenient repair paths;
* :func:`ring_trace` — a race-free 16-rank ring exchange of comm records
  with seeded wildcard receives and timestamp jitter.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.commrec import FLAG_COMPLETE, FLAG_WILD_SOURCE, OP_BARRIER, PAIR_LIMIT
from repro.core.records import RECORD_DTYPE
from repro.core.spool import TraceSpool, write_spool_header
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_COLL_ENTER,
    REC_COLL_EXIT,
    REC_ENTER,
    REC_EXIT,
    REC_MSG_RECV,
    REC_MSG_SEND,
    REC_TEMP,
    NodeTrace,
    TraceBundle,
)

TSC_HZ = 1.8e9
SENSORS = ["S0", "S1"]
SAMPLING_HZ = 4.0
N_PIDS = 4
#: quads between TEMP sweeps: 13 quads = 52 function events, the first
#: multiple of 4 past the ~50-event sweep spacing of a 4 Hz tempd
QUADS_PER_SWEEP = 13
BLOCK = 4 * QUADS_PER_SWEEP + len(SENSORS)

RING_RANKS = 16
RING_NODES = 4
RING_TSC_HZ = 2.0e9
RING_WILDCARD_P = 1.0 / 8.0


def symbols(n_funcs: int) -> tuple[SymbolTable, np.ndarray]:
    """A symbol table of ``func_000..`` and their addresses, in order."""
    symtab = SymbolTable()
    addrs = np.array([symtab.address_of(f"func_{i:03d}")
                      for i in range(n_funcs)], dtype=np.int64)
    return symtab, addrs


def _quad_trace(rng: np.random.Generator, n_records: int, addrs: np.ndarray,
                picks: np.ndarray) -> np.ndarray:
    """Lay out ``picks`` (one (outer, inner) index pair per quad) as records.

    Whole blocks of ``QUADS_PER_SWEEP`` quads plus one sweep; the tail that
    does not fill a block is padded with TEMP records at 40.0 degC so
    every pid's call stream stays balanced.
    """
    n_blocks = n_records // BLOCK
    n_quads = n_blocks * QUADS_PER_SWEEP
    out = np.zeros(n_records, dtype=RECORD_DTYPE)
    body = out[: n_blocks * BLOCK].reshape(n_blocks, BLOCK)

    # (block, quad, event) view: splitting only the last axis never copies
    calls = body[:, : 4 * QUADS_PER_SWEEP].reshape(n_blocks, QUADS_PER_SWEEP, 4)
    calls["kind"] = np.array([REC_ENTER, REC_ENTER, REC_EXIT, REC_EXIT],
                             dtype=np.uint8)
    outer = addrs[picks[:, 0]].reshape(n_blocks, QUADS_PER_SWEEP)
    inner = addrs[picks[:, 1]].reshape(n_blocks, QUADS_PER_SWEEP)
    calls["addr"] = np.stack([outer, inner, inner, outer], axis=2)
    pid = rng.integers(1, N_PIDS + 1, size=(n_blocks, QUADS_PER_SWEEP, 1))
    calls["pid"] = pid
    calls["core"] = pid % 4

    sweeps = body[:, 4 * QUADS_PER_SWEEP:]
    sweeps["kind"] = REC_TEMP
    sweeps["addr"] = np.arange(len(SENSORS))
    sweeps["core"] = 3
    sweeps["pid"] = 999
    readings = 40.0 + rng.normal(0.0, 2.0, size=(n_blocks, len(SENSORS)))
    sweeps["value"] = np.round(readings * 4.0) / 4.0

    tail = out[n_blocks * BLOCK:]
    tail["kind"] = REC_TEMP
    tail["addr"] = (n_blocks * BLOCK + np.arange(len(tail))) % len(SENSORS)
    tail["core"] = 3
    tail["pid"] = 999
    tail["value"] = 40.0

    # Timestamps: 10-60k ticks between call events, +5k before a sweep
    # (whose records share one stamp), +5k per tail pad.
    step = np.zeros((n_blocks, BLOCK), dtype=np.int64)
    step[:, : 4 * QUADS_PER_SWEEP] = rng.integers(
        10_000, 60_000, size=(n_blocks, 4 * QUADS_PER_SWEEP))
    step[:, 4 * QUADS_PER_SWEEP] = 5_000
    out["tsc"] = np.cumsum(np.concatenate(
        [step.ravel(), np.full(len(tail), 5_000, dtype=np.int64)]))
    return out


def flat_trace(seed, n_records: int, *,
               n_funcs: int = 24) -> tuple[np.ndarray, SymbolTable]:
    """Clean, balanced trace with uniformly chosen functions."""
    rng = np.random.default_rng(seed)
    symtab, addrs = symbols(n_funcs)
    n_quads = (n_records // BLOCK) * QUADS_PER_SWEEP
    picks = rng.integers(0, n_funcs, size=(n_quads, 2))
    return _quad_trace(rng, n_records, addrs, picks), symtab


def zipf_trace(seed, n_records: int, *,
               n_funcs: int = 96) -> tuple[np.ndarray, SymbolTable]:
    """Balanced trace whose functions follow a ``1/rank`` skew.

    With 96 functions the exact calling-context tree holds thousands of
    contexts, far past a 1024 budget, while the skew keeps the top
    contexts well above the eviction threshold.
    """
    rng = np.random.default_rng(seed)
    symtab, addrs = symbols(n_funcs)
    weights = 1.0 / np.arange(1, n_funcs + 1, dtype=np.float64)
    n_quads = (n_records // BLOCK) * QUADS_PER_SWEEP
    picks = rng.choice(n_funcs, size=(n_quads, 2), p=weights / weights.sum())
    return _quad_trace(rng, n_records, addrs, picks), symtab


def damage(arr: np.ndarray, block_records: int = 32768) -> np.ndarray:
    """Delete the first EXIT of every even-numbered *block_records* block."""
    exits = np.flatnonzero(arr["kind"] == REC_EXIT)
    starts = np.arange(0, len(arr), 2 * block_records)
    first = exits[np.searchsorted(exits, starts)]
    return np.delete(arr, first)


def enter_counts(arr: np.ndarray, symtab: SymbolTable) -> dict[str, int]:
    """Calls per function name: the ENTER records of each address."""
    addrs, counts = np.unique(arr["addr"][arr["kind"] == REC_ENTER],
                              return_counts=True)
    return {symtab.name_of(int(a)): int(c) for a, c in zip(addrs, counts)}


def save_bundle(path: Path, arrays: dict[str, np.ndarray],
                symtab: SymbolTable, *, tsc_hz: float = TSC_HZ,
                seed: int) -> TraceBundle:
    """Write a ``tempest-trace-v1`` bundle of per-node record arrays."""
    bundle = TraceBundle(symtab)
    for name, arr in arrays.items():
        trace = NodeTrace(name, tsc_hz, SENSORS)
        trace.extend_columns(arr)
        bundle.add_node(trace)
    bundle.meta = {"sampling_hz": SAMPLING_HZ, "seed": seed}
    bundle.save(path)
    return bundle


def save_spools(path: Path, arrays: dict[str, np.ndarray],
                symtab: SymbolTable, *, seed: int) -> None:
    """Write one ``<node>.spool`` per array plus the spool header."""
    for name, arr in arrays.items():
        with TraceSpool(path / f"{name}.spool") as spool:
            spool.write_array(arr)
    write_spool_header(
        path, symtab,
        {name: {"tsc_hz": TSC_HZ, "sensor_names": SENSORS} for name in arrays},
        {"sampling_hz": SAMPLING_HZ, "seed": seed},
    )


def _pack_addrs(rank, peer, tag, flags) -> np.ndarray:
    """Vectorized commrec addr packing over int64 arrays."""
    return ((np.asarray(tag, dtype=np.int64) + 2)
            | ((np.asarray(peer, dtype=np.int64) + 2) << 32)
            | (np.asarray(rank, dtype=np.int64) << 44)
            | (np.asarray(flags, dtype=np.int64) << 56))


def ring_trace(seed: int, n_events: int) -> dict[str, np.ndarray]:
    """Per-node comm records of a race-free 16-rank ring exchange.

    Each rank's round k is a MSG_SEND (Lamport clock 3k+1) to its right
    neighbour, a MSG_RECV post (3k+2) from its left and the completion
    (3k+3) pairing that post with the left neighbour's round-k send.  A
    seeded eighth of the posts are ``ANY_SOURCE`` so the vector-clock race
    sweep runs; only one sender ever targets each rank, so no receive can
    race.  Timestamps share one timebase with seeded jitter that keeps
    every completion after its send.  A rank-identical barrier closes
    the trace.
    """
    rng = np.random.default_rng(seed)
    rounds = max(1, (n_events - 2 * RING_RANKS) // (3 * RING_RANKS))
    k = np.arange(rounds, dtype=np.int64)
    per_rank = 3 * rounds + 2
    by_node: dict[str, list[np.ndarray]] = {
        f"node{i + 1}": [] for i in range(RING_NODES)}
    for r in range(RING_RANKS):
        right, left = (r + 1) % RING_RANKS, (r - 1) % RING_RANKS
        wild = rng.random(rounds) < RING_WILDCARD_P
        jitter = rng.integers(0, 500, size=(3, rounds))
        arr = np.zeros(per_rank, dtype=RECORD_DTYPE)
        sends, posts, comps = arr[0:-2:3], arr[1:-2:3], arr[2:-2:3]

        sends["kind"] = REC_MSG_SEND
        sends["addr"] = _pack_addrs(r, right, 11, 0)
        sends["core"] = 3 * k + 1
        sends["value"] = 1024.0
        sends["tsc"] = 3000 * k + jitter[0]

        post_flags = np.where(wild, FLAG_WILD_SOURCE, 0)
        posts["kind"] = REC_MSG_RECV
        posts["addr"] = _pack_addrs(r, np.where(wild, -1, left), 11, post_flags)
        posts["core"] = 3 * k + 2
        posts["tsc"] = 3000 * k + 500 + jitter[1]

        comps["kind"] = REC_MSG_RECV
        comps["addr"] = _pack_addrs(r, left, 11, post_flags | FLAG_COMPLETE)
        comps["core"] = 3 * k + 3
        # (own post clock, left neighbour's round-k send clock) pair
        comps["value"] = ((3 * k + 2) * float(PAIR_LIMIT)
                          + (3 * k + 1)).astype(np.float64)
        comps["tsc"] = 3000 * k + 2000 + jitter[2]

        barrier = int(_pack_addrs(r, -2, 1 << 20, 0))
        arr[-2] = (REC_COLL_ENTER, barrier, 3000 * rounds, 3 * rounds + 1, r,
                   float(OP_BARRIER))
        arr[-1] = (REC_COLL_EXIT, barrier, 3000 * rounds + 10, 3 * rounds + 2,
                   r, float(OP_BARRIER))
        arr["pid"] = r
        by_node[f"node{r // (RING_RANKS // RING_NODES) + 1}"].append(arr)
    return {node: np.concatenate(parts) for node, parts in by_node.items()}
