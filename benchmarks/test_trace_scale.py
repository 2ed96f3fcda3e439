"""Columnar trace core at scale: object path vs array path (tentpole PR 2).

Generates a ~1M-record synthetic trace (nested ENTER/EXIT call pairs from
several processes, interleaved with 4 Hz-style TEMP sweeps) and times the
three stages the refactor targets, each implemented both ways:

* **save** — per-record ``struct.pack`` loop (seed object path) vs one
  ``RecordColumns.to_bytes`` buffer;
* **load** — per-record ``struct.unpack_from`` loop materializing
  one record object each vs one ``np.frombuffer`` reinterpret;
* **parse** — regression pre-scan + call-timeline replay + sensor-series
  split over a list of objects (the post-mortem oracle's event-at-a-time
  replay, ``tests/core/oracle.py``) vs ``TempestParser`` over the
  structured columns (the profile engine).

``src/`` has no per-record object type any more, so the object path —
the frozen record class with its ``pack``/``unpack``, the per-object
regression scan, and the per-object timeline extraction — is defined
here, unchanged from the code it was measured against, so the gate keeps
measuring the same baseline.

Results land in ``BENCH_columnar.json`` at the repo root (and a rendered
table in ``benchmarks/results/trace_scale.txt``).  The acceptance gate —
columnar ≥ 5x faster on save+load+parse combined — is asserted here, so CI
fails if the columnar path ever regresses below the seed object path.

``TEMPEST_BENCH_RECORDS`` overrides the record count (CI uses a reduced
count; the ratio is scale-stable because both paths are O(n)) and
``TEMPEST_BENCH_SEED`` the workload RNG seed — both are recorded in the
result JSONs so a published number names the draw that produced it.
"""

from __future__ import annotations

import gc
import json
import os
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.parser import TempestParser
from repro.core.records import RECORD_DTYPE, RecordColumns
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    NodeTrace,
    TraceBundle,
)
from repro.core.tsc import RegressionReport
from tests.core.oracle import replay_timeline

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_JSON = REPO_ROOT / "BENCH_columnar.json"

N_RECORDS = int(os.environ.get("TEMPEST_BENCH_RECORDS", "1000000"))
#: workload RNG seed — override to check ratio stability across draws;
#: the seed actually used is recorded in every result JSON.
BENCH_SEED = int(os.environ.get("TEMPEST_BENCH_SEED", "2007"))
TSC_HZ = 1.8e9
_REC_STRUCT = struct.Struct("<Bqqiid")


# ----------------------------------------------------------------------
# The per-object baseline: one Python object per record

@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace event (the object-path baseline's record type)."""

    kind: int
    addr: int        # function address (ENTER/EXIT) or sensor index (TEMP)
    tsc: int         # raw timestamp-counter value
    core: int        # core the event was recorded on
    pid: int         # recording process
    value: float = 0.0  # temperature in degC for TEMP records

    def pack(self) -> bytes:
        """Serialize to the fixed-width binary layout."""
        return _REC_STRUCT.pack(
            self.kind, self.addr, self.tsc, self.core, self.pid, self.value
        )

    @classmethod
    def unpack(cls, blob: bytes, offset: int = 0) -> "TraceRecord":
        """Deserialize one record from *blob* at *offset*."""
        kind, addr, tsc, core, pid, value = _REC_STRUCT.unpack_from(blob, offset)
        return cls(kind, addr, tsc, core, pid, value)


def iter_records(arr: np.ndarray):
    """Yield :class:`TraceRecord` objects from a structured array."""
    for row in arr:
        yield TraceRecord(
            int(row["kind"]), int(row["addr"]), int(row["tsc"]),
            int(row["core"]), int(row["pid"]), float(row["value"]),
        )


def detect_regressions_objects(records) -> list[RegressionReport]:
    """The per-object regression scan over an iterable of records."""
    last: dict[int, int] = {}
    out: list[RegressionReport] = []
    for i, rec in enumerate(records):
        if rec.kind not in (REC_ENTER, REC_EXIT):
            continue
        prev = last.get(rec.pid)
        if prev is not None and rec.tsc < prev:
            out.append(
                RegressionReport(pid=rec.pid, index=i,
                                 back_step_ticks=prev - rec.tsc)
            )
        last[rec.pid] = max(prev or rec.tsc, rec.tsc)
    return out


def build_timeline_objects(records, symtab: SymbolTable, seconds_fn, *,
                           strict: bool = True):
    """The oracle's timeline replay fed from a list of record objects."""
    func = [r for r in records if r.kind in (REC_ENTER, REC_EXIT)]
    kinds = [r.kind for r in func]
    names = [symtab.name_of(r.addr) for r in func]
    times = [seconds_fn(r.tsc) for r in func]
    pids = [r.pid for r in func]
    return replay_timeline(kinds, names, times, pids, strict=strict)


# ----------------------------------------------------------------------
# Synthetic trace generation (columnar, so setup is not the bottleneck)

def synthesize_columns(n_records: int, *, n_pids: int = 4,
                       n_funcs: int = 24, n_sensors: int = 2,
                       seed: int = BENCH_SEED) -> tuple[np.ndarray, SymbolTable]:
    """A balanced, monotonic synthetic trace of ~n_records events.

    Each pid runs back-to-back two-deep call pairs (outer/inner ENTER,
    inner/outer EXIT); every ~50 function events a TEMP sweep lands.
    """
    rng = np.random.default_rng(seed)
    symtab = SymbolTable()
    addrs = np.array([symtab.address_of(f"func_{i:03d}")
                      for i in range(n_funcs)], dtype=np.int64)

    out = np.empty(n_records, dtype=RECORD_DTYPE)
    pos = 0
    tsc = 0
    sweep_due = 0
    while pos < n_records:
        if pos + 4 > n_records:
            # Not enough room for a whole call quad: pad the tail with
            # TEMP records so every pid's call stream stays balanced.
            tsc += 5_000
            out[pos] = (REC_TEMP, pos % n_sensors, tsc, 3, 999, 40.0)
            pos += 1
            continue
        pid = int(rng.integers(1, n_pids + 1))
        outer, inner = rng.integers(0, n_funcs, size=2)
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
                # Quantized to 0.25 degC like real hwmon readings — which
                # also bounds the streaming engine's exact mode-bin count.
                reading = round((40.0 + float(rng.normal(0.0, 2.0))) * 4) / 4
                out[pos] = (REC_TEMP, s, tsc, 3, 999, reading)
                pos += 1
    return out, symtab


# ----------------------------------------------------------------------
# The two implementations of each stage

def save_objects(records: list[TraceRecord]) -> bytes:
    return b"".join(r.pack() for r in records)


def save_columnar(cols: RecordColumns) -> bytes:
    return cols.to_bytes()


def load_objects(blob: bytes) -> list[TraceRecord]:
    size = _REC_STRUCT.size
    return [TraceRecord.unpack(blob, i * size)
            for i in range(len(blob) // size)]


def load_columnar(blob: bytes) -> RecordColumns:
    return RecordColumns.from_buffer(blob)


def _seconds(tsc):
    return tsc / TSC_HZ


def parse_objects(records: list[TraceRecord], symtab: SymbolTable):
    func = [r for r in records if r.kind in (REC_ENTER, REC_EXIT)]
    detect_regressions_objects(func)
    timeline = build_timeline_objects(func, symtab, _seconds, strict=False)
    per_sensor: dict[int, list[tuple[float, float]]] = {}
    for r in records:
        if r.kind == REC_TEMP:
            per_sensor.setdefault(r.addr, []).append((_seconds(r.tsc), r.value))
    series = {
        idx: (np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
        for idx, pts in per_sensor.items()
    }
    return timeline, series


def parse_columnar(cols: RecordColumns, symtab: SymbolTable):
    trace = NodeTrace("bench", TSC_HZ, ["S0", "S1"])
    trace.columns = cols
    node = TempestParser(TraceBundle(symtab)).parse_node(trace)
    return node.timeline, node.sensor_series


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def _warmup(symtab_n: int = 20_000) -> None:
    """Exercise both paths once at small scale so one-time costs (lazy
    numpy imports, allocator warm-up) don't land in either timing."""
    arr, symtab = synthesize_columns(symtab_n)
    cols = RecordColumns.from_array(arr)
    records = list(iter_records(cols.array))
    parse_objects(load_objects(save_objects(records)), symtab)
    parse_columnar(load_columnar(save_columnar(cols)), symtab)


def run_scale_benchmark(n_records: int = N_RECORDS) -> dict:
    _warmup()
    arr, symtab = synthesize_columns(n_records)
    cols = RecordColumns.from_array(arr)
    t_materialize, records = _timed(lambda: list(iter_records(cols.array)))

    obj: dict[str, float] = {}
    col: dict[str, float] = {}

    # Run the object path to completion first, then free its millions of
    # heap objects before timing the columnar path — otherwise the
    # columnar stages pay GC scans over the object path's leftovers.
    # GC stays off inside the timed regions for both paths alike.
    gc.disable()
    try:
        obj["save_s"], blob_obj = _timed(save_objects, records)
        obj["load_s"], loaded_obj = _timed(load_objects, blob_obj)
        obj["parse_s"], (tl_obj, _) = _timed(parse_objects, loaded_obj,
                                             symtab)
        n_loaded_obj = len(loaded_obj)
        span_obj = tl_obj.span
        names_obj = tl_obj.function_names()
        del records, loaded_obj, tl_obj
    finally:
        gc.enable()
    gc.collect()

    gc.disable()
    try:
        col["save_s"], blob_col = _timed(save_columnar, cols)
        col["load_s"], loaded_col = _timed(load_columnar, blob_col)
        col["parse_s"], (tl_col, _) = _timed(
            parse_columnar, loaded_col, symtab
        )
    finally:
        gc.enable()

    assert blob_obj == blob_col, "columnar serialization is not byte-identical"
    assert n_loaded_obj == len(loaded_col) == n_records
    assert span_obj == tl_col.span
    assert names_obj == tl_col.function_names()

    obj["total_s"] = obj["save_s"] + obj["load_s"] + obj["parse_s"]
    col["total_s"] = col["save_s"] + col["load_s"] + col["parse_s"]
    speedup = {
        stage: obj[stage] / col[stage] if col[stage] > 0 else float("inf")
        for stage in ("save_s", "load_s", "parse_s", "total_s")
    }
    return {
        "n_records": n_records,
        "seed": BENCH_SEED,
        "bytes": len(blob_col),
        "materialize_objects_s": t_materialize,
        "object_path": obj,
        "columnar_path": col,
        "speedup": speedup,
    }


def render_table(result: dict) -> str:
    lines = [
        f"Columnar trace core @ {result['n_records']:,} records "
        f"({result['bytes'] / 1e6:.1f} MB)",
        f"{'stage':<10}{'object path':>14}{'columnar':>14}{'speedup':>10}",
        "-" * 48,
    ]
    for stage in ("save_s", "load_s", "parse_s", "total_s"):
        lines.append(
            f"{stage[:-2]:<10}"
            f"{result['object_path'][stage]:>13.3f}s"
            f"{result['columnar_path'][stage]:>13.3f}s"
            f"{result['speedup'][stage]:>9.1f}x"
        )
    return "\n".join(lines)


def test_trace_scale(benchmark, results_dir):
    from benchmarks.conftest import once, write_artifact

    result = once(benchmark, run_scale_benchmark)
    BENCH_JSON.write_text(json.dumps(result, indent=2) + "\n")
    write_artifact(results_dir, "trace_scale.txt", render_table(result))

    # The acceptance gate: end-to-end (save+load+parse) must beat the seed
    # object path by >= 5x.  Individual stages are reported, not gated —
    # parse includes the (shared, sequential) stack replay.
    assert result["speedup"]["total_s"] >= 5.0, (
        f"columnar path only {result['speedup']['total_s']:.1f}x faster; "
        "expected >= 5x"
    )


# ----------------------------------------------------------------------
# Streaming engine: constant-memory parse vs batch parse (tentpole PR 3)

BENCH_STREAMING_JSON = REPO_ROOT / "BENCH_streaming.json"


def _make_accumulator(symtab):
    from repro.core.streamprof import ProfileAccumulator

    return ProfileAccumulator(
        "bench", symtab, _seconds, ["S0", "S1"],
        sampling_hz=4.0, strict=False,
    )


def _assert_profiles_match(stream_prof, batch_prof) -> None:
    """The acceptance contract: streaming output matches batch exactly,
    except the moments, which agree to summation rounding."""
    assert set(stream_prof.functions) == set(batch_prof.functions)
    for name, bf in batch_prof.functions.items():
        sf = stream_prof.functions[name]
        assert sf.n_calls == bf.n_calls
        assert sf.significant == bf.significant
        assert sf.n_samples == bf.n_samples
        assert sf.total_time_s == bf.total_time_s            # bit-equal
        assert abs(sf.exclusive_time_s - bf.exclusive_time_s) <= \
            1e-9 * max(1.0, abs(bf.exclusive_time_s))
        for sensor, bs in bf.sensor_stats.items():
            ss = sf.sensor_stats[sensor]
            assert (ss.n, ss.min, ss.max, ss.med, ss.mod) == \
                (bs.n, bs.min, bs.max, bs.med, bs.mod)       # exact
            assert abs(ss.avg - bs.avg) <= 1e-9 * max(1.0, abs(bs.avg))
            assert abs(ss.var - bs.var) <= 1e-9 * max(1.0, abs(bs.var))


def run_streaming_benchmark(n_records: int = N_RECORDS) -> dict:
    """Streaming chunked parse vs resident parse: wall time and peak memory.

    The trace goes to a spool file first (all parses read the same
    bytes).  Wall times are taken in a tracemalloc-free phase — the
    tracer adds per-allocation overhead that would distort the speed
    ratio — covering two runs of the profile engine: over spool chunks
    (the streaming side), and ``TempestParser`` over the whole trace
    loaded resident (the "batch" yardstick of the speed gate).  Peaks
    are then measured with
    tracemalloc (numpy registers its allocations), reset per phase —
    ru_maxrss is process-monotonic and cannot measure the second phase.
    Streaming runs first so the batch phase's garbage cannot inflate its
    peak.  A last phase streams a spool of a fifth as many records (at
    least two chunks): constant memory means the two streaming peaks
    match, whatever the record count.
    """
    import tracemalloc

    from repro.core.spool import (
        STREAM_CHUNK_RECORDS,
        TraceSpool,
        iter_spool_chunks,
        read_spool_columns,
    )

    def write_spool(path, n):
        arr, symtab = synthesize_columns(n)
        with TraceSpool(path) as spool:
            spool.write_array(arr)
        return symtab

    def stream_once(path, symtab):
        acc = _make_accumulator(symtab)
        for chunk in iter_spool_chunks(path,
                                       chunk_records=STREAM_CHUNK_RECORDS):
            acc.consume(chunk)
        return acc.finalize()

    results = REPO_ROOT / "benchmarks" / "results"
    results.mkdir(exist_ok=True)
    spool_path = results / "stream_bench.spool"
    ref_path = results / "stream_bench_ref.spool"
    n_ref = max(n_records // 5, 2 * STREAM_CHUNK_RECORDS)
    spool_symtab = write_spool(spool_path, n_records)

    def batch_once():
        trace = NodeTrace("bench", TSC_HZ, ["S0", "S1"])
        trace.extend_columns(read_spool_columns(spool_path))
        return TempestParser(TraceBundle(spool_symtab),
                             strict=False).parse_node(trace)

    try:
        # -- timing phase: no tracemalloc, GC quiesced between runs
        gc.collect()
        stream_s, stream_prof = _timed(stream_once, spool_path,
                                       spool_symtab)
        gc.collect()
        batch_s, batch_prof = _timed(batch_once)
        gc.collect()

        # -- memory phase: same runs again under the allocation tracer
        tracemalloc.start()
        try:
            gc.collect()
            tracemalloc.reset_peak()
            stream_once(spool_path, spool_symtab)
            _, stream_peak = tracemalloc.get_traced_memory()
            gc.collect()
            tracemalloc.reset_peak()
            batch_once()
            _, batch_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()

        ref_symtab = write_spool(ref_path, n_ref)
        gc.collect()
        tracemalloc.start()
        try:
            stream_once(ref_path, ref_symtab)
            _, ref_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        spool_path.unlink(missing_ok=True)
        ref_path.unlink(missing_ok=True)

    _assert_profiles_match(stream_prof, batch_prof)

    return {
        "n_records": n_records,
        "seed": BENCH_SEED,
        "chunk_records": STREAM_CHUNK_RECORDS,
        "streaming": {"parse_s": stream_s, "peak_bytes": stream_peak},
        "streaming_ref": {"n_records": n_ref, "peak_bytes": ref_peak},
        "batch": {"parse_s": batch_s, "peak_bytes": batch_peak},
        "peak_ratio": stream_peak / batch_peak if batch_peak else 0.0,
        "peak_growth": stream_peak / ref_peak if ref_peak else 0.0,
        "speed_ratio": stream_s / batch_s if batch_s else 0.0,
        "n_functions": len(batch_prof.functions),
    }


def render_streaming_table(result: dict) -> str:
    s, b = result["streaming"], result["batch"]
    ref = result["streaming_ref"]
    return "\n".join([
        f"Streaming engine @ {result['n_records']:,} records "
        f"(seed {result['seed']}, chunks of {result['chunk_records']:,})",
        f"{'path':<14}{'parse':>10}{'peak mem':>14}",
        "-" * 38,
        f"{'batch':<14}{b['parse_s']:>9.3f}s{b['peak_bytes'] / 1e6:>12.1f}MB",
        f"{'streaming':<14}{s['parse_s']:>9.3f}s"
        f"{s['peak_bytes'] / 1e6:>12.1f}MB",
        f"peak ratio:  {result['peak_ratio']:.1%} of batch",
        f"peak growth: {result['peak_growth']:.2f}x the "
        f"{ref['n_records']:,}-record stream's "
        f"{ref['peak_bytes'] / 1e6:.1f}MB (gate: <= 1.1x)",
        f"speed ratio: {result['speed_ratio']:.2f}x batch (gate: <= 1.2x)",
    ])


# One heavy run shared by the memory and speed gates: whichever test
# runs first fills the cache; running either alone still works.
_STREAMING_RESULT: dict = {}


def _streaming_result(benchmark=None):
    if not _STREAMING_RESULT:
        if benchmark is not None:
            from benchmarks.conftest import once
            _STREAMING_RESULT.update(once(benchmark, run_streaming_benchmark))
        else:
            _STREAMING_RESULT.update(run_streaming_benchmark())
    return _STREAMING_RESULT


def test_streaming_memory_gate(benchmark, results_dir):
    from benchmarks.conftest import write_artifact

    result = _streaming_result(benchmark)
    BENCH_STREAMING_JSON.write_text(json.dumps(result, indent=2) + "\n")
    write_artifact(results_dir, "trace_streaming.txt",
                   render_streaming_table(result))

    # The acceptance gate: streaming memory is constant in the record
    # count — the peak over the full trace stays within 1.1x of the peak
    # over a fifth of it (output equality is asserted inside the run).
    # The batch side is the same engine plus the resident trace, so its
    # ratio to streaming only tracks the trace size and is reported, not
    # gated.
    assert result["peak_growth"] <= 1.1, (
        f"streaming peak grew {result['peak_growth']:.2f}x from "
        f"{result['streaming_ref']['n_records']:,} to "
        f"{result['n_records']:,} records; expected <= 1.1x"
    )


def test_streaming_speed_gate(results_dir):
    # The segment reduction's gate: constant-memory streaming may cost
    # at most 20% wall time over the fully-resident batch pipeline on
    # the same ~1M-record spool.
    result = _streaming_result()
    assert result["speed_ratio"] <= 1.2, (
        f"streaming is {result['speed_ratio']:.2f}x batch; "
        "expected <= 1.2x"
    )


if __name__ == "__main__":
    res = run_scale_benchmark()
    BENCH_JSON.write_text(json.dumps(res, indent=2) + "\n")
    print(render_table(res))
    res_s = _streaming_result()
    BENCH_STREAMING_JSON.write_text(json.dumps(res_s, indent=2) + "\n")
    print(render_streaming_table(res_s))
