"""TraceLint: the validator for trace bundles, spools, and profiles.

Every checker here returns plain ``list[Diagnostic]`` — callers (the
``tempest check`` CLI, the golden tests, CI) fold them into a
:class:`~repro.check.diagnostics.CheckReport`.  Findings are aggregated
per (rule, node): a bundle with ten thousand off-grid TEMP records emits
*one* TL011 diagnostic carrying the count and the first offending
location, so reports stay readable and golden "exactly once" assertions
stay possible.

Entry points, coarse to fine:

* :func:`check_path` — a trace directory, closed or live, read chunk
  by chunk: header + per-node record-stream checks, plus (closed
  directories, ``deep=True``) the chunking-invariance cross-validation
  of TL018 and the profile-level rules via :func:`check_profile`.
* :func:`lint_chunks` / :func:`check_records` — one record stream, in
  chunks / as one array: kinds, stack balance, TSC monotonicity, sensor
  index/range/quantization, symbol resolution.
* :func:`check_profile` — a finished :class:`RunProfile`: coverage
  arithmetic, statistic sanity, significance coherence.
* :func:`compare_profiles` — TL018, agreement of two profiles of the
  same trace within the tolerances documented in ``docs/INTERNALS.md``.
* :func:`compare_bundle_dirs` — TL022, a wire-reassembled bundle is
  byte-identical to the local baseline (a spool or a bundle).
* :func:`check_layout` — TL017, the ``RECORD_DTYPE`` vs ``<Bqqiid``
  byte-layout self-check.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import Optional

import numpy as np

from repro.check.diagnostics import Diagnostic, make_diagnostic
from repro.core.records import RECORD_DTYPE, RECORD_SIZE
from repro.core.trace import (
    COMM_KINDS,
    KNOWN_KINDS,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    is_trace_dir,
    read_trace_header,
)
from repro.util.errors import ConfigError, TraceError

#: physically plausible temperature band for a machine-room sensor (degC)
TEMP_BAND_C = (-25.0, 125.0)
#: the coarsest quantization step any supported hwmon chip reports
TEMP_QUANTUM_C = 0.25
#: plausible TSC calibration band (kHz microcontroller .. THz fantasy)
TSC_HZ_BAND = (1e3, 1e12)
#: TL018's second chunking: small and odd, so its cuts fall away from
#: STREAM_CHUNK_RECORDS' and a trace shorter than one chunk is cut too
_RECHUNK_RECORDS = 4093
#: reference record layout the columnar dtype must never drift from
REFERENCE_STRUCT_FORMAT = "<Bqqiid"
_REFERENCE_FIELDS = ("kind", "addr", "tsc", "core", "pid", "value")
_REFERENCE_OFFSETS = (0, 1, 9, 17, 21, 25)

#: per-rule fix hints, attached to every emitted diagnostic
_HINTS = {
    "TL001": "regenerate the artifact with TraceBundle.save / "
             "write_spool_header",
    "TL002": "re-copy the file, or load with tolerate_truncation to drop "
             "the torn tail",
    "TL003": "re-copy the record file, fix the header's n_records, or "
             "mark the node truncated",
    "TL004": "clear the truncated flag, or investigate why the writer set it",
    "TL005": "the file is probably not a tempest record stream, or the "
             "stream is corrupt",
    "TL006": "parse with strict=False to repair by unwinding, and check the "
             "instrumentation hooks",
    "TL007": "the process likely died mid-run; lenient parsing closes open "
             "frames at the last event time",
    "TL008": "bind processes to cores (paper §3.3), or parse with "
             "strict=False to clamp regressions",
    "TL009": "regenerate the header's sensor_names, or drop the stray TEMP "
             "records",
    "TL010": "check the sensor hardware and any fault-injection settings",
    "TL011": "hwmon readings are quantized; continuous values mean a "
             "corrupted or synthetic stream",
    "TL012": "recalibrate (repro.core.tsc.calibrate_perf_counter) or fix "
             "the header by hand",
    "TL013": "give every sensor a unique, non-empty name",
    "TL014": "regenerate the bundle with a complete symbol table",
    "TL016": "set meta['sampling_hz'] to the tempd sweep rate (4.0 in the "
             "paper)",
    "TL017": "records.RECORD_DTYPE must stay byte-identical to <Bqqiid; "
             "fix the dtype, never the reference",
    "TL018": "the engine's result depends on where chunks are cut; "
             "reduce the trace and bisect the chunk size",
    "TL019": "recompute coverage with repro.core.streamprof._coverage",
    "TL020": "these statistics were not produced by OnlineStats",
    "TL021": "recompute significance: inclusive time vs the sampling "
             "interval, with at least one attributed sample",
    "TL022": "the wire path lost or reordered data; re-push the spool, or "
             "check the aggregator's gap/dup metrics for the culprit",
    "TL023": "the tree was not produced by ContextTree (or was mutated "
             "after finalize); rebuild it with the streaming engine",
    "TL024": "prune_to_budget was skipped or the budget changed after "
             "construction; re-run with a consistent --hcct-budget",
    "CM001": "replace the wildcard with a specific source, or impose an "
             "ordering (tags, sequence numbers) on the racing senders",
    "CM002": "reorder the blocked operations (e.g. odd/even rank phasing) "
             "or make one side nonblocking",
    "CM003": "every rank must call the same collectives in the same order "
             "with the same root",
    "CM004": "pair every send with a receive before finalize, or wait on "
             "outstanding nonblocking requests",
    "CM005": "synchronize or calibrate per-node clocks; the reported bound "
             "is the minimum skew that explains the inversion (paper §3.3)",
    "CM006": "check for record loss (coverage report, fault plans) or a "
             "corrupted bundle before trusting causal verdicts",
}


def _diag(rule_id: str, message: str, *, path: str = "", node: str = "",
          location: str = "", severity: Optional[str] = None) -> Diagnostic:
    return make_diagnostic(rule_id, message, path=path, node=node,
                           location=location, hint=_HINTS.get(rule_id, ""),
                           severity=severity)


class _Agg:
    """Fold repeated findings into one diagnostic per (rule, node)."""

    def __init__(self, path: str = "", node: str = ""):
        self.path = path
        self.node = node
        self._first: dict[str, tuple[str, str, Optional[str]]] = {}
        self._count: dict[str, int] = {}

    def hit(self, rule_id: str, detail: str, location: str = "",
            severity: Optional[str] = None) -> None:
        if rule_id not in self._first:
            self._first[rule_id] = (detail, location, severity)
        self._count[rule_id] = self._count.get(rule_id, 0) + 1

    def diagnostics(self) -> list[Diagnostic]:
        out = []
        for rule_id, (detail, location, severity) in self._first.items():
            n = self._count[rule_id]
            message = detail if n == 1 else f"{detail} (+{n - 1} more)"
            out.append(_diag(rule_id, message, path=self.path,
                             node=self.node, location=location,
                             severity=severity))
        return out


# ----------------------------------------------------------------------
# TL017: dtype/struct layout equivalence


def check_layout(dtype: Optional[np.dtype] = None,
                 struct_format: str = REFERENCE_STRUCT_FORMAT,
                 *, path: str = "") -> list[Diagnostic]:
    """TL017: the columnar dtype is byte-identical to the reference struct.

    ``dtype`` defaults to the live :data:`~repro.core.records.RECORD_DTYPE`
    and is injectable so tests can prove the rule actually fires on a
    drifted layout.
    """
    if dtype is None:
        dtype = RECORD_DTYPE
    s = struct.Struct(struct_format)
    diags: list[Diagnostic] = []

    def bad(detail: str, location: str = "") -> None:
        diags.append(_diag("TL017", detail, path=path, location=location))

    if dtype.itemsize != s.size:
        bad(f"dtype itemsize {dtype.itemsize} != struct size {s.size} "
            f"for {struct_format!r}")
        return diags
    names = tuple(dtype.names or ())
    if names != _REFERENCE_FIELDS:
        bad(f"dtype fields {names} != reference {_REFERENCE_FIELDS}")
        return diags
    offsets = tuple(dtype.fields[n][1] for n in names)
    if offsets != _REFERENCE_OFFSETS:
        bad(f"dtype field offsets {offsets} != reference "
            f"{_REFERENCE_OFFSETS} (padding crept in?)")
        return diags
    # Round-trip a sample record both ways, bit for bit.  The values
    # exercise signedness, byte order, and the full field widths.
    sample = (7, -0x1122334455667788, 0x0102030405060708, -19, 23, 3.25)
    try:
        blob = s.pack(*sample)
        row = np.frombuffer(blob, dtype=dtype)[0]
        via_dtype = (int(row["kind"]), int(row["addr"]), int(row["tsc"]),
                     int(row["core"]), int(row["pid"]), float(row["value"]))
        arr = np.zeros(1, dtype=dtype)
        arr[0] = sample
        back = arr.tobytes()
    except (struct.error, ValueError, KeyError, OverflowError) as exc:
        bad(f"sample record does not round-trip: {exc}")
        return diags
    if via_dtype != sample:
        bad(f"struct bytes decode differently through the dtype: "
            f"{via_dtype} != {sample}")
    elif back != blob:
        bad("dtype-encoded record bytes differ from struct.pack output")
    return diags


# ----------------------------------------------------------------------
# Record-stream checks


def lint_chunks(chunks, *, path: str = "", node: str = "",
                sensor_names: Optional[list[str]] = None, symtab=None,
                known_kinds=None) -> tuple[list[Diagnostic], bool]:
    """Validate one node's record stream, read as structured-array
    *chunks*, and say whether its ``tsc`` column never decreases.

    Covers TL005 (kinds), TL006/TL007 (stack balance / open frames),
    TL008 (TSC monotonicity), TL009-TL011 (sensor index, range,
    quantization), TL014 (symbol resolution), TL015 (empty trace).
    Per-pid stacks and TSC maxima, the record offset and the unresolved
    addresses carry from one chunk to the next, so any chunking of a
    stream gives the diagnostics of the whole stream.

    ``known_kinds`` is the set of record kinds this reader understands
    (default: everything the current code knows).  Kinds outside it in the
    reserved comm extension range (4-7) downgrade TL005 to a warning —
    the forward-compat contract that lets a pre-comm-records reader lint
    a newer writer's bundle by skipping what it cannot parse.
    """
    from repro.core.streamprof import _monotone, process_clock

    agg = _Agg(path=path, node=node)
    known_kinds = sorted(KNOWN_KINDS if known_kinds is None else known_kinds)
    stacks: dict[int, list[int]] = {}
    maxima: dict[int, int] = {}     # each pid's clock: its running max tsc
    unresolved: set[int] = set()
    base, orderly, last_tsc = 0, True, np.iinfo(np.int64).min
    for arr in chunks:
        if not len(arr):
            continue
        kinds, tsc = arr["kind"], arr["tsc"]
        orderly = orderly and tsc[0] >= last_tsc and _monotone(tsc)
        last_tsc = tsc[-1]

        known = np.isin(kinds, known_kinds)
        for j in np.nonzero(~known)[0].tolist():
            k = int(kinds[j])
            if k in COMM_KINDS:
                agg.hit("TL005",
                        f"record kind {k} is a comm-extension kind this "
                        "reader does not understand; skipping",
                        f"record[{base + j}]", severity="warning")
            else:
                agg.hit("TL005",
                        f"record kind {k} is not a known record kind",
                        f"record[{base + j}]")

        func_mask = (kinds == REC_ENTER) | (kinds == REC_EXIT)
        positions = (np.nonzero(func_mask)[0] + base).tolist()
        f_tsc, f_pid = tsc[func_mask], arr["pid"][func_mask]

        # -- TL008: per-pid TSC monotonicity: the records whose time the
        # lenient engine would clamp to their process's clock
        clock = process_clock(f_tsc, f_pid, maxima)
        for j in np.flatnonzero(f_tsc < clock).tolist():
            agg.hit("TL008", f"pid {int(f_pid[j])} steps back "
                    f"{int(clock[j] - f_tsc[j])} ticks",
                    f"record[{positions[j]}]")
        pids, last = np.unique(f_pid[::-1], return_index=True)
        maxima.update(zip(pids.tolist(),
                          clock[len(clock) - 1 - last].tolist()))

        # -- TL006: stack balance per pid; TL014: symbol resolution -----
        fkinds = kinds[func_mask].tolist()
        faddrs = arr["addr"][func_mask].tolist()
        for i, kind, addr, pid in zip(positions, fkinds, faddrs,
                                      f_pid.tolist()):
            stack = stacks.setdefault(pid, [])
            if kind == REC_ENTER:
                stack.append(addr)
            elif not stack:
                agg.hit("TL006",
                        f"pid {pid}: EXIT addr {addr:#x} with empty stack",
                        f"record[{i}]")
            elif stack[-1] != addr:
                agg.hit("TL006",
                        f"pid {pid}: EXIT addr {addr:#x} but top of stack "
                        f"is {stack[-1]:#x}", f"record[{i}]")
                while stack and stack[-1] != addr:
                    stack.pop()
                if stack:
                    stack.pop()
            else:
                stack.pop()
        if symtab is not None:
            for addr in np.unique(faddrs).tolist():
                try:
                    symtab.name_of(addr)
                except TraceError:
                    unresolved.add(addr)

        # -- TL009-TL011: sensor sanity ---------------------------------
        temp_mask = kinds == REC_TEMP
        if temp_mask.any():
            tpos = np.nonzero(temp_mask)[0] + base
            sidx = arr["addr"][temp_mask]
            vals = arr["value"][temp_mask].astype(np.float64)
            if sensor_names is not None:
                out_of_range = (sidx < 0) | (sidx >= len(sensor_names))
                for j in np.nonzero(out_of_range)[0].tolist():
                    agg.hit("TL009",
                            f"TEMP record addresses sensor {int(sidx[j])} "
                            f"but only {len(sensor_names)} sensor(s) are "
                            "declared", f"record[{int(tpos[j])}]")
            lo, hi = TEMP_BAND_C
            in_band = (vals >= lo) & (vals <= hi)   # NaN/inf fail this
            for j in np.nonzero(~in_band)[0].tolist():
                agg.hit("TL010",
                        f"TEMP value {vals[j]:g} degC is outside the "
                        f"plausible band [{lo:g}, {hi:g}]",
                        f"record[{int(tpos[j])}]")
            steps = vals / TEMP_QUANTUM_C
            off_grid = np.abs(steps - np.round(steps)) > 1e-6
            off_grid &= np.isfinite(vals)
            for j in np.nonzero(off_grid)[0].tolist():
                agg.hit("TL011",
                        f"TEMP value {vals[j]!r} degC is not a multiple "
                        f"of the {TEMP_QUANTUM_C} degC quantum",
                        f"record[{int(tpos[j])}]")
        base += len(arr)

    if not base:
        agg.hit("TL015", "trace declares this node but holds no records")
    for pid in sorted(stacks):
        if stacks[pid]:
            agg.hit("TL007",
                    f"pid {pid}: stream ended with {len(stacks[pid])} "
                    "open frame(s)", f"pid[{pid}]")
    for addr in sorted(unresolved):
        agg.hit("TL014", f"address {addr:#x} is not in the symbol table",
                f"addr[{addr:#x}]")
    return sorted(agg.diagnostics(), key=lambda d: d.rule), orderly


def check_records(arr: np.ndarray, **options) -> list[Diagnostic]:
    """Validate one node's record stream (a structured record array):
    :func:`lint_chunks` over it as one chunk, with the same options."""
    return lint_chunks([arr], **options)[0]


# ----------------------------------------------------------------------
# Trace directory checks


def check_path(path, *, deep: bool = True) -> list[Diagnostic]:
    """Validate a trace directory, closed or live, in bounded memory.

    One walk for every layout; every difference follows from the header
    (:func:`~repro.core.trace.read_trace_header`).  A header the reader
    rejects is TL001.  TL002-TL004 and TL015 come from each node's
    :meth:`~repro.core.trace.NodeHeader.stat_records`, the count rule
    every reader holds to.  A live spool's torn tail is recoverable by
    design (the writer may have crashed mid-chunk), so its TL002 is a
    warning, and its missing record file is TL015: the node has not
    spooled yet.  Every record file, condemned or not, streams through
    :func:`lint_chunks` in ``STREAM_CHUNK_RECORDS`` chunks.  The causal
    pass runs in live mode on a spool, and not at all after an error.
    Only a closed directory, with ``deep``, is additionally profiled by
    :func:`~repro.core.streamprof.stream_spool_profile` at two chunk
    sizes that cut it in different places, the profiles cross-validated
    (TL018) plus profile-level rules (TL019-TL021) — skipped whenever
    structural errors or timestamp disorder would make the comparison
    meaningless.
    """
    from repro.core.spool import STREAM_CHUNK_RECORDS, iter_spool_chunks

    path = Path(path)
    if not is_trace_dir(path):
        raise ConfigError(f"{path} is not a trace directory")
    label = str(path)
    diags = check_layout(path=label)
    try:
        header = read_trace_header(path)
    except TraceError as exc:
        return diags + [_diag("TL001", str(exc), path=label)]
    live = not header.closed
    hz = header.meta.get("sampling_hz")
    if hz is not None and not (math.isfinite(hz) and hz > 0):
        diags.append(_diag("TL016", f"sampling_hz {hz!r} is not a finite "
                                    "positive rate", path=label))

    orderly = True   # every node's stream globally time-ordered
    for node in header.nodes.values():
        def finding(rule_id: str, message: str,
                    severity: Optional[str] = None) -> None:
            diags.append(_diag(rule_id, message, path=label,
                               node=node.name, severity=severity))

        # -- TL012 / TL013: calibration and sensor names ----------------
        lo, hi = TSC_HZ_BAND
        if not (math.isfinite(node.tsc_hz) and lo <= node.tsc_hz <= hi):
            finding("TL012", f"tsc_hz {node.tsc_hz!r} is not a plausible "
                             f"calibration in [{lo:g}, {hi:g}] Hz")
        names = node.sensor_names
        empties = sum(1 for n in names if not n.strip())
        if empties:
            finding("TL013", f"{empties} sensor name(s) are empty")
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            finding("TL013", f"duplicate sensor name(s): {sorted(dupes)}")

        # -- TL002-TL004, TL015: the record file against the header -----
        st = node.stat_records()
        if st.error is not None:
            if live:
                finding("TL015", "declared node has no spool file yet")
            else:
                finding("TL002", f"record file is unreadable: {st.error}")
            continue
        if st.torn:
            finding("TL002",
                    f"{st.torn} trailing bytes are not a whole record "
                    "(torn tail; recoverable)" if live else
                    f"{st.size} bytes is not a multiple of the "
                    f"{RECORD_SIZE}-byte record size ({st.torn} "
                    "trailing bytes)", "warning" if live else None)
        if st.extra or (st.short and not node.truncated):
            finding("TL003", f"record file holds {st.n} records, header "
                             f"says {st.declared}")
        elif node.truncated and st.n == st.declared and not st.torn:
            finding("TL004", "truncated flag is set but the record file "
                             "is intact and count-matching")
        # -- TL005-TL011, TL014, TL015: the records, chunk by chunk ------
        try:
            found, ordered = lint_chunks(
                iter_spool_chunks(node.path,
                                  chunk_records=STREAM_CHUNK_RECORDS),
                path=label, node=node.name, sensor_names=node.sensor_names,
                symtab=header.symtab)
        except OSError as exc:
            finding("TL002", f"record file is unreadable: {exc}")
            continue
        diags.extend(found)
        orderly = orderly and ordered

    # Communication sanitizer (CM0xx): rebuild vector clocks from the
    # comm-event stream and check races/deadlocks/collectives/skew.
    # Streams the record files in chunks; a no-op for traces without
    # comm records.  Skipped when structural errors already make the
    # stream untrustworthy.
    if not any(d.severity == "error" for d in diags):
        from repro.check.causal import causal_check_bundle

        diags.extend(causal_check_bundle(path, label=label))

    # time order rules out TL008 and the late records that chunkings
    # may profile differently
    if deep and not live and orderly \
            and not any(d.severity == "error" for d in diags):
        from repro.core.streamprof import stream_spool_profile

        try:
            profile = stream_spool_profile(path)
            rechunked = stream_spool_profile(
                path, chunk_records=_RECHUNK_RECORDS)
        except TraceError as exc:
            return diags + [_diag("TL001", f"bundle does not parse: {exc}",
                                  path=label)]
        diags.extend(check_profile(profile, path=label))
        diags.extend(compare_profiles(profile, rechunked, path=label))
    return diags


# ----------------------------------------------------------------------
# Profile-level checks


def _stats_problem(st) -> Optional[str]:
    """TL020: one SensorStats' internal consistency, or None if sane."""
    fields = (st.min, st.avg, st.max, st.sdv, st.var, st.med, st.mod)
    if st.n < 0:
        return f"n = {st.n} is negative"
    if st.n == 0:
        if any(not math.isnan(v) for v in fields):
            return "n == 0 but statistics are not all NaN"
        return None
    if any(math.isnan(v) or math.isinf(v) for v in fields):
        return f"n = {st.n} but statistics contain NaN/inf"
    eps = 1e-9
    if st.min > st.max + eps:
        return f"min {st.min:g} > max {st.max:g}"
    for label, v in (("avg", st.avg), ("med", st.med), ("mod", st.mod)):
        if not (st.min - eps <= v <= st.max + eps):
            return (f"{label} {v:g} is outside "
                    f"[min {st.min:g}, max {st.max:g}]")
    if st.var < -eps or st.sdv < -eps:
        return f"negative spread (var {st.var:g}, sdv {st.sdv:g})"
    if abs(st.var - st.sdv ** 2) > 1e-6 * max(st.var, st.sdv ** 2, 1e-300):
        return f"var {st.var:g} != sdv**2 {st.sdv ** 2:g}"
    return None


def check_profile(profile, *, path: str = "") -> list[Diagnostic]:
    """Validate a finished :class:`~repro.core.profilemodel.RunProfile`.

    TL016 (sampling rate), TL019 (coverage arithmetic), TL020 (statistic
    sanity), TL021 (significance coherence), and — when a node carries a
    hot calling-context tree — TL023 (tree invariants) and TL024 (budget
    respected).  Findings aggregate per (rule, node).
    """
    from repro.core.streamprof import _coverage

    diags: list[Diagnostic] = []
    hz = profile.sampling_hz
    if not (isinstance(hz, (int, float)) and math.isfinite(hz) and hz > 0):
        diags.append(_diag("TL016",
                           f"profile sampling_hz {hz!r} is not a finite "
                           "positive rate", path=path))
        return diags
    interval_s = 1.0 / float(hz)
    for node, nprof in profile.nodes.items():
        agg = _Agg(path=path, node=node)
        for fname, f in nprof.functions.items():
            expected = _coverage(f.total_time_s, f.n_samples, float(hz))
            if (not (0.0 <= f.coverage <= 1.0)
                    or abs(f.coverage - expected) > 1e-9):
                agg.hit("TL019",
                        f"{fname}: coverage {f.coverage!r} != "
                        f"recomputed {expected:.9f}", f"function[{fname}]")
            has_samples = any(s.n for s in f.sensor_stats.values())
            if f.significant:
                if f.total_time_s < interval_s - 1e-12:
                    agg.hit("TL021",
                            f"{fname}: significant but inclusive time "
                            f"{f.total_time_s:g} s < sampling interval "
                            f"{interval_s:g} s", f"function[{fname}]")
                elif not has_samples:
                    agg.hit("TL021",
                            f"{fname}: significant but no sensor samples "
                            "were attributed", f"function[{fname}]")
            elif has_samples:
                agg.hit("TL021",
                        f"{fname}: insignificant yet carries sensor "
                        "statistics", f"function[{fname}]")
            for sensor, st in f.sensor_stats.items():
                problem = _stats_problem(st)
                if problem:
                    agg.hit("TL020", f"{fname}/{sensor}: {problem}",
                            f"function[{fname}]:sensor[{sensor}]")
        for sensor, st in nprof.sensor_summary.items():
            problem = _stats_problem(st)
            if problem:
                agg.hit("TL020", f"<node>/{sensor}: {problem}",
                        f"sensor[{sensor}]")
        tree = getattr(nprof, "context_tree", None)
        if tree is not None:
            # ContextTree.validate covers structure, value sanity, the
            # derived-inclusive relations, and the budget; the budget
            # finding is TL024, everything else TL023.
            for problem in tree.validate():
                rule = "TL024" if "budget" in problem else "TL023"
                agg.hit(rule, problem, "hcct")
            if tree.n_evicted and tree.epsilon_s < 0.0:
                agg.hit("TL024",
                        f"{tree.n_evicted} contexts were evicted but "
                        f"epsilon_s is {tree.epsilon_s!r}", "hcct")
        diags.extend(agg.diagnostics())
    return diags


# ----------------------------------------------------------------------
# TL018: chunking invariance


def _close(a: float, b: float, rel: float, abs_tol: float = 1e-12) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    if a == b:
        return True
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_tol


def compare_profiles(batch, stream, *, rel: float = 1e-9,
                     path: str = "") -> list[Diagnostic]:
    """TL018: two profiles of the same trace agree within the documented
    tolerances (*batch* is the reference side, *stream* the other).

    ``n``/``min``/``max``/``med``/``mod``/``n_calls``/``significant``
    must match exactly; times and ``avg``/``var``/``sdv`` within relative
    *rel* (docs/INTERNALS.md documents ~1e-12 drift, the suite asserts
    1e-9).
    """
    diags: list[Diagnostic] = []
    if set(batch.nodes) != set(stream.nodes):
        diags.append(_diag("TL018",
                           f"node sets differ: batch {sorted(batch.nodes)} "
                           f"vs streaming {sorted(stream.nodes)}",
                           path=path))
        return diags
    for node in batch.nodes:
        b, s = batch.nodes[node], stream.nodes[node]
        agg = _Agg(path=path, node=node)
        if set(b.functions) != set(s.functions):
            agg.hit("TL018",
                    f"function sets differ: batch-only "
                    f"{sorted(set(b.functions) - set(s.functions))}, "
                    f"streaming-only "
                    f"{sorted(set(s.functions) - set(b.functions))}")
        if not _close(b.duration_s, s.duration_s, rel):
            agg.hit("TL018",
                    f"duration {b.duration_s!r} s vs {s.duration_s!r} s")
        for fname in set(b.functions) & set(s.functions):
            fb, fs = b.functions[fname], s.functions[fname]
            loc = f"function[{fname}]"
            if fb.n_calls != fs.n_calls:
                agg.hit("TL018", f"{fname}: n_calls {fb.n_calls} vs "
                        f"{fs.n_calls}", loc)
            if fb.significant != fs.significant:
                agg.hit("TL018", f"{fname}: significant {fb.significant} "
                        f"vs {fs.significant}", loc)
            for label, vb, vs in (
                ("total_time_s", fb.total_time_s, fs.total_time_s),
                ("exclusive_time_s", fb.exclusive_time_s,
                 fs.exclusive_time_s),
            ):
                if not _close(vb, vs, rel):
                    agg.hit("TL018",
                            f"{fname}: {label} {vb!r} vs {vs!r}", loc)
            if set(fb.sensor_stats) != set(fs.sensor_stats):
                agg.hit("TL018",
                        f"{fname}: sensor sets differ "
                        f"({sorted(fb.sensor_stats)} vs "
                        f"{sorted(fs.sensor_stats)})", loc)
            for sensor in set(fb.sensor_stats) & set(fs.sensor_stats):
                sb, ss = fb.sensor_stats[sensor], fs.sensor_stats[sensor]
                sloc = f"{loc}:sensor[{sensor}]"
                for label, vb, vs in (("n", sb.n, ss.n),
                                      ("min", sb.min, ss.min),
                                      ("max", sb.max, ss.max),
                                      ("med", sb.med, ss.med),
                                      ("mod", sb.mod, ss.mod)):
                    if vb != vs and not (isinstance(vb, float)
                                         and math.isnan(vb)
                                         and math.isnan(vs)):
                        agg.hit("TL018",
                                f"{fname}/{sensor}: {label} {vb!r} vs "
                                f"{vs!r} (must be exact)", sloc)
                for label, vb, vs in (("avg", sb.avg, ss.avg),
                                      ("var", sb.var, ss.var),
                                      ("sdv", sb.sdv, ss.sdv)):
                    if not _close(vb, vs, rel):
                        agg.hit("TL018",
                                f"{fname}/{sensor}: {label} {vb!r} vs "
                                f"{vs!r} (rel {rel:g})", sloc)
        diags.extend(agg.diagnostics())
    return diags


# ----------------------------------------------------------------------
# TL022: wire reassembly byte-identity


def _record_extent(node) -> int:
    """The bytes of *node*'s record file a reader takes: a bundle's
    whole file; a live spool's whole records so far (none if not
    spooled yet)."""
    st = node.stat_records()
    if st.declared is not None and st.error is not None:
        raise st.error
    return st.n * RECORD_SIZE if st.declared is None else st.size


def _first_difference(a: Path, b: Path, size: int) -> Optional[int]:
    """Where the first *size* bytes of files *a* and *b* first differ,
    read a bounded block at a time; None if they agree."""
    block = 1 << 20
    with a.open("rb") as fa, b.open("rb") as fb:
        for off in range(0, size, block):
            n = min(block, size - off)
            x, y = fa.read(n), fb.read(n)
            if x != y:
                return off + next(
                    (i for i, (p, q) in enumerate(zip(x, y)) if p != q),
                    min(len(x), len(y)))
    return None


def compare_bundle_dirs(local, wire) -> list[Diagnostic]:
    """TL022: a wire-reassembled bundle matches the local baseline.

    *local* is the baseline — the session's spool directory or a bundle
    saved in-process — and *wire* the bundle an
    :class:`~repro.cluster.Aggregator` persisted from ``tempest-wire-v1``
    chunks; either may be any trace directory.  The contract is
    byte-identity where it matters: the same node set, each node's record
    bytes equal (a live spool's as :meth:`TraceBundle.load
    <repro.core.trace.TraceBundle.load>` takes them), and equivalent
    header metadata — symbol table, calibration, sensor names, run meta.
    JSON key order and the record counts and ``truncated`` flags are
    exempt (the aggregator recomputes them from what it received).
    """
    local, wire = Path(local), Path(wire)
    label = f"{local} vs {wire}"
    diags: list[Diagnostic] = []
    headers = []
    for p in (local, wire):
        try:
            headers.append(read_trace_header(p))
        except TraceError as exc:
            diags.append(_diag("TL001", str(exc), path=str(p)))
    if diags:
        return diags
    lhead, whead = headers

    def finding(message: str, node: str = "", location: str = "") -> None:
        diags.append(_diag("TL022", message, path=label, node=node,
                           location=location))

    if lhead.symtab.to_dict() != whead.symtab.to_dict():
        finding("symbol tables differ between the local and "
                "wire-reassembled bundles")
    if lhead.meta != whead.meta:
        finding(f"run meta differs: local {lhead.meta!r} vs wire "
                f"{whead.meta!r}")

    lnodes, wnodes = set(lhead.nodes), set(whead.nodes)
    for node in sorted(lnodes - wnodes):
        finding("node is missing from the wire-reassembled bundle", node)
    for node in sorted(wnodes - lnodes):
        finding("node appears only in the wire-reassembled bundle", node)

    for node in sorted(lnodes & wnodes):
        linfo, winfo = lhead.nodes[node], whead.nodes[node]
        diff = [k for k in ("sensor_names", "tsc_hz")
                if getattr(linfo, k) != getattr(winfo, k)]
        if diff:
            finding(f"node header fields differ: {diff}", node)
        try:
            lsize, wsize = _record_extent(linfo), _record_extent(winfo)
            off = _first_difference(linfo.path, winfo.path, lsize) \
                if lsize == wsize and lsize else None
        except OSError as exc:
            finding(f"record file is unreadable: {exc}", node)
            continue
        if lsize != wsize:
            finding(f"record files differ in size: local {lsize} bytes "
                    f"({lsize // RECORD_SIZE} records) vs wire {wsize} "
                    f"bytes ({wsize // RECORD_SIZE} records)", node)
        elif off is not None:
            finding(f"record files diverge at byte {off} "
                    f"(record {off // RECORD_SIZE})", node,
                    f"record[{off // RECORD_SIZE}]")
    return diags
