"""TraceLint: the validator for trace bundles, spools, and profiles.

Every checker here returns plain ``list[Diagnostic]`` — callers (the
``tempest check`` CLI, the golden tests, CI) fold them into a
:class:`~repro.check.diagnostics.CheckReport`.  Findings are aggregated
per (rule, node): a bundle with ten thousand off-grid TEMP records emits
*one* TL011 diagnostic carrying the count and the first offending
location, so reports stay readable and golden "exactly once" assertions
stay possible.

Entry points, coarse to fine:

* :func:`check_path` — a trace directory, closed or live: header +
  per-node record-stream checks, plus (closed directories, ``deep=True``)
  the chunking-invariance cross-validation of TL018 and the
  profile-level rules via :func:`check_profile`.
* :func:`check_records` — one record stream: kinds, stack balance, TSC
  monotonicity, sensor index/range/quantization, symbol resolution.
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
    "TL015": "",
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


def check_records(arr: np.ndarray, *, path: str = "", node: str = "",
                  sensor_names: Optional[list[str]] = None,
                  symtab=None,
                  known_kinds=None) -> list[Diagnostic]:
    """Validate one node's record stream (a structured record array).

    Covers TL005 (kinds), TL006/TL007 (stack balance / open frames),
    TL008 (TSC monotonicity), TL009-TL011 (sensor index, range,
    quantization), TL014 (symbol resolution), TL015 (empty trace).

    ``known_kinds`` is the set of record kinds this reader understands
    (default: everything the current code knows).  Kinds outside it in the
    reserved comm extension range (4-7) downgrade TL005 to a warning —
    the forward-compat contract that lets a pre-comm-records reader lint
    a newer writer's bundle by skipping what it cannot parse.
    """
    agg = _Agg(path=path, node=node)
    if len(arr) == 0:
        agg.hit("TL015", "trace declares this node but holds no records")
        return agg.diagnostics()

    if known_kinds is None:
        known_kinds = KNOWN_KINDS
    kinds = arr["kind"]
    known = np.isin(kinds, np.asarray(sorted(known_kinds), dtype=kinds.dtype))
    if not known.all():
        for j in np.nonzero(~known)[0].tolist():
            k = int(kinds[j])
            if k in COMM_KINDS:
                agg.hit("TL005",
                        f"record kind {k} is a comm-extension kind this "
                        "reader does not understand; skipping",
                        f"record[{j}]", severity="warning")
            else:
                agg.hit("TL005",
                        f"record kind {k} is not a known record kind",
                        f"record[{j}]")

    func_mask = (kinds == REC_ENTER) | (kinds == REC_EXIT)
    temp_mask = kinds == REC_TEMP

    # -- TL008: per-pid TSC monotonicity over function events -----------
    from repro.core.tsc import detect_regressions

    regressions = detect_regressions(arr)
    for rep in regressions:
        agg.hit("TL008",
                f"pid {rep.pid} steps back {rep.back_step_ticks} ticks",
                f"record[{rep.index}]")

    # -- TL006 / TL007: stack balance per pid ---------------------------
    if func_mask.any():
        positions = np.nonzero(func_mask)[0].tolist()
        fkinds = kinds[func_mask].tolist()
        faddrs = arr["addr"][func_mask].tolist()
        fpids = arr["pid"][func_mask].tolist()
        stacks: dict[int, list[int]] = {}
        for i, kind, addr, pid in zip(positions, fkinds, faddrs, fpids):
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
        for pid in sorted(stacks):
            if stacks[pid]:
                agg.hit("TL007",
                        f"pid {pid}: stream ended with "
                        f"{len(stacks[pid])} open frame(s)", f"pid[{pid}]")

        # -- TL014: every function address resolves ---------------------
        if symtab is not None:
            for addr in np.unique(arr["addr"][func_mask]).tolist():
                try:
                    symtab.name_of(int(addr))
                except TraceError:
                    agg.hit("TL014",
                            f"address {int(addr):#x} is not in the "
                            "symbol table", f"addr[{int(addr):#x}]")

    # -- TL009-TL011: sensor sanity -------------------------------------
    if temp_mask.any():
        tpos = np.nonzero(temp_mask)[0]
        sidx = arr["addr"][temp_mask]
        vals = arr["value"][temp_mask].astype(np.float64)
        if sensor_names is not None:
            out_of_range = (sidx < 0) | (sidx >= len(sensor_names))
            for j in np.nonzero(out_of_range)[0].tolist():
                agg.hit("TL009",
                        f"TEMP record addresses sensor {int(sidx[j])} but "
                        f"only {len(sensor_names)} sensor(s) are declared",
                        f"record[{int(tpos[j])}]")
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
                    f"TEMP value {vals[j]!r} degC is not a multiple of "
                    f"the {TEMP_QUANTUM_C} degC quantum",
                    f"record[{int(tpos[j])}]")

    return agg.diagnostics()


# ----------------------------------------------------------------------
# Header / metadata checks shared by bundles and spools


def _check_node_meta(node, path: str) -> list[Diagnostic]:
    """TL012 (calibration) + TL013 (sensor names) for one header entry."""
    diags: list[Diagnostic] = []
    tsc_hz = node.tsc_hz
    lo, hi = TSC_HZ_BAND
    if not (math.isfinite(tsc_hz) and lo <= tsc_hz <= hi):
        diags.append(_diag("TL012",
                           f"tsc_hz {tsc_hz!r} is not a plausible "
                           f"calibration in [{lo:g}, {hi:g}] Hz",
                           path=path, node=node.name))
    names = node.sensor_names
    empties = sum(1 for n in names if not n.strip())
    if empties:
        diags.append(_diag("TL013",
                           f"{empties} sensor name(s) are empty",
                           path=path, node=node.name))
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        diags.append(_diag("TL013",
                           f"duplicate sensor name(s): {sorted(dupes)}",
                           path=path, node=node.name))
    return diags


def _check_sampling_hz(meta, path: str) -> list[Diagnostic]:
    """TL016: ``meta['sampling_hz']``, when present, is finite positive."""
    hz = meta.get("sampling_hz")
    if hz is None:
        return []
    if not math.isfinite(hz) or hz <= 0:
        return [_diag("TL016",
                      f"sampling_hz {hz!r} is not a finite positive rate",
                      path=path)]
    return []


# ----------------------------------------------------------------------
# Trace directory checks


def check_path(path, *, deep: bool = True) -> list[Diagnostic]:
    """Validate a trace directory, closed or live.

    One walk for every layout; every difference follows from the header
    (:func:`~repro.core.trace.read_trace_header`).  A header the reader
    rejects is TL001.  TL003/TL004 apply where the header declares
    record counts (a closed directory), by the rule every reader holds
    to (:meth:`~repro.core.trace.NodeHeader.count_records`): a file short
    of its count is TL003 unless the header marks the node truncated.
    A live spool's torn tail is recoverable by
    design (the writer may have crashed mid-chunk), so its TL002 is a
    warning, and its missing record file is TL015: the node has not
    spooled yet.  The causal pass runs in live mode on a spool, and not
    at all after an error.  Only a
    closed directory, with ``deep``, is additionally parsed twice — by the
    parser, in ``STREAM_CHUNK_RECORDS`` chunks, and as one whole-stream
    chunk per node — and the two profiles cross-validated (TL018) plus
    profile-level rules (TL019-TL021) — skipped whenever structural
    errors or timestamp disorder would make the comparison meaningless.
    """
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
    diags.extend(_check_sampling_hz(header.meta, label))

    orderly = True   # every node's stream globally time-ordered
    for node in header.nodes.values():
        diags.extend(_check_node_meta(node, label))
        try:
            blob = node.path.read_bytes()
        except OSError as exc:
            if live and not node.path.exists():
                diags.append(_diag("TL015",
                                   "declared node has no spool file yet",
                                   path=label, node=node.name))
            else:
                diags.append(_diag("TL002",
                                   f"record file is unreadable: {exc}",
                                   path=label, node=node.name))
            continue
        remainder = len(blob) % RECORD_SIZE
        if remainder:
            detail = (f"{remainder} trailing bytes are not a whole record "
                      "(torn tail; recoverable)" if live else
                      f"{len(blob)} bytes is not a multiple of the "
                      f"{RECORD_SIZE}-byte record size ({remainder} "
                      "trailing bytes)")
            diags.append(_diag("TL002", detail, path=label, node=node.name,
                               severity="warning" if live else None))
            blob = blob[: len(blob) - remainder]
        n = len(blob) // RECORD_SIZE
        declared = node.n_records
        if declared is not None and n != declared:
            if not (node.truncated and n < declared):
                diags.append(_diag("TL003",
                                   f"record file holds {n} records, "
                                   f"header says {declared}",
                                   path=label, node=node.name))
        elif declared is not None and node.truncated and not remainder:
            diags.append(_diag("TL004",
                               "truncated flag is set but the record file "
                               "is intact and count-matching",
                               path=label, node=node.name))
        arr = np.frombuffer(blob, dtype=RECORD_DTYPE)
        diags.extend(check_records(arr, path=label, node=node.name,
                                   sensor_names=node.sensor_names,
                                   symtab=header.symtab))
        if len(arr) and not bool(
                np.all(arr["tsc"][1:] >= arr["tsc"][:-1])):
            orderly = False

    # Communication sanitizer (CM0xx): rebuild vector clocks from the
    # comm-event stream and check races/deadlocks/collectives/skew.
    # Streams the record files in chunks; a no-op for traces without
    # comm records.  Skipped when structural errors already make the
    # stream untrustworthy.
    if not any(d.severity == "error" for d in diags):
        from repro.check.causal import causal_check_bundle

        diags.extend(causal_check_bundle(path, label=label))

    if deep and header.closed and orderly \
            and not any(d.severity == "error" for d in diags) \
            and not any(d.rule == "TL008" for d in diags):
        diags.extend(_deep_check_bundle(path, label))
    return diags


def _deep_check_bundle(path: Path, label: str) -> list[Diagnostic]:
    """Parse the (structurally clean, time-ordered) bundle chunked and
    whole, and cross-check."""
    from repro.core.parser import TempestParser
    from repro.core.streamprof import StreamingRunProfiler
    from repro.core.trace import TraceBundle

    try:
        bundle = TraceBundle.load(path, tolerate_truncation=True)
        batch = TempestParser(bundle, strict=False).parse()
    except TraceError as exc:
        return [_diag("TL001", f"bundle does not parse: {exc}", path=label)]
    diags = check_profile(batch, path=label)
    profiler = StreamingRunProfiler(
        bundle.symtab,
        sampling_hz=float(bundle.meta.get("sampling_hz", 4.0)),
        strict=False,
        meta=bundle.meta,
    )
    for name, trace in bundle.nodes.items():
        acc = profiler.add_node(name, trace.tsc_hz, trace.sensor_names)
        acc.consume(trace.columns.array)
    diags.extend(compare_profiles(batch, profiler.finalize(), path=label))
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


def _record_bytes(header, node) -> bytes:
    """The record bytes a reader takes from *node*: a bundle's whole
    file; a live spool's whole records so far (none if not spooled yet)."""
    if header.closed:
        return node.path.read_bytes()
    if not node.path.exists():
        return b""
    blob = node.path.read_bytes()
    return blob[: len(blob) - len(blob) % RECORD_SIZE]


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

    if lhead.symtab.to_dict() != whead.symtab.to_dict():
        diags.append(_diag("TL022",
                           "symbol tables differ between the local and "
                           "wire-reassembled bundles", path=label))
    if lhead.meta != whead.meta:
        diags.append(_diag("TL022",
                           f"run meta differs: local "
                           f"{lhead.meta!r} vs wire "
                           f"{whead.meta!r}", path=label))

    lnodes, wnodes = set(lhead.nodes), set(whead.nodes)
    for node in sorted(lnodes - wnodes):
        diags.append(_diag("TL022",
                           "node is missing from the wire-reassembled "
                           "bundle", path=label, node=node))
    for node in sorted(wnodes - lnodes):
        diags.append(_diag("TL022",
                           "node appears only in the wire-reassembled "
                           "bundle", path=label, node=node))

    for node in sorted(lnodes & wnodes):
        linfo, winfo = lhead.nodes[node], whead.nodes[node]
        diff = [k for k in ("sensor_names", "tsc_hz")
                if getattr(linfo, k) != getattr(winfo, k)]
        if diff:
            diags.append(_diag("TL022",
                               f"node header fields differ: {diff}",
                               path=label, node=node))
        try:
            lblob = _record_bytes(lhead, linfo)
            wblob = _record_bytes(whead, winfo)
        except OSError as exc:
            diags.append(_diag("TL022",
                               f"record file is unreadable: {exc}",
                               path=label, node=node))
            continue
        if lblob == wblob:
            continue
        if len(lblob) != len(wblob):
            diags.append(_diag("TL022",
                               f"record files differ in size: local "
                               f"{len(lblob)} bytes "
                               f"({len(lblob) // RECORD_SIZE} records) vs "
                               f"wire {len(wblob)} bytes "
                               f"({len(wblob) // RECORD_SIZE} records)",
                               path=label, node=node))
            continue
        off = next(i for i, (a, b) in enumerate(zip(lblob, wblob))
                   if a != b)
        diags.append(_diag("TL022",
                           f"record files diverge at byte {off} "
                           f"(record {off // RECORD_SIZE})",
                           path=label, node=node,
                           location=f"record[{off // RECORD_SIZE}]"))
    return diags
