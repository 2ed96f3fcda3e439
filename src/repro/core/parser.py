"""The Tempest parser: trace bundle -> run profile.

§3.2: "The Tempest parser acquires function timestamps and provides a
mapping between timestamps and temperature for the workload on the cluster.
The parser then reads the symbol table of the executable to map addresses of
functions to their names to generate a human-readable functional temperature
profile."

Attribution is inclusive: a temperature sample at time *t* belongs to every
function on the call stack at *t* (Figure 2(a) shows ``main`` and ``foo1``
with near-identical statistics because ``foo1`` dominates ``main``).  Each
sample sweep counts once per function regardless of recursion depth.

Functions whose inclusive time is shorter than the sensor sampling interval
are marked *insignificant* (§4.2: "Since the time spent in foo2 is small
relative to the sampling interval for the thermal sensors, thermal
statistical data is not considered significant for this function") — their
timing is still reported, but sensor statistics are suppressed.

The parser is post-mortem and holds the whole node trace: it builds the
call timeline (:func:`~repro.core.timeline.build_timeline`), attributes
samples by union-span containment, and computes exact statistics with
:func:`~repro.core.stats.compute_sensor_stats`.  Use
:class:`~repro.core.streamprof.StreamingRunProfiler` /
:func:`~repro.core.streamprof.stream_spool_profile` when the trace should
never be fully resident.
"""

from __future__ import annotations

import numpy as np

from repro.core.profilemodel import FunctionProfile, NodeProfile, RunProfile
from repro.core.stats import SensorStats, compute_sensor_stats
from repro.core.streamprof import _coverage
from repro.core.timeline import build_timeline
from repro.core.trace import (
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    NodeTrace,
    TraceBundle,
)
from repro.util.errors import TraceError


def _samples_in_spans(
    times: np.ndarray, values: np.ndarray, spans: list[tuple[float, float]]
) -> np.ndarray:
    """Values whose timestamps fall inside any of the (disjoint, sorted)
    spans — vectorized with searchsorted."""
    if len(times) == 0 or not spans:
        return np.empty(0)
    starts = np.array([s for s, _ in spans])
    ends = np.array([e for _, e in spans])
    # For each time, the candidate span is the last with start <= t.
    idx = np.searchsorted(starts, times, side="right") - 1
    ok = idx >= 0
    hit = np.zeros(len(times), dtype=bool)
    valid = np.where(ok)[0]
    hit[valid] = times[valid] <= ends[idx[valid]]
    return values[hit]


def _series_from(
    temp: np.ndarray, trace: NodeTrace
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-sensor (times, values) arrays, built as pure column ops."""
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    if len(temp):
        sensor_idx = temp["addr"]
        times_all = np.asarray(trace.seconds(temp["tsc"]), dtype=np.float64)
        values_all = temp["value"].astype(np.float64)
        for idx in np.unique(sensor_idx):
            idx = int(idx)
            if idx >= len(trace.sensor_names) or idx < 0:
                raise TraceError(
                    f"{trace.node_name}: TEMP record for sensor index "
                    f"{idx} but only {len(trace.sensor_names)} sensors "
                    "declared"
                )
            mask = sensor_idx == idx
            out[trace.sensor_names[idx]] = (
                times_all[mask], values_all[mask]
            )
    # Sensors that never produced a sample still appear, empty.
    for name in trace.sensor_names:
        if name not in out:
            out[name] = (np.empty(0), np.empty(0))
    return out


class TempestParser:
    """Post-processor turning a :class:`TraceBundle` into a :class:`RunProfile`."""

    def __init__(self, bundle: TraceBundle, *, strict: bool = True,
                 min_samples_for_stats: int = 1):
        self.bundle = bundle
        self.strict = strict
        self.min_samples_for_stats = min_samples_for_stats
        self.sampling_hz = float(bundle.meta.get("sampling_hz", 4.0))

    def parse(self) -> RunProfile:
        """Parse every node trace in the bundle."""
        nodes = {
            name: self.parse_node(trace)
            for name, trace in self.bundle.nodes.items()
        }
        return RunProfile(
            nodes=nodes,
            sampling_hz=self.sampling_hz,
            meta=dict(self.bundle.meta),
        )

    def parse_node(self, trace: NodeTrace) -> NodeProfile:
        """Parse one node: timeline + sample attribution + statistics."""
        if self.strict:
            # Pre-scan for the §3.3 hazard so the error names the offender.
            from repro.core.tsc import detect_regressions

            reports = detect_regressions(trace.func_columns())
            if reports:
                raise TraceError(
                    f"{trace.node_name}: timestamp regressions detected — "
                    + "; ".join(r.describe() for r in reports[:3])
                    + (f" (+{len(reports) - 3} more)" if len(reports) > 3
                       else "")
                )
        arr = trace.columns.array
        kind = arr["kind"]
        func = arr[(kind == REC_ENTER) | (kind == REC_EXIT)]
        timeline = build_timeline(func, self.bundle.symtab, trace.seconds,
                                  strict=self.strict)
        series = _series_from(arr[kind == REC_TEMP], trace)
        interval_s = 1.0 / self.sampling_hz
        min_needed = max(1, self.min_samples_for_stats)

        functions: dict[str, FunctionProfile] = {}
        for name in timeline.function_names():
            total = timeline.inclusive_time(name)
            significant = total >= interval_s
            stats: dict[str, SensorStats] = {}
            n_hits = 0
            if significant:
                spans = timeline.union_spans(name)
                for sensor, (times, values) in series.items():
                    hit = _samples_in_spans(times, values, spans)
                    if len(hit) >= min_needed:
                        stats[sensor] = compute_sensor_stats(hit)
                        n_hits = max(n_hits, len(hit))
                    elif self.min_samples_for_stats == 0:
                        stats[sensor] = SensorStats.empty()
                if not any(s.n for s in stats.values()):
                    # Long function but no samples landed (e.g. tempd died
                    # early): degrade to insignificant rather than invent
                    # data.
                    significant = False
                    stats = {}
            functions[name] = FunctionProfile(
                name=name,
                total_time_s=total,
                exclusive_time_s=timeline.exclusive_time(name),
                n_calls=timeline.call_count(name),
                significant=significant,
                sensor_stats=stats,
                n_samples=n_hits,
                coverage=_coverage(total, n_hits, self.sampling_hz),
            )

        t0, t1 = timeline.span
        return NodeProfile(
            node_name=trace.node_name,
            duration_s=t1 - t0,
            functions=functions,
            sensor_series=series,
            timeline=timeline,
        )
