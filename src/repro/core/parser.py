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

The parser reads a resident bundle and drives the profile engine over
it: each node's records go through one
:class:`~repro.core.streamprof.ProfileAccumulator` in time order
(:func:`~repro.core.streamprof.feed_node`), the same engine
:func:`~repro.core.streamprof.stream_spool_profile` runs over a spool
and live sessions run mid-run.  What the parser adds is the raw
per-sensor series, which Figures 2-4 plot.
"""

from __future__ import annotations

import numpy as np

from repro.core.profilemodel import NodeProfile, RunProfile
from repro.core.streamprof import ProfileAccumulator, feed_node
from repro.core.trace import REC_TEMP, NodeTrace, TraceBundle
from repro.util.errors import TraceError


def _series_from(
    temp: np.ndarray, trace: NodeTrace
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-sensor (times, values) arrays, built as pure column ops:
    sampled sensors first, in index order, then the silent ones, empty.

    Sensor indices are already validated: the engine raises on an
    undeclared one before the series are built.
    """
    times_all = np.asarray(trace.seconds(temp["tsc"]), dtype=np.float64)
    values_all = temp["value"].astype(np.float64)
    sensor_idx = temp["addr"]
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for idx in np.unique(sensor_idx).tolist():
        mask = sensor_idx == idx
        out[trace.sensor_names[idx]] = (times_all[mask], values_all[mask])
    for name in trace.sensor_names:
        out.setdefault(name, (np.empty(0), np.empty(0)))
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
        """Parse one node: the engine over its records, plus its series."""
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
        acc = ProfileAccumulator(
            trace.node_name,
            self.bundle.symtab,
            trace.seconds,
            trace.sensor_names,
            sampling_hz=self.sampling_hz,
            strict=self.strict,
            min_samples_for_stats=self.min_samples_for_stats,
        )
        arr = trace.columns.array
        feed_node(acc, arr)
        profile = acc.finalize()
        profile.sensor_series = _series_from(arr[arr["kind"] == REC_TEMP],
                                             trace)
        return profile
