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

The parser is the resident-bundle front end of the one profile driver:
:func:`~repro.core.streamprof.stream_bundle_profile` folds each node's
records chunk by chunk through one
:class:`~repro.core.streamprof.ProfileAccumulator`, exactly as
:func:`~repro.core.streamprof.stream_spool_profile` folds the trace
directory saved from the bundle.  What the parser adds is the raw
per-sensor series, which Figures 2-4 plot.
"""

from __future__ import annotations

import numpy as np

from repro.core.profilemodel import RunProfile
from repro.core.records import RECORD_DTYPE
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.streamprof import stream_bundle_profile
from repro.core.trace import REC_TEMP, NodeHeader, TraceBundle


def _series_from(
    temp: np.ndarray, tsc_hz: float, sensor_names: list[str]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-sensor (times, values) arrays, built as pure column ops:
    sampled sensors first, in index order, then the silent ones, empty.

    Sensor indices are already validated: the engine raises on an
    undeclared one before the series are built.
    """
    times_all = temp["tsc"] / float(tsc_hz)
    values_all = temp["value"].astype(np.float64)
    sensor_idx = temp["addr"]
    out: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for idx in np.unique(sensor_idx).tolist():
        mask = sensor_idx == idx
        out[sensor_names[idx]] = (times_all[mask], values_all[mask])
    for name in sensor_names:
        out.setdefault(name, (np.empty(0), np.empty(0)))
    return out


def read_sensor_series(node: NodeHeader, *, tolerate_truncation=False):
    """A trace-directory node's series, as the parser builds them, from
    the TEMP records of each chunk its record file is read in."""
    temp = [np.empty(0, RECORD_DTYPE)] + [
        c[c["kind"] == REC_TEMP] for c in node.iter_chunks(
            STREAM_CHUNK_RECORDS, tolerate_truncation=tolerate_truncation)]
    return _series_from(np.concatenate(temp), node.tsc_hz, node.sensor_names)


def attach_sensor_series(profile: RunProfile,
                         bundle: TraceBundle) -> RunProfile:
    """Give each node of *profile* the raw series of *bundle*'s node of
    the same name; returns *profile*."""
    for name, trace in bundle.nodes.items():
        arr = trace.columns.array
        profile.nodes[name].sensor_series = _series_from(
            arr[arr["kind"] == REC_TEMP], trace.tsc_hz, trace.sensor_names)
    return profile


class TempestParser:
    """Post-processor turning a :class:`TraceBundle` into a :class:`RunProfile`."""

    def __init__(self, bundle: TraceBundle, *, strict: bool = True):
        self.bundle = bundle
        self.strict = strict

    def parse(self) -> RunProfile:
        """Parse every node trace in the bundle: its profile, plus the
        raw sensor series."""
        return attach_sensor_series(
            stream_bundle_profile(self.bundle, strict=self.strict),
            self.bundle)
