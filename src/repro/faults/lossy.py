"""Lossy / corrupting trace sinks.

Trace records can be lost or damaged anywhere between the hook and the
parser: a wrapped ring buffer, a crashed writer, bit rot on the spool file.
Two sinks inject those failures under a :class:`~repro.faults.plan.FaultPlan`:

* :class:`LossyNodeTrace` — an in-memory
  :class:`~repro.core.trace.NodeTrace` whose sink drops, corrupts, or
  clock-skews records before storing them (what a chaos session wires in
  place of the tracer's pristine trace).
* :class:`LossyTraceSpool` — a :class:`~repro.core.spool.TraceSpool`
  subclass applying the same fault model on the buffered path to disk.

Both sinks take records as columns.  A row append (``append_event`` /
``write_event``: six scalars, one event as a hook fires it) draws that
record's fate individually; a bulk append
(:meth:`LossyNodeTrace.extend_columns`) draws one uniform vector from the
same per-node substream and applies loss as a boolean mask and skew as a
vectorized cumulative-sum lookup — bit-identical to the row path for the
same record stream, because a size-*n* uniform draw consumes the
generator state exactly like *n* single draws.

Corruption is payload-level, never framing-level: a corrupted record still
unpacks, it just carries a wrong temperature (TEMP) or a forward-jittered
timestamp (ENTER/EXIT).  Framing damage — a truncated tail — is exercised
separately through :meth:`repro.core.trace.TraceBundle.load` and
:func:`repro.core.spool.read_spool_columns`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.spool import TraceSpool
from repro.core.trace import NodeTrace, REC_TEMP
from repro.faults.plan import ACT_CORRUPT, ACT_DROP, FaultPlan


class _FaultingSink:
    """Shared drop/corrupt/skew logic for the two sink classes."""

    def _init_faults(self, plan: FaultPlan, node_name: str,
                     tsc_hz: float) -> None:
        self._plan = plan
        self._fault_node = node_name
        self._fault_tsc_hz = float(tsc_hz)
        self.n_records_dropped = 0
        self.n_records_corrupted = 0
        self.n_records_skewed = 0

    def _apply_faults_row(self, kind: int, addr: int, tsc: int, core: int,
                          pid: int, value: float):
        """Fault one record's fields; returns the new fields, or None to
        drop the record."""
        plan, node = self._plan, self._fault_node
        action = plan.record_action(node)
        if action == "drop":
            self.n_records_dropped += 1
            return None
        if action == "corrupt":
            self.n_records_corrupted += 1
            if kind == REC_TEMP:
                value = value + plan.corrupt_temp_offset(node)
            else:
                tsc = tsc + plan.corrupt_tsc_jitter(node)
        skew = plan.skew_cycles(node, tsc / self._fault_tsc_hz)
        if skew:
            self.n_records_skewed += 1
            tsc = tsc + skew
        return kind, addr, tsc, core, pid, value

    def _apply_faults_array(self, arr: np.ndarray) -> np.ndarray:
        """Vectorized fault application over a structured record array.

        Loss is a boolean-mask selection, skew a cumulative-sum lookup;
        only the (rare) corrupted records pay a per-record draw, in
        stream order, so the corruption substream stays aligned with the
        per-record path.
        """
        plan, node = self._plan, self._fault_node
        n = len(arr)
        if n == 0:
            return arr
        actions = plan.record_actions(node, n)
        out = np.array(arr, copy=True)
        corrupt_idx = np.nonzero(actions == ACT_CORRUPT)[0]
        if len(corrupt_idx):
            self.n_records_corrupted += len(corrupt_idx)
            kinds = out["kind"]
            for i in corrupt_idx:
                if kinds[i] == REC_TEMP:
                    out["value"][i] += plan.corrupt_temp_offset(node)
                else:
                    out["tsc"][i] += plan.corrupt_tsc_jitter(node)
        keep = actions != ACT_DROP
        self.n_records_dropped += int(n - keep.sum())
        out = out[keep]
        skew = plan.skew_cycles_array(node, out["tsc"] / self._fault_tsc_hz)
        skewed = skew != 0
        if skewed.any():
            self.n_records_skewed += int(skewed.sum())
            out["tsc"] += skew
        return out


class LossyNodeTrace(_FaultingSink, NodeTrace):
    """A NodeTrace that loses and damages records as they arrive."""

    def __init__(self, node_name: str, tsc_hz: float,
                 sensor_names: list[str], plan: FaultPlan):
        NodeTrace.__init__(self, node_name, tsc_hz, sensor_names)
        self._init_faults(plan, node_name, tsc_hz)

    def append_event(self, kind: int, addr: int, tsc: int, core: int,
                     pid: int, value: float = 0.0) -> None:
        fields = self._apply_faults_row(kind, addr, tsc, core, pid, value)
        if fields is not None:
            NodeTrace.append_event(self, *fields)

    def extend_columns(self, arr: np.ndarray) -> None:
        NodeTrace.extend_columns(self, self._apply_faults_array(arr))


class LossyTraceSpool(_FaultingSink, TraceSpool):
    """A TraceSpool that loses and damages records on the way to disk."""

    def __init__(self, path: Path, plan: FaultPlan, node_name: str,
                 tsc_hz: float):
        TraceSpool.__init__(self, path)
        self._init_faults(plan, node_name, tsc_hz)

    def write_event(self, kind: int, addr: int, tsc: int, core: int,
                    pid: int, value: float = 0.0) -> None:
        fields = self._apply_faults_row(kind, addr, tsc, core, pid, value)
        if fields is not None:
            TraceSpool.write_event(self, *fields)

    def write_array(self, arr: np.ndarray) -> None:
        TraceSpool.write_array(self, self._apply_faults_array(arr))

    def truncate_tail(self, n_bytes: int) -> None:
        """Chop *n_bytes* off the spool's tail — a mid-append crash.

        Closes the spool first; the file is left torn for recovery tests.
        """
        self.close()
        blob = self.path.read_bytes()
        self.path.write_bytes(blob[: max(0, len(blob) - n_bytes)])
