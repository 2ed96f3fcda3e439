"""``tempest-summary-v3``: the mergeable profile-summary algebra.

The paper's workflow is "sample per node, merge offline"; the fan-in
tier makes that merge *compositional*: every layer of profile state —
per-(function, sensor) :class:`~repro.core.streamprof.OnlineStats`,
per-node aggregates, whole-run profiles — forms an algebra whose
``merge`` is associative and commutative (up to floating-point
rounding) with an empty identity.  Leaf aggregators ship these
summaries instead of raw records, and a root composes the global
:class:`~repro.core.profilemodel.RunProfile` without ever seeing an
event stream.

Closure guarantees (the property suite in
``tests/core/test_summary_algebra.py`` enforces them):

* merging the summaries of any chunked split of a stream — cut at
  empty-stack, non-decreasing-time boundaries — equals the whole-stream
  summary: counts, call counts, arcs, spans, ``min``/``max``/``med``/
  ``mod`` exactly; Welford moments up to summation-order rounding
  (~1e-12 relative);
* ``merge`` is associative and commutative to the same tolerances, and
  an empty summary is a two-sided identity;
* serialization round-trips bit-exactly (floats encode via ``repr``),
  so a summary that crossed the wire merges identically to one that
  never left the process.

The layout (drift-documented in ``docs/INTERNALS.md``): a
:class:`RunSummary` carries ``format``/``sampling_hz``/``meta`` plus one
:class:`NodeSummary` per node — per-function inclusive/exclusive
seconds, call counts, call-graph arcs, the event span, per-(function,
sensor) estimator states, the node-level per-sensor summary, and (new
in v2) an optional serialized hot calling-context tree
(:class:`~repro.core.cct.ContextTree`) whose merge is itself
budget-closed, so fan-in roots compose a cluster-wide HCCT.  v3 drops
the approximate-median markers from every estimator state: the median
is read exactly off the reading bins.  v1 and v2 documents are accepted
unchanged (no trees in v1; their marker keys are ignored, and since
their bins carry every reading they too report the exact median).
:meth:`NodeSummary.to_node_profile` rebuilds the exact profile the
streaming accumulator itself would emit — the accumulator's own
``finalize`` is routed through this code path, so "profile from
summary" versus "profile from accumulator" is an identity, not an
approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.profilemodel import FunctionProfile, NodeProfile, RunProfile
from repro.core.stats import SensorStats
from repro.core.streamprof import OnlineStats, _coverage
from repro.core.timeline import Timeline
from repro.util.errors import TraceError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cct import ContextTree

__all__ = [
    "SUMMARY_FORMAT",
    "SUMMARY_FORMATS_ACCEPTED",
    "NodeSummary",
    "RunSummary",
]

#: version tag carried by every serialized summary
SUMMARY_FORMAT = "tempest-summary-v3"

#: formats :meth:`RunSummary.from_dict` accepts: v2 added the optional
#: per-node ``hcct`` block, v3 dropped the estimator states' ``q``/``pos``
#: median markers; older documents read as v3 with those keys ignored.
SUMMARY_FORMATS_ACCEPTED = ("tempest-summary-v1", "tempest-summary-v2",
                            "tempest-summary-v3")

#: the caller name standing in for "no caller" in serialized arcs
_ROOT = "<root>"


@dataclass
class NodeSummary:
    """One node's mergeable profile state (everything but raw records)."""

    node_name: str
    sensor_names: list[str]
    #: records folded into this summary (bookkeeping, additive)
    n_records: int = 0
    #: per-function inclusive seconds (union of activations)
    total_s: dict[str, float] = field(default_factory=dict)
    #: per-function exclusive (top-of-stack) seconds
    exclusive_s: dict[str, float] = field(default_factory=dict)
    #: per-function dynamic activation counts
    calls: dict[str, int] = field(default_factory=dict)
    #: call-graph arcs, caller ``<root>`` for root-level activations
    arcs: dict[tuple[str, str], int] = field(default_factory=dict)
    #: (first event, last event) seconds, None when no events were seen
    span: Optional[tuple[float, float]] = None
    #: per-function, per-sensor estimator state
    stats: dict[str, dict[str, OnlineStats]] = field(default_factory=dict)
    #: node-level per-sensor estimator state
    sensor_summary: dict[str, OnlineStats] = field(default_factory=dict)
    #: optional hot calling-context tree (None when HCCT is disabled)
    context_tree: Optional["ContextTree"] = None

    @classmethod
    def empty(cls, node_name: str, sensor_names: list[str]) -> "NodeSummary":
        """The merge identity for this node."""
        return cls(node_name=node_name, sensor_names=list(sensor_names))

    def clone(self) -> "NodeSummary":
        return NodeSummary(
            node_name=self.node_name,
            sensor_names=list(self.sensor_names),
            n_records=self.n_records,
            total_s=dict(self.total_s),
            exclusive_s=dict(self.exclusive_s),
            calls=dict(self.calls),
            arcs=dict(self.arcs),
            span=self.span,
            stats={f: {s: st.clone() for s, st in per.items()}
                   for f, per in self.stats.items()},
            sensor_summary={s: st.clone()
                            for s, st in self.sensor_summary.items()},
            context_tree=(None if self.context_tree is None
                          else self.context_tree.clone()),
        )

    def merge(self, other: "NodeSummary") -> None:
        """Fold another summary of the *same node* in, in place.

        Times, call counts, arcs, and record counts are additive; spans
        take the envelope (contiguous splits tile, so the union length
        is exact); estimator states merge via
        :meth:`OnlineStats.merge`.  Context trees merge via
        :meth:`~repro.core.cct.ContextTree.merge` (budget-closed); a
        one-sided tree is cloned.
        """
        if other.node_name != self.node_name:
            raise TraceError(
                f"cannot merge summary of node {other.node_name!r} into "
                f"{self.node_name!r}"
            )
        if other.sensor_names != self.sensor_names:
            raise TraceError(
                f"{self.node_name}: sensor sets diverge between summaries "
                f"({self.sensor_names} vs {other.sensor_names})"
            )
        self.n_records += other.n_records
        for name, v in other.total_s.items():
            self.total_s[name] = self.total_s.get(name, 0.0) + v
        for name, v in other.exclusive_s.items():
            self.exclusive_s[name] = self.exclusive_s.get(name, 0.0) + v
        for name, c in other.calls.items():
            self.calls[name] = self.calls.get(name, 0) + c
        for arc, c in other.arcs.items():
            self.arcs[arc] = self.arcs.get(arc, 0) + c
        if other.span is not None:
            if self.span is None:
                self.span = other.span
            else:
                self.span = (min(self.span[0], other.span[0]),
                             max(self.span[1], other.span[1]))
        for fname, per in other.stats.items():
            mine = self.stats.setdefault(fname, {})
            for sensor, st in per.items():
                held = mine.get(sensor)
                if held is None:
                    mine[sensor] = st.clone()
                else:
                    held.merge(st)
        for sensor, st in other.sensor_summary.items():
            held = self.sensor_summary.get(sensor)
            if held is None:
                self.sensor_summary[sensor] = st.clone()
            else:
                held.merge(st)
        if other.context_tree is not None:
            if self.context_tree is None:
                self.context_tree = other.context_tree.clone()
            else:
                self.context_tree.merge(other.context_tree)

    # ------------------------------------------------------------------

    def to_node_profile(self, *, sampling_hz: float,
                        min_samples_for_stats: int = 1) -> NodeProfile:
        """Build the :class:`NodeProfile` this summary describes.

        This *is* the streaming accumulator's profile construction — the
        accumulator routes its own ``finalize``/``snapshot`` through
        here — so significance, degradation, and coverage rules cannot
        drift between the local and fan-in paths.
        """
        interval_s = 1.0 / sampling_hz
        min_needed = max(1, min_samples_for_stats)
        functions: dict[str, FunctionProfile] = {}
        ordered = sorted(self.calls,
                         key=lambda n: self.total_s.get(n, 0.0),
                         reverse=True)
        for name in ordered:
            total = self.total_s.get(name, 0.0)
            significant = total >= interval_s
            stats: dict[str, SensorStats] = {}
            n_hits = 0
            if significant:
                per = self.stats.get(name, {})
                for sensor in self.sensor_names:
                    st = per.get(sensor)
                    n = st.n if st is not None else 0
                    if n >= min_needed:
                        stats[sensor] = SensorStats.from_accumulator(st)
                        n_hits = max(n_hits, n)
                    elif min_samples_for_stats == 0:
                        stats[sensor] = SensorStats.empty()
                if not any(s.n for s in stats.values()):
                    # Long function but no samples landed: degrade to
                    # insignificant rather than invent data.
                    significant = False
                    stats = {}
            functions[name] = FunctionProfile(
                name=name,
                total_time_s=total,
                exclusive_time_s=self.exclusive_s.get(name, 0.0),
                n_calls=int(self.calls[name]),
                significant=significant,
                sensor_stats=stats,
                n_samples=n_hits,
                coverage=_coverage(total, n_hits, sampling_hz),
            )
        t0, t1 = self.span if self.span is not None else (0.0, 0.0)
        series = {
            name: (np.empty(0), np.empty(0)) for name in self.sensor_names
        }
        summary = {
            name: SensorStats.from_accumulator(
                self.sensor_summary.get(name, OnlineStats()))
            for name in self.sensor_names
        }
        timeline = Timeline(
            dict(self.exclusive_s),
            {name: int(c) for name, c in self.calls.items()},
            dict(self.arcs),
            (t0, t1),
            inclusive_s=dict(self.total_s),
        )
        return NodeProfile(
            node_name=self.node_name,
            duration_s=t1 - t0,
            functions=functions,
            sensor_series=series,
            timeline=timeline,
            sensor_summary=summary,
            context_tree=self.context_tree,
        )

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "node": self.node_name,
            "sensor_names": list(self.sensor_names),
            "n_records": int(self.n_records),
            "total_s": dict(self.total_s),
            "exclusive_s": dict(self.exclusive_s),
            "calls": dict(self.calls),
            "arcs": sorted(
                [caller, callee, int(n)]
                for (caller, callee), n in self.arcs.items()
            ),
            "span": None if self.span is None else list(self.span),
            "stats": {
                fname: {s: st.to_state() for s, st in per.items()}
                for fname, per in self.stats.items()
            },
            "sensor_summary": {
                s: st.to_state() for s, st in self.sensor_summary.items()
            },
            "hcct": (None if self.context_tree is None
                     else self.context_tree.to_dict()),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "NodeSummary":
        from repro.core.cct import ContextTree

        try:
            span = obj.get("span")
            hcct = obj.get("hcct")
            return cls(
                node_name=str(obj["node"]),
                sensor_names=[str(s) for s in obj["sensor_names"]],
                n_records=int(obj.get("n_records", 0)),
                total_s={str(k): float(v)
                         for k, v in obj.get("total_s", {}).items()},
                exclusive_s={str(k): float(v)
                             for k, v in obj.get("exclusive_s", {}).items()},
                calls={str(k): int(v)
                       for k, v in obj.get("calls", {}).items()},
                arcs={(str(c), str(f)): int(n)
                      for c, f, n in obj.get("arcs", [])},
                span=None if span is None else (float(span[0]),
                                                float(span[1])),
                stats={
                    str(fname): {
                        str(s): OnlineStats.from_state(state)
                        for s, state in per.items()
                    }
                    for fname, per in obj.get("stats", {}).items()
                },
                sensor_summary={
                    str(s): OnlineStats.from_state(state)
                    for s, state in obj.get("sensor_summary", {}).items()
                },
                context_tree=(None if hcct is None
                              else ContextTree.from_dict(hcct)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed node summary: {exc}")


@dataclass
class RunSummary:
    """A whole run's mergeable summary: one :class:`NodeSummary` per node.

    ``sampling_hz`` is None only on the empty identity; merging adopts
    the first concrete value and rejects conflicts (two leaves sampling
    at different rates are different runs).
    """

    nodes: dict[str, NodeSummary] = field(default_factory=dict)
    sampling_hz: Optional[float] = None
    meta: dict = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "RunSummary":
        return cls()

    def clone(self) -> "RunSummary":
        return RunSummary(
            nodes={name: ns.clone() for name, ns in self.nodes.items()},
            sampling_hz=self.sampling_hz,
            meta=dict(self.meta),
        )

    def merge(self, other: "RunSummary") -> None:
        """Fold another run summary in, in place (node-wise merge)."""
        if other.sampling_hz is not None:
            if self.sampling_hz is None:
                self.sampling_hz = other.sampling_hz
            elif other.sampling_hz != self.sampling_hz:
                raise TraceError(
                    f"cannot merge summaries sampled at "
                    f"{other.sampling_hz} Hz into {self.sampling_hz} Hz"
                )
        if not self.meta:
            self.meta = dict(other.meta)
        for name, ns in other.nodes.items():
            held = self.nodes.get(name)
            if held is None:
                self.nodes[name] = ns.clone()
            else:
                held.merge(ns)

    @property
    def n_records(self) -> int:
        return sum(ns.n_records for ns in self.nodes.values())

    def to_profile(self, *, min_samples_for_stats: int = 1) -> RunProfile:
        hz = self.sampling_hz if self.sampling_hz is not None else 4.0
        return RunProfile(
            nodes={
                name: ns.to_node_profile(
                    sampling_hz=hz,
                    min_samples_for_stats=min_samples_for_stats,
                )
                for name, ns in self.nodes.items()
            },
            sampling_hz=hz,
            meta=dict(self.meta),
        )

    def to_dict(self) -> dict:
        return {
            "format": SUMMARY_FORMAT,
            "sampling_hz": self.sampling_hz,
            "meta": dict(self.meta),
            "nodes": {name: ns.to_dict()
                      for name, ns in sorted(self.nodes.items())},
        }

    def content_digest(self) -> str:
        """sha256 of the canonical serialized form.

        Stable across processes and machines: floats serialize via
        ``repr`` (shortest round-trip) inside ``OnlineStats.to_state``
        and the canonical JSON encoding fixes key order and separators,
        so two bit-identical summaries always hash alike.  This is the
        digest `tempest lab` manifests record and `lab rerun` compares.
        """
        from repro.util.canonjson import content_digest

        return content_digest(self.to_dict())

    @classmethod
    def from_dict(cls, obj: dict) -> "RunSummary":
        fmt = obj.get("format")
        if fmt not in SUMMARY_FORMATS_ACCEPTED:
            raise TraceError(
                f"summary declares format {fmt!r}, expected one of "
                f"{list(SUMMARY_FORMATS_ACCEPTED)}"
            )
        hz = obj.get("sampling_hz")
        return cls(
            nodes={
                str(name): NodeSummary.from_dict(ns)
                for name, ns in obj.get("nodes", {}).items()
            },
            sampling_hz=None if hz is None else float(hz),
            meta=dict(obj.get("meta", {})),
        )
