"""Profile data model: the parser's output, the reports' input.

A :class:`RunProfile` holds one :class:`NodeProfile` per cluster node; each
node profile holds per-function :class:`FunctionProfile` entries (inclusive
time, call count, per-sensor statistics, thermal significance) plus the raw
sensor time series and the call-timeline aggregates — everything Figures
2-4 and Tables 2-3 draw from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

import numpy as np

from repro.core.stats import SensorStats
from repro.core.timeline import Timeline
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from repro.core.cct import ContextNode, ContextTree


def hottest_first(keys: Iterable, score: Callable) -> list:
    """Deterministic hotness ordering shared by every profile surface.

    Sorts *keys* by descending ``score(key)``; ties — and NaN scores,
    which rank as ``-inf`` — break toward the smaller key under its
    natural ordering (lexicographic for function names, node names and
    context paths).  The single tie-break rule behind
    :meth:`RunProfile.hottest_node`, :meth:`NodeProfile.functions_by_time`
    and ``ContextTree.hot_paths``, so report order never depends on dict
    insertion order or per-site ad-hoc keys.
    """
    def key(k):
        s = score(k)
        if s != s:          # NaN: rank below every real score
            s = float("-inf")
        return (-s, k)

    return sorted(keys, key=key)


@dataclass
class FunctionProfile:
    """One function's profile on one node."""

    name: str
    total_time_s: float          # inclusive (union of activations)
    exclusive_time_s: float      # self time (top of stack)
    n_calls: int
    significant: bool            # total time >= sensor sampling interval
    sensor_stats: dict[str, SensorStats] = field(default_factory=dict)
    n_samples: int = 0           # sample sweeps attributed to this function
    #: fraction of the expected sampling sweeps that actually landed in
    #: this function's intervals (< 1.0 when sensor failures, record loss,
    #: or a dead tempd left gaps); 1.0 when the function is too short for
    #: the question to be meaningful
    coverage: float = 1.0

    def hottest_sensor(self) -> Optional[tuple[str, SensorStats]]:
        """The sensor with the highest average, or None if insignificant."""
        if not self.sensor_stats:
            return None
        name = max(self.sensor_stats, key=lambda s: self.sensor_stats[s].avg)
        return name, self.sensor_stats[name]


@dataclass
class NodeProfile:
    """All profile data for one node."""

    node_name: str
    duration_s: float
    functions: dict[str, FunctionProfile]
    sensor_series: dict[str, tuple[np.ndarray, np.ndarray]]  # name -> (t, degC)
    timeline: Timeline
    #: per-sensor whole-node statistics from the profile engine; the raw
    #: ``sensor_series`` is only filled where the records are resident —
    #: the parser and the served profile
    #: (:func:`repro.core.parser.attach_sensor_series`) — and by ``parse
    #: --html`` (:func:`repro.core.parser.read_sensor_series`)
    sensor_summary: dict[str, SensorStats] = field(default_factory=dict)
    #: the node's hot calling-context tree (:mod:`repro.core.cct`), when
    #: the producer was asked to keep one (``hcct_budget``); the flat
    #: ``functions`` map is a projection of it, not a separate account
    context_tree: Optional["ContextTree"] = None

    def functions_by_time(self) -> list[FunctionProfile]:
        """Functions ordered by decreasing inclusive time (report order).

        Ties break via :func:`hottest_first` (lexically smaller name
        first), never by dict insertion order.
        """
        return [
            self.functions[name] for name in hottest_first(
                self.functions, lambda n: self.functions[n].total_time_s)
        ]

    def hot_paths(self, k: int = 10) -> list["ContextNode"]:
        """Top-*k* calling contexts by exclusive weight, hottest first.

        Empty when the producer kept no context tree (the flat profile
        cannot answer context-sensitive queries).
        """
        if self.context_tree is None:
            return []
        return self.context_tree.hot_paths(k)

    def function(self, name: str) -> FunctionProfile:
        try:
            return self.functions[name]
        except KeyError:
            raise ConfigError(
                f"no function {name!r} profiled on {self.node_name}; "
                f"have {sorted(self.functions)}"
            )

    def sensor_names(self) -> list[str]:
        if self.sensor_series:
            return list(self.sensor_series)
        return list(self.sensor_summary)

    def mean_temperature(self, sensor: str) -> float:
        """Run-average temperature of one sensor (degC)."""
        series = self.sensor_series.get(sensor)
        if series is not None and len(series[1]):
            return float(series[1].mean())
        summary = self.sensor_summary.get(sensor)
        if summary is not None and summary.n:
            return summary.avg
        return float("nan")

    def max_temperature(self, sensor: str) -> float:
        """Run-peak temperature of one sensor (degC)."""
        series = self.sensor_series.get(sensor)
        if series is not None and len(series[1]):
            return float(series[1].max())
        summary = self.sensor_summary.get(sensor)
        if summary is not None and summary.n:
            return summary.max
        return float("nan")


@dataclass
class RunProfile:
    """A whole profiled run across the cluster."""

    nodes: dict[str, NodeProfile]
    sampling_hz: float
    meta: dict = field(default_factory=dict)

    def node(self, name: str) -> NodeProfile:
        try:
            return self.nodes[name]
        except KeyError:
            raise ConfigError(f"no node {name!r}; have {list(self.nodes)}")

    def node_names(self) -> list[str]:
        return list(self.nodes)

    def function_names(self) -> list[str]:
        """Union of functions across nodes, by total time on any node."""
        totals: dict[str, float] = {}
        for np_ in self.nodes.values():
            for f in np_.functions.values():
                totals[f.name] = max(totals.get(f.name, 0.0), f.total_time_s)
        return sorted(totals, key=totals.get, reverse=True)

    def hottest_node(self, sensor_pred=None) -> str:
        """Node with the highest mean CPU-sensor temperature.

        ``sensor_pred(name) -> bool`` filters which sensors count; defaults
        to CPU-ish sensors (name contains "CPU"), falling back to all.
        Ordering (ties included) follows :func:`hottest_first`: all-NaN
        scores rank last, ties break toward the lexically smaller node
        name, never dict insertion order.
        """
        pred = sensor_pred or (lambda s: "CPU" in s)

        def score(node: NodeProfile) -> float:
            names = [s for s in node.sensor_names() if pred(s)] or node.sensor_names()
            if not names:
                return float("-inf")
            return float(np.mean([node.mean_temperature(s) for s in names]))

        if not self.nodes:
            raise ConfigError("hottest_node on a profile with no nodes")
        return hottest_first(self.nodes, lambda n: score(self.nodes[n]))[0]

    def context_tree(self) -> Optional["ContextTree"]:
        """The cluster-wide HCCT: the merge of every node's tree.

        ``None`` when no node kept one.  The merge is the space-saving
        union (budget-bounded, error bounds composed), so the result is
        exactly what a fan-in root would compose from per-node summary
        trees.
        """
        trees = [n.context_tree for n in self.nodes.values()
                 if n.context_tree is not None]
        if not trees:
            return None
        merged = trees[0].clone()
        for t in trees[1:]:
            merged.merge(t)
        return merged

    def hot_paths(self, k: int = 10) -> list["ContextNode"]:
        """Top-*k* calling contexts across the whole run, hottest first."""
        tree = self.context_tree()
        if tree is None:
            return []
        return tree.hot_paths(k)
