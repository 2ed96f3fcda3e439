"""The campaign store: named run collections composed via the algebra.

A *campaign* is an ordered list of completed runs (ordered by when they
were added — the campaign's time axis).  The store persists only run
ids plus their summary-blob digests in ``campaign.json``; the
``tempest-summary-v3`` documents themselves stay in the content-addressed
blob store and are loaded *lazily* — a query for one node/function
touches each run's summary once, and the composed whole-campaign view
is built through :meth:`~repro.core.summary.RunSummary.merge` (the
summary algebra) rather than by re-reading any trace.

Cross-run regression detection reuses the §3.3 timestamp-regression
scanner (:func:`repro.core.tsc.detect_regressions`): a campaign metric
series is mapped onto a pseudo-record stream per (node, function) whose
"timestamps" are the *negated, milli-degree-quantized* metric values —
a metric that rises between consecutive runs appears as a TSC back-step,
and the scanner's per-pid running-max logic finds every rise against the
best value seen so far, exactly the semantics a thermal regression
check wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.summary import RunSummary
from repro.lab.laboratory import Laboratory
from repro.lab.manifest import RunManifest
from repro.util.canonjson import dump_canonical
from repro.util.errors import LabError

__all__ = [
    "CAMPAIGN_FORMAT",
    "CampaignRegression",
    "CampaignStore",
    "summary_metric",
]

#: format tag of every campaign document
CAMPAIGN_FORMAT = "tempest-campaign-v1"

#: metric-value quantization for the pseudo-TSC mapping (milli-units)
_METRIC_SCALE = 1000.0


def summary_metric(summary: RunSummary, *, node: Optional[str],
                   function: Optional[str], sensor: Optional[str],
                   stat: str = "avg") -> Optional[float]:
    """Extract one scalar metric from a run summary.

    With *sensor* set, reads the per-(function, sensor) estimator
    (``stat`` one of avg/min/max/med/mod/sdv/var/n) — or the node-level
    sensor summary when *function* is None.  Without a sensor, reads
    timing: ``stat`` one of total_s/exclusive_s/calls.  *node* None
    aggregates across nodes (sum for times/calls, sample-weighted merge
    for sensor stats).  Returns None when the selector matches nothing
    in this run.
    """
    from repro.core.streamprof import OnlineStats

    names = [node] if node is not None else sorted(summary.nodes)
    if sensor is not None:
        merged = OnlineStats()
        for name in names:
            ns = summary.nodes.get(name)
            if ns is None:
                continue
            if function is None:
                st = ns.sensor_summary.get(sensor)
            else:
                st = ns.stats.get(function, {}).get(sensor)
            if st is not None and st.n:
                merged.merge(st)
        if merged.n == 0:
            return None
        try:
            return float(getattr(merged, stat))
        except AttributeError:
            raise LabError(
                f"unknown sensor stat {stat!r}; have "
                "avg/min/max/med/mod/sdv/var/n"
            )
    if stat not in ("total_s", "exclusive_s", "calls"):
        raise LabError(
            f"unknown timing stat {stat!r}; have total_s/exclusive_s/calls "
            "(pass a sensor for thermal stats)"
        )
    total = 0.0
    hit = False
    for name in names:
        ns = summary.nodes.get(name)
        if ns is None:
            continue
        per = getattr(ns, stat)
        if function is None:
            if per:
                total += sum(per.values())
                hit = True
        elif function in per:
            total += per[function]
            hit = True
    return total if hit else None


@dataclass(frozen=True)
class CampaignRegression:
    """One cross-run metric regression inside a campaign."""

    node: str
    function: str
    run_id: str          # the run where the metric regressed
    best_run_id: str     # the best-so-far run it regressed against
    value: float
    best_value: float

    @property
    def delta(self) -> float:
        return self.value - self.best_value

    def describe(self) -> str:
        return (
            f"{self.node}/{self.function}: {self.value:.3f} in "
            f"{self.run_id} regressed {self.delta:+.3f} vs {self.best_value:.3f} "
            f"in {self.best_run_id}"
        )


class _PseudoRecord:
    """A metric sample disguised as a trace record for the §3.3 scanner."""

    __slots__ = ("kind", "pid", "tsc")

    def __init__(self, kind: int, pid: int, tsc: int):
        self.kind = kind
        self.pid = pid
        self.tsc = tsc


class CampaignStore:
    """One named campaign inside a laboratory."""

    def __init__(self, lab: Laboratory, name: str, doc: dict):
        self.lab = lab
        self.name = name
        self._doc = doc
        self._summaries: dict[str, RunSummary] = {}
        self._composed: Optional[tuple[tuple[str, ...], RunSummary]] = None

    # ------------------------------------------------------------------
    # Construction / persistence

    @classmethod
    def create(cls, lab: Laboratory, name: str) -> "CampaignStore":
        """Create (or re-open) a campaign — idempotent."""
        path = lab.campaign_dir(name) / "campaign.json"
        if path.is_file():
            return cls.open(lab, name)
        store = cls(lab, name, {
            "format": CAMPAIGN_FORMAT,
            "name": name,
            "runs": [],
        })
        with lab.lock:
            store._persist()
        return store

    @classmethod
    def open(cls, lab: Laboratory, name: str) -> "CampaignStore":
        import json

        path = lab.campaign_dir(name) / "campaign.json"
        if not path.is_file():
            raise LabError(
                f"no campaign {name!r} in {lab.root} "
                f"(have {lab.campaign_names() or 'none'})"
            )
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise LabError(f"{path}: unreadable campaign: {exc}")
        if doc.get("format") != CAMPAIGN_FORMAT:
            raise LabError(
                f"{path} declares format {doc.get('format')!r}, expected "
                f"{CAMPAIGN_FORMAT!r}"
            )
        return cls(lab, name, doc)

    def _persist(self) -> None:
        cdir = self.lab.campaign_dir(self.name)
        cdir.mkdir(parents=True, exist_ok=True)
        dump_canonical(cdir / "campaign.json", self._doc)

    # ------------------------------------------------------------------
    # Membership

    @property
    def entries(self) -> list[dict]:
        """Ordered run entries: {"run_id", "summary", "label"}."""
        return list(self._doc.get("runs", []))

    def run_ids(self) -> list[str]:
        """Run ids in campaign (insertion/time) order."""
        return [e["run_id"] for e in self._doc.get("runs", [])]

    def add_run(self, run_id: str, *, label: str = "") -> bool:
        """Add a completed run; returns False when already a member.

        Records the summary digest from the run's manifest so queries
        never need to re-open the manifest, and verifies the blob is
        actually present — a campaign must not reference artifacts the
        laboratory does not hold.
        """
        if run_id in self.run_ids():
            return False
        manifest = RunManifest.from_dict(self.lab.read_manifest_doc(run_id))
        digest = manifest.outputs.get("summary")
        if not digest:
            raise LabError(f"run {run_id} records no summary digest")
        if not self.lab.has_blob(digest):
            raise LabError(
                f"run {run_id}'s summary blob {digest[:12]}... is missing "
                "from the blob store"
            )
        with self.lab.lock:
            self._doc.setdefault("runs", []).append({
                "run_id": run_id,
                "summary": digest,
                "label": label or manifest.spec.label,
            })
            self._persist()
        self._composed = None
        return True

    # ------------------------------------------------------------------
    # Lazy composition over the summary algebra

    def load_summary(self, run_id: str) -> RunSummary:
        """One member run's summary, loaded from its blob (cached)."""
        held = self._summaries.get(run_id)
        if held is not None:
            return held
        for entry in self._doc.get("runs", []):
            if entry["run_id"] == run_id:
                summary = RunSummary.from_dict(
                    self.lab.get_json(entry["summary"]))
                self._summaries[run_id] = summary
                return summary
        raise LabError(f"run {run_id!r} is not in campaign {self.name!r}")

    def composed(self, run_ids: Optional[list[str]] = None) -> RunSummary:
        """The merged summary of the selected runs (default: all).

        Pure algebra: clones the first member and folds the rest in via
        :meth:`RunSummary.merge`.  The whole-campaign composition is
        cached and invalidated when membership changes.
        """
        ids = tuple(run_ids if run_ids is not None else self.run_ids())
        if self._composed is not None and self._composed[0] == ids:
            return self._composed[1]
        out = RunSummary.empty()
        for rid in ids:
            out.merge(self.load_summary(rid))
        if run_ids is None:
            self._composed = (ids, out)
        return out

    # ------------------------------------------------------------------
    # Metric series and regressions

    def time_series(self, *, node: Optional[str] = None,
                    function: Optional[str] = None,
                    sensor: Optional[str] = None,
                    stat: str = "avg") -> list[tuple[str, Optional[float]]]:
        """(run_id, metric) per member, in campaign order.

        Runs where the selector matches nothing yield None — a campaign
        may legitimately mix workloads that don't all contain a
        function.
        """
        return [
            (rid, summary_metric(self.load_summary(rid), node=node,
                                 function=function, sensor=sensor, stat=stat))
            for rid in self.run_ids()
        ]

    def detect_regressions(self, *, sensor: Optional[str] = None,
                           stat: str = "avg",
                           min_delta: float = 0.5,
                           node: Optional[str] = None,
                           function: Optional[str] = None,
                           ) -> list[CampaignRegression]:
        """Cross-run regressions of a metric over the campaign series.

        Every (node, function) pair selected by the filters becomes one
        pseudo-pid whose "timestamps" are the negated metric values,
        quantized to milli-units; the per-pid running-max scan of
        :func:`repro.core.tsc.detect_regressions` then reports exactly
        the runs whose metric rose above the best (lowest) value seen
        earlier in the campaign.  ``min_delta`` suppresses sub-threshold
        noise (default 0.5 — two 0.25 °C quantization steps of a thermal
        reading).
        """
        from repro.core.trace import REC_ENTER
        from repro.core.tsc import detect_regressions

        if sensor is None and stat == "avg":
            stat = "total_s"   # timing series unless a sensor is named
        ids = self.run_ids()
        pairs = self._selected_pairs(ids, node=node, function=function,
                                     sensor=sensor)
        records: list[_PseudoRecord] = []
        index_map: list[tuple[str, str, str, float]] = []
        values: dict[tuple[str, str], list[Optional[float]]] = {}
        for pid, (n, f) in enumerate(pairs):
            series = [
                summary_metric(self.load_summary(rid), node=n, function=f,
                               sensor=sensor, stat=stat)
                for rid in ids
            ]
            values[(n, f)] = series
            for rid, value in zip(ids, series):
                if value is None:
                    continue
                records.append(_PseudoRecord(
                    REC_ENTER, pid, -int(round(value * _METRIC_SCALE))))
                index_map.append((n, f, rid, value))
        out: list[CampaignRegression] = []
        for report in detect_regressions(records):
            if report.back_step_ticks < min_delta * _METRIC_SCALE:
                continue
            n, f, rid, value = index_map[report.index]
            best_rid, best_value = self._best_before(
                ids, values[(n, f)], rid)
            out.append(CampaignRegression(
                node=n, function=f, run_id=rid, best_run_id=best_rid,
                value=value, best_value=best_value,
            ))
        return out

    def _selected_pairs(self, ids, *, node, function, sensor):
        """The sorted (node, function) pairs the filters select."""
        pairs = set()
        for rid in ids:
            summary = self.load_summary(rid)
            for nname, ns in summary.nodes.items():
                if node is not None and nname != node:
                    continue
                names = (ns.stats if sensor is not None else ns.calls)
                for fname in names:
                    if function is not None and fname != function:
                        continue
                    pairs.add((nname, fname))
        return sorted(pairs)

    @staticmethod
    def _best_before(ids, series, rid):
        """The (run_id, value) of the running minimum before *rid*."""
        best_rid, best_value = None, None
        for other, value in zip(ids, series):
            if other == rid:
                break
            if value is not None and (best_value is None
                                      or value < best_value):
                best_rid, best_value = other, value
        return best_rid, best_value
