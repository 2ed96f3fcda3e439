"""The experiment laboratory: manifested runs, campaigns, sweeps.

The profiling pipeline (``repro.core``) answers "where is this run
hot?"; the laboratory answers the questions *around* a run: can I
re-execute it bit-for-bit next month (``tempest lab rerun``), did my
artifacts rot on disk (``lab verify`` / ``tempest check``), how does
this configuration compare to the last forty (``lab query`` /
``lab diff``), and what happens across a whole parameter matrix
(``lab sweep``)?

* :mod:`repro.lab.laboratory` — the on-disk store: runs, campaigns, a
  content-addressed blob store, atomic document writes, a stealable
  writer lockfile.
* :mod:`repro.lab.manifest` — ``tempest-manifest-v1``: a run's identity
  as a content hash over everything needed to re-execute it, plus its
  output digests as reproducibility evidence.
* :mod:`repro.lab.execute` — spec → machine → session → summary; the
  record/rerun write paths.
* :mod:`repro.lab.store` — campaigns: ordered run collections composed
  lazily through the ``tempest-summary-v3`` merge algebra, with
  cross-run regression detection reusing the §3.3 timestamp scanner.
* :mod:`repro.lab.query` — metric queries and two-sided diffs
  (flat function deltas + composed-HCCT hot-path deltas).
* :mod:`repro.lab.sweep` — the cartesian matrix runner whose resume is
  a pure manifest-existence check.
"""

from repro.lab.laboratory import LAB_FORMAT, LabLock, Laboratory
from repro.lab.manifest import (
    MANIFEST_FORMAT,
    RunManifest,
    RunSpec,
    fault_plan_record,
    machine_fingerprint,
)
from repro.lab.execute import (
    ExecutedRun,
    RerunResult,
    build_machine,
    execute_run,
    plan_run,
    record_run,
    rerun_manifest,
)
from repro.lab.store import (
    CAMPAIGN_FORMAT,
    CampaignRegression,
    CampaignStore,
    summary_metric,
)
from repro.lab.query import (
    HotPathDelta,
    LabDiff,
    SensorDelta,
    diff_campaigns,
    diff_runs,
    diff_summaries,
    load_run_summary,
    query_campaign,
)
from repro.lab.sweep import SweepMatrix, SweepReport, run_sweep

__all__ = [
    "LAB_FORMAT",
    "MANIFEST_FORMAT",
    "CAMPAIGN_FORMAT",
    "Laboratory",
    "LabLock",
    "RunManifest",
    "RunSpec",
    "machine_fingerprint",
    "fault_plan_record",
    "ExecutedRun",
    "RerunResult",
    "build_machine",
    "execute_run",
    "plan_run",
    "record_run",
    "rerun_manifest",
    "CampaignRegression",
    "CampaignStore",
    "summary_metric",
    "HotPathDelta",
    "LabDiff",
    "SensorDelta",
    "diff_campaigns",
    "diff_runs",
    "diff_summaries",
    "load_run_summary",
    "query_campaign",
    "SweepMatrix",
    "SweepReport",
    "run_sweep",
]
