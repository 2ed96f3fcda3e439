"""Static analysis and sanitizers for the profiling pipeline.

Tempest's whole value is trust in the numbers it reports: a per-function
thermal profile is only meaningful if the entry/exit stream balances, the
timestamps are monotone per process, and the sensor readouts are
physically sane.  ``repro.check`` makes those invariants *checkable*:

* :mod:`repro.check.diagnostics` — the typed diagnostic model (rule id,
  severity, location, fix hint) with machine-readable JSON output, plus
  the registry of every codified rule.
* :mod:`repro.check.tracelint` — TraceLint, the validator for trace
  directories (bundles and spools) and
  :class:`~repro.core.profilemodel.RunProfile` objects.
* :mod:`repro.check.determinism` — the DES determinism ("race")
  detector for :mod:`repro.simmachine.events`: unstable same-timestamp
  tie-breaks and unseeded global-RNG draws inside sim paths.
* :mod:`repro.check.causal` — the communication sanitizer: vector-clock
  happens-before reconstruction over recorded MPI comm events, reporting
  message races, wait-for cycles, collective mismatches, unmatched
  requests, and causal TSC-skew violations (CM0xx).
* :mod:`repro.check.labcheck` — LabLint, integrity checking for
  experiment laboratories: manifest digests, blob-store drift, and
  campaign references (TL025-TL027).

All of it surfaces through ``tempest check`` / ``tempest race`` (see
:mod:`repro.cli`) and the ``lint-and-check`` + ``race-smoke`` CI jobs.
"""

from repro.check.diagnostics import (
    SEV_ERROR,
    SEV_INFO,
    SEV_WARNING,
    CheckReport,
    Diagnostic,
    Rule,
    RULES,
    rule,
)
from repro.check.tracelint import (
    check_layout,
    check_path,
    check_profile,
    check_records,
    compare_bundle_dirs,
    compare_profiles,
)
from repro.check.determinism import (
    DeterminismReport,
    global_rng_guard,
    run_tie_scramble,
)
from repro.check.causal import (
    CausalAnalyzer,
    causal_check_bundle,
)
from repro.check.labcheck import check_lab_dir

__all__ = [
    "SEV_ERROR",
    "SEV_INFO",
    "SEV_WARNING",
    "CheckReport",
    "Diagnostic",
    "Rule",
    "RULES",
    "rule",
    "check_layout",
    "check_path",
    "check_profile",
    "check_records",
    "compare_bundle_dirs",
    "compare_profiles",
    "DeterminismReport",
    "global_rng_guard",
    "run_tie_scramble",
    "CausalAnalyzer",
    "causal_check_bundle",
    "check_lab_dir",
]
