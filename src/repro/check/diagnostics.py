"""Typed diagnostics: the common currency of every checker.

A :class:`Diagnostic` is one finding — rule id, severity, location, human
message, machine-actionable fix hint.  The :data:`RULES` registry is the
single source of truth for every codified invariant: TraceLint rules
(``TL0xx``), communication-sanitizer rules (``CM0xx``), determinism rules
(``DS0xx``), and repo lint rules (``DL0xx``).  ``docs/INTERNALS.md`` carries the same catalogue in prose;
``tests/check/test_tracelint.py`` asserts the two never drift apart.

:class:`CheckReport` aggregates findings across inputs, renders them for
humans, serializes them as ``tempest-check-v1`` JSON for CI artifacts,
and maps the outcome onto the CLI exit-code contract
(0 ok / 1 findings / 2 usage-or-crash).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

#: severity levels, most severe first
SEV_ERROR = "error"      # the artifact is unusable or lying
SEV_WARNING = "warning"  # recoverable, but the numbers need a caveat
SEV_INFO = "info"        # worth knowing, never a failure

_SEVERITIES = (SEV_ERROR, SEV_WARNING, SEV_INFO)

#: machine-readable report format tag
REPORT_FORMAT = "tempest-check-v1"


@dataclass(frozen=True)
class Rule:
    """One codified invariant."""

    id: str           # stable identifier, e.g. "TL006"
    name: str         # kebab-case slug, e.g. "stack-imbalance"
    severity: str     # default severity of findings (may be downgraded)
    invariant: str    # what must hold
    tolerance: str = "exact"  # the numeric tolerance enforced, if any


def _r(id: str, name: str, severity: str, invariant: str,
       tolerance: str = "exact") -> Rule:
    return Rule(id, name, severity, invariant, tolerance)


#: every rule any checker can emit, keyed by id
RULES: dict[str, Rule] = {r.id: r for r in [
    # ------------------------------------------------------------- TraceLint
    _r("TL001", "bundle-header", SEV_ERROR,
       "the trace directory header (or a legacy bundle's) reads: "
       "parses, declares its layout's format, has a well-formed symbol "
       "table, meta and nodes mapping, and every node entry carries a "
       "numeric tsc_hz, a list of sensor names, and n_records in every "
       "entry (closed) or in none (live)"),
    _r("TL002", "record-file-torn", SEV_ERROR,
       "each node's record file is readable and a whole multiple of the "
       "33-byte record size (torn tails only survive a crash; a live "
       "spool's downgrade to warning because its tail is recoverable by "
       "design)"),
    _r("TL003", "record-count-mismatch", SEV_ERROR,
       "on-disk record count equals the header's n_records, unless the "
       "trace is flagged truncated and the file is short"),
    _r("TL004", "truncated-flag-incoherent", SEV_WARNING,
       "a truncated flag is only set when the record file actually lost "
       "data (flag set on an intact, count-matching trace is incoherent)"),
    _r("TL005", "unknown-record-kind", SEV_ERROR,
       "every record's kind is one this reader understands: ENTER (1), "
       "EXIT (2), TEMP (3), or a comm kind (4-7); kinds in the reserved "
       "comm extension range that a reader does not understand downgrade "
       "to warning (newer-writer records are skipped, not fatal)"),
    _r("TL006", "stack-imbalance", SEV_ERROR,
       "per process, EXITs match the top of the ENTER stack by address "
       "and call depth never goes negative"),
    _r("TL007", "open-frames", SEV_WARNING,
       "per process, the stream ends with every frame closed (open "
       "frames mean the trace lost its tail or the process died)"),
    _r("TL008", "tsc-regression", SEV_WARNING,
       "per process, function-event TSC values are non-decreasing "
       "(the §3.3 unbound-process hazard; lenient parsing clamps, "
       "strict parsing rejects)"),
    _r("TL009", "sensor-index-range", SEV_ERROR,
       "every TEMP record's sensor index addresses a declared sensor"),
    _r("TL010", "temp-implausible", SEV_WARNING,
       "TEMP values sit inside the physically plausible band",
       "-25.0 degC <= value <= 125.0 degC"),
    _r("TL011", "temp-quantization", SEV_WARNING,
       "TEMP values sit on the sensor quantization grid",
       "value is a multiple of 0.25 degC within 1e-6 steps"),
    _r("TL012", "calibration-insane", SEV_ERROR,
       "the node's tsc_hz calibration is finite, positive, and plausible",
       "1e3 Hz <= tsc_hz <= 1e12 Hz"),
    _r("TL013", "sensor-names-degenerate", SEV_WARNING,
       "declared sensor names are non-empty and unique"),
    _r("TL014", "symtab-unresolvable", SEV_ERROR,
       "every ENTER/EXIT address resolves through the bundle's symbol "
       "table"),
    _r("TL015", "empty-trace", SEV_INFO,
       "a declared node recorded at least one record"),
    _r("TL016", "sampling-hz-insane", SEV_ERROR,
       "the bundle's sampling_hz metadata is finite and positive"),
    _r("TL017", "layout-drift", SEV_ERROR,
       "records.RECORD_DTYPE is byte-identical to the historical "
       "<Bqqiid struct layout: same itemsize, same field offsets, and a "
       "sample record round-trips bit-for-bit through both"),
    _r("TL018", "chunking-divergence", SEV_WARNING,
       "the profile engine gives the same profile of a trace whether fed "
       "in STREAM_CHUNK_RECORDS chunks (TempestParser) or as one whole "
       "chunk per node, within documented tolerances",
       "times/avg/var/sdv rel 1e-9; n/min/max/med/mod/calls exact"),
    _r("TL019", "coverage-inconsistent", SEV_ERROR,
       "each function's coverage is in [0, 1] and equals "
       "min(1, n_samples / (total_time_s * sampling_hz)), pinned to 1.0 "
       "below four expected sweeps", "abs 1e-9"),
    _r("TL020", "stats-insane", SEV_ERROR,
       "every SensorStats satisfies min <= avg, med, mod <= max, "
       "var == sdv**2, n >= 0, and n == 0 implies NaN statistics",
       "var vs sdv**2 rel 1e-6"),
    _r("TL021", "significance-incoherent", SEV_WARNING,
       "significant implies total_time_s >= the sampling interval and "
       "non-empty sensor statistics"),
    _r("TL022", "wire-reassembly-divergence", SEV_ERROR,
       "a bundle reassembled from tempest-wire-v1 chunks is "
       "byte-identical to the locally saved bundle: same node set, each "
       "node's record file byte-for-byte equal, and equivalent header "
       "metadata (symtab, calibration, sensors, meta; key order and the "
       "derivable n_records/truncated fields excepted)"),
    _r("TL023", "hcct-invariant-broken", SEV_ERROR,
       "every hot calling-context tree is structurally sound: live "
       "parent/child links are mutual, exclusive times, calls, and "
       "error bounds are non-negative, and each node's inclusive time "
       "equals its exclusive time plus the sum of its children's "
       "inclusive times (so inclusive >= exclusive and a child never "
       "exceeds its parent)", "inclusive sums abs 1e-9"),
    _r("TL024", "hcct-budget-exceeded", SEV_ERROR,
       "a budgeted hot calling-context tree never exposes more than "
       "its --hcct-budget live contexts (the root is free), and a tree "
       "that evicted contexts reports a non-negative eviction threshold "
       "epsilon_s"),
    _r("TL025", "manifest-integrity", SEV_ERROR,
       "every tempest-manifest-v1 in a laboratory parses, declares the "
       "known format, and its declared inputs_digest and run id match "
       "what recomputing the content hash over the recorded inputs "
       "yields (an edited or bit-rotted manifest cannot masquerade as "
       "the run it no longer describes)"),
    _r("TL026", "digest-drift", SEV_ERROR,
       "every artifact a manifest or campaign references is present and "
       "hash-faithful: each referenced blob exists and its file bytes "
       "re-hash to the digest it is stored under (content addressing "
       "makes bit-rot detectable by construction)"),
    _r("TL027", "campaign-store-integrity", SEV_ERROR,
       "every campaign document parses, declares the known format, and "
       "references only completed runs of this laboratory whose "
       "manifests record the same summary digest the campaign cached "
       "(a campaign must not silently point at runs that were removed "
       "or re-recorded)"),
    # -------------------------------------------------- communication sanity
    _r("CM001", "message-race", SEV_ERROR,
       "every wildcard (ANY_SOURCE) receive has a causally unique match: "
       "no second compatible send, concurrent with the one that matched, "
       "was available when the receive completed (the nondeterminism "
       "class the DS001 scrambler exposes)"),
    _r("CM002", "wait-for-cycle", SEV_ERROR,
       "the wait-for graph over ranks at finalize — blocked specific-"
       "source receives and unmatched rendezvous sends — is acyclic"),
    _r("CM003", "collective-mismatch", SEV_ERROR,
       "every rank enters the same sequence of collectives with the same "
       "(op, root, tag-block) triples, and each rank's COLL_ENTER/"
       "COLL_EXIT records nest and balance"),
    _r("CM004", "unmatched-at-finalize", SEV_ERROR,
       "at trace end every MSG_SEND is referenced by a completion and "
       "every receive post completed (downgrades to warning when the "
       "node's trace is flagged truncated — the tail may simply be "
       "missing)"),
    _r("CM005", "causal-skew-violation", SEV_ERROR,
       "a receive never completes before its matching send was posted "
       "once timestamps convert through each node's tsc_hz calibration; "
       "a violation bounds the inter-node TSC skew from below (the §3.3 "
       "hazard, measured)",
       "1 ms by default — the bounded offset + drift of honest "
       "unsynchronized TSCs; tune with skew_tolerance_s"),
    _r("CM006", "comm-stream-malformed", SEV_WARNING,
       "the comm-event stream is internally coherent: per-rank clocks "
       "strictly increase, completions reference sends that exist, a "
       "rank's events stay on one node, and the clock-reference graph is "
       "acyclic (incoherence usually means record loss or a corrupted "
       "bundle; causal verdicts degrade to best-effort)"),
    # ----------------------------------------------------------- determinism
    _r("DS001", "unstable-tie-break", SEV_WARNING,
       "no two same-timestamp DES events scheduled from distinct call "
       "sites rely on insertion order for their execution order"),
    _r("DS002", "global-rng-draw", SEV_ERROR,
       "no sim-path code draws from the process-global random state "
       "(stdlib random module or numpy's global RNG); all randomness "
       "flows through seeded repro.util.rng substreams"),
    # ------------------------------------------------------------- repo lint
    _r("DL001", "wall-clock-in-sim", SEV_ERROR,
       "no wall-clock call (time.time/perf_counter/monotonic, "
       "datetime.now) inside repro.simmachine or repro.core hot paths; "
       "real-hardware backends opt out via a module pragma"),
    _r("DL002", "global-random", SEV_ERROR,
       "no stdlib random import and no draw from numpy's global RNG "
       "(np.random.<draw>() or seedless default_rng()); use "
       "repro.util.rng substreams or an explicitly seeded generator"),
    _r("DL003", "silent-except", SEV_ERROR,
       "no bare/except-Exception handler whose body swallows silently "
       "(pass/continue only, no logging, no re-raise)"),
    _r("DL004", "dtype-roundtrip", SEV_ERROR,
       "records.RECORD_DTYPE and trace._REC_STRUCT agree field-for-field "
       "and a record round-trips identically through both codecs"),
]}


def rule(rule_id: str) -> Rule:
    """Look up a rule by id (KeyError on unknown ids — a checker bug)."""
    return RULES[rule_id]


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one checker."""

    rule: str            # rule id, e.g. "TL006"
    severity: str        # error | warning | info
    message: str         # human-readable, self-contained
    path: str = ""       # artifact the finding is about (bundle, file)
    node: str = ""       # node name, when per-node
    location: str = ""   # finer position: record index, pid, sensor, line
    hint: str = ""       # how to fix or work around it

    def describe(self) -> str:
        """One-line rendering: ``severity RULE [path:node:loc] message``."""
        where = ":".join(p for p in (self.path, self.node, self.location)
                         if p)
        head = f"{self.severity:<7} {self.rule}"
        body = f" [{where}] {self.message}" if where else f" {self.message}"
        tail = f"  (hint: {self.hint})" if self.hint else ""
        return head + body + tail


def make_diagnostic(rule_id: str, message: str, *, path: str = "",
                    node: str = "", location: str = "", hint: str = "",
                    severity: str | None = None) -> Diagnostic:
    """Build a diagnostic with its severity defaulted from the registry.

    ``severity`` overrides the rule default for context-dependent
    downgrades (e.g. a torn spool tail is recoverable by design, so
    TL002 drops to warning there).
    """
    r = rule(rule_id)
    sev = severity if severity is not None else r.severity
    if sev not in _SEVERITIES:
        raise ValueError(f"unknown severity {sev!r}")
    return Diagnostic(rule=rule_id, severity=sev, message=message,
                      path=path, node=node, location=location, hint=hint)


class CheckReport:
    """Aggregated findings across every checked input."""

    def __init__(self):
        self.diagnostics: list[Diagnostic] = []
        self.checked: list[str] = []   # inputs examined, for the JSON report

    def extend(self, diags: list[Diagnostic]) -> None:
        self.diagnostics.extend(diags)

    def add_checked(self, label: str) -> None:
        self.checked.append(str(label))

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def n_errors(self) -> int:
        return self.count(SEV_ERROR)

    @property
    def n_warnings(self) -> int:
        return self.count(SEV_WARNING)

    def exit_code(self, *, strict: bool = False) -> int:
        """The CLI contract: 0 ok, 1 findings (errors, or warnings when
        strict).  Usage/crash exit code 2 is the caller's business."""
        if self.n_errors:
            return 1
        if strict and self.n_warnings:
            return 1
        return 0

    def sorted_diagnostics(self) -> list[Diagnostic]:
        """Findings ordered most-severe first, then rule id, then place."""
        order = {s: i for i, s in enumerate(_SEVERITIES)}
        return sorted(
            self.diagnostics,
            key=lambda d: (order[d.severity], d.rule, d.path, d.node,
                           d.location),
        )

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [d.describe() for d in self.sorted_diagnostics()]
        lines.append(
            f"{len(self.checked)} input(s) checked: "
            f"{self.n_errors} error(s), {self.n_warnings} warning(s), "
            f"{self.count(SEV_INFO)} info"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        from repro import __version__

        return {
            "format": REPORT_FORMAT,
            "tempest_version": __version__,
            "checked": list(self.checked),
            "counts": {s: self.count(s) for s in _SEVERITIES},
            "diagnostics": [asdict(d) for d in self.sorted_diagnostics()],
        }

    def to_json(self) -> str:
        """Machine-readable report (the CI artifact), canonical form."""
        from repro.util.canonjson import canon_dumps

        return canon_dumps(self.to_dict())
