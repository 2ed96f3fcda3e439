"""TSC calibration and timestamp diagnostics.

The raw trace carries time-stamp-counter ticks; turning them into seconds
needs the counter frequency.  The simulator knows it exactly (the nominal
core clock); the real backend measures it the way profilers do — sample the
counter against a reference clock over a short interval.  This module also
houses the §3.3 diagnostics the parser's strict mode relies on: detecting
per-process timestamp regressions (the signature of an unbound process
migrating across skewed cores) before timeline reconstruction.
"""

from __future__ import annotations

# repro-lint: allow=wall-clock — calibration *measures* the host clock;
# that is its whole job, not a leak of wall time into the simulation.
import time
from dataclasses import dataclass

import numpy as np

from repro.core.trace import REC_ENTER, REC_EXIT
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class TscCalibration:
    """A counter-frequency calibration."""

    hz: float

    def __post_init__(self):
        if self.hz <= 0:
            raise ConfigError(f"calibrated frequency must be positive: {self}")

    def to_seconds(self, ticks: int) -> float:
        """Convert raw counter ticks to seconds."""
        return ticks / self.hz

    def to_ticks(self, seconds: float) -> int:
        """Convert seconds to counter ticks."""
        return int(seconds * self.hz)


def calibrate_perf_counter(interval_s: float = 0.05) -> TscCalibration:
    """Measure ``time.perf_counter_ns``'s tick rate against itself.

    ``perf_counter_ns`` is defined in nanoseconds, so this measures ~1 GHz
    by construction — the value of doing it anyway is exercising the same
    code path a real rdtsc calibration uses (two reference readings
    bracketing a busy interval), and confirming the clock actually
    advances on this host.
    """
    if interval_s <= 0:
        raise ConfigError(f"interval must be positive: {interval_s}")
    t0_ref = time.monotonic()
    c0 = time.perf_counter_ns()
    deadline = t0_ref + interval_s
    while time.monotonic() < deadline:
        pass
    c1 = time.perf_counter_ns()
    t1_ref = time.monotonic()
    elapsed_ref = t1_ref - t0_ref
    if elapsed_ref <= 0 or c1 <= c0:
        raise ConfigError("reference clock did not advance during calibration")
    return TscCalibration(hz=(c1 - c0) / elapsed_ref)


@dataclass(frozen=True)
class RegressionReport:
    """A per-process timestamp-regression diagnosis."""

    pid: int
    index: int          # position of the offending record in the stream
    back_step_ticks: int

    def describe(self) -> str:
        return (
            f"pid {self.pid}: record #{self.index} steps back "
            f"{self.back_step_ticks} ticks — was the process bound to one "
            "core? (§3.3)"
        )


def detect_regressions(records: np.ndarray) -> list[RegressionReport]:
    """Scan function records for per-pid non-monotonic timestamps.

    A clean (bound) trace returns an empty list; an unbound process that
    migrated across skewed cores shows up here before the timeline builder
    rejects it, so tools can report *which* process broke the binding rule.

    *records* is a structured record array; one running-max pass per pid
    finds every record below its pid's earlier maximum.  Reported indices
    refer to positions in the array passed in.
    """
    kind = records["kind"]
    mask = (kind == REC_ENTER) | (kind == REC_EXIT)
    positions = np.nonzero(mask)[0]
    tsc = records["tsc"][mask]
    pids = records["pid"][mask]
    out: list[RegressionReport] = []
    for pid in np.unique(pids):
        sel = pids == pid
        t = tsc[sel]
        if len(t) < 2:
            continue
        pos = positions[sel]
        prev_max = np.maximum.accumulate(t)[:-1]
        bad = np.nonzero(t[1:] < prev_max)[0] + 1
        for j in bad:
            out.append(
                RegressionReport(
                    pid=int(pid), index=int(pos[j]),
                    back_step_ticks=int(prev_max[j - 1] - t[j]),
                )
            )
    out.sort(key=lambda r: r.index)
    return out


def cross_core_skew(records: np.ndarray) -> dict[tuple[int, int], int]:
    """Rough per-core-pair skew estimate from adjacent cross-core records.

    For each pid whose consecutive function records moved between cores,
    the tick difference bounds the skew between those two cores (plus the
    genuine elapsed time, so this is an upper-bound diagnostic, not a
    measurement).  *records* is a structured record array.  Returns
    ``{(core_a, core_b): max observed |delta|}``.
    """
    kind = records["kind"]
    func = records[(kind == REC_ENTER) | (kind == REC_EXIT)]
    # Stable: each pid's records keep their stream order.
    func = func[np.argsort(func["pid"], kind="stable")]
    pid, core, tsc = func["pid"], func["core"], func["tsc"]
    moved = (pid[1:] == pid[:-1]) & (core[1:] != core[:-1])
    lo = np.minimum(core[1:], core[:-1])[moved]
    hi = np.maximum(core[1:], core[:-1])[moved]
    delta = np.abs(tsc[1:] - tsc[:-1])[moved]
    out: dict[tuple[int, int], int] = {}
    for a, b, d in zip(lo.tolist(), hi.tolist(), delta.tolist()):
        out[(a, b)] = max(out.get((a, b), 0), d)
    return out
