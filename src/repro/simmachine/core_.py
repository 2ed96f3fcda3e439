"""Simulated CPU cores and their time-stamp counters.

Tempest timestamps function entry/exit with ``rdtsc``.  The paper's §3.3
notes the resulting hazards — TSCs on different cores are *skewed* relative
to each other and *drift* at slightly different rates — which is why Tempest
binds each profiled process to one core.  :class:`TscSpec` models exactly
those two effects so the reproduction can both rely on binding (the normal
path) and demonstrate the corruption that unbound migration causes (the
limitation ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.simmachine.power import OperatingPoint, ACTIVITY_IDLE
from repro.util.errors import ConfigError


@dataclass(frozen=True)
class TscSpec:
    """Per-core TSC imperfections.

    ``skew_cycles`` is the constant offset of this core's counter relative to
    an ideal counter started at machine boot; ``drift_ppm`` is the rate error
    in parts-per-million.  Typical commodity parts show microseconds of skew
    and single-digit ppm drift.
    """

    skew_cycles: int = 0
    drift_ppm: float = 0.0


class SimCore:
    """One simulated core: identity, DVFS state, activity, and a TSC."""

    def __init__(
        self,
        node_name: str,
        socket: int,
        index_in_socket: int,
        core_id: int,
        opps: tuple[OperatingPoint, ...],
        tsc_spec: TscSpec = TscSpec(),
        nominal_freq_hz: Optional[float] = None,
    ):
        if not opps:
            raise ConfigError("a core needs at least one operating point")
        self.node_name = node_name
        self.socket = socket
        self.index_in_socket = index_in_socket
        self.core_id = core_id
        self.opps = tuple(opps)
        self.opp_index = 0  # highest-performance point first
        self.tsc_spec = tsc_spec
        self.nominal_freq_hz = nominal_freq_hz or opps[0].freq_hz
        self.activity = ACTIVITY_IDLE
        #: set by the scheduler: the process currently computing on this core
        self.running = None

    @property
    def opp(self) -> OperatingPoint:
        """Current operating point."""
        return self.opps[self.opp_index]

    @property
    def freq_hz(self) -> float:
        """Current core clock frequency."""
        return self.opp.freq_hz

    def set_opp(self, index: int) -> None:
        """Switch the DVFS operating point (takes effect at directive
        boundaries; in-flight compute segments keep their original rate)."""
        if not 0 <= index < len(self.opps):
            raise ConfigError(f"opp index {index} out of range")
        self.opp_index = index

    def tsc(self, t: float) -> int:
        """Read the core's time-stamp counter at simulated time *t*.

        The counter ticks at the *nominal* frequency (invariant TSC) with
        this core's skew and drift applied — reading it from two different
        cores at the same instant returns different values.
        """
        rate = self.nominal_freq_hz * (1.0 + self.tsc_spec.drift_ppm * 1e-6)
        return int(rate * t) + self.tsc_spec.skew_cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimCore({self.node_name} s{self.socket}c{self.index_in_socket}"
            f" id={self.core_id} f={self.freq_hz/1e9:.2f}GHz act={self.activity})"
        )
