"""Per-sensor descriptive statistics (the columns of Figure 2(a)).

Tempest reports Min / Avg / Max / Sdv / Var / Med / Mod for every sensor
over the samples attributed to a function.  ``Sdv`` is the population
standard deviation (the paper's Table 2 satisfies ``Var = Sdv**2``), and
``Mod`` is the most frequent quantized reading, ties broken toward the
smaller value for determinism.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.util.errors import ConfigError
from repro.util.units import c_to_f


@dataclass(frozen=True)
class SensorStats:
    """Summary statistics of one sensor's samples (degC)."""

    n: int
    min: float
    avg: float
    max: float
    sdv: float
    var: float
    med: float
    mod: float

    def to_fahrenheit(self) -> "SensorStats":
        """Convert location statistics to degF; spread scales by 9/5."""
        k = 9.0 / 5.0
        return SensorStats(
            n=self.n,
            min=c_to_f(self.min),
            avg=c_to_f(self.avg),
            max=c_to_f(self.max),
            sdv=self.sdv * k,
            var=self.var * k * k,
            med=c_to_f(self.med),
            mod=c_to_f(self.mod),
        )

    def as_tuple(self) -> tuple:
        return (self.min, self.avg, self.max, self.sdv, self.var,
                self.med, self.mod)

    @classmethod
    def empty(cls) -> "SensorStats":
        """The zero-sample statistic set: ``n == 0``, everything else NaN.

        The explicit alternative to :func:`compute_sensor_stats` raising
        on empty input — callers that must represent an uncovered
        (function, sensor) pair carry this instead of special-casing, and
        reports render the NaNs as absent.
        """
        nan = math.nan
        return cls(n=0, min=nan, avg=nan, max=nan, sdv=nan, var=nan,
                   med=nan, mod=nan)

    @classmethod
    def from_accumulator(cls, acc) -> "SensorStats":
        """Summarize an online accumulator (duck-typed: anything exposing
        ``n``/``min``/``max``/``avg``/``var``/``sdv``/``med``/``mod``,
        canonically :class:`repro.core.streamprof.OnlineStats`).

        Tolerance vs the exact batch :func:`compute_sensor_stats` over the
        same samples: ``n``/``min``/``max``/``med``/``mod`` are exact;
        ``avg`` / ``var`` / ``sdv`` differ only by summation-order rounding
        (Welford vs numpy pairwise, relative error ~1e-12).
        """
        if acc.n == 0:
            return cls.empty()
        return cls(
            n=int(acc.n),
            min=float(acc.min),
            avg=min(max(float(acc.avg), float(acc.min)), float(acc.max)),
            max=float(acc.max),
            sdv=float(acc.sdv),
            var=float(acc.var),
            med=float(acc.med),
            mod=float(acc.mod),
        )


def compute_sensor_stats(values: Sequence[float]) -> SensorStats:
    """Compute the full statistic set over one sensor's samples."""
    if len(values) == 0:
        raise ConfigError("cannot compute statistics over zero samples")
    arr = np.asarray(values, dtype=float)
    # Sensor readings are quantized, so equal readings are bit-identical
    # floats and an exact Counter gives the mode.
    counts = Counter(arr.tolist())
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    lo, hi = float(arr.min()), float(arr.max())
    # Pairwise-summation round-off can push the mean an ulp outside the
    # sample range; clamp so min <= avg <= max holds exactly.
    avg = min(max(float(arr.mean()), lo), hi)
    return SensorStats(
        n=int(arr.size),
        min=lo,
        avg=avg,
        max=hi,
        sdv=float(arr.std()),       # population, so Var == Sdv**2
        var=float(arr.var()),
        med=float(np.median(arr)),
        mod=float(best[0]),
    )
