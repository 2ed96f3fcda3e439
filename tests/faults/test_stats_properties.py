"""Property-based checks of the exact statistics against a brute-force
reference: Min/Avg/Max/Sdv/Var/Med/Mod recomputed the slow, obvious way
must agree with the oracle's compute_sensor_stats for any sample set."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.errors import ConfigError
from repro.util.units import c_to_f

from tests.core.oracle import compute_sensor_stats

# Sensor readings are quantized (the paper's sensors report in steps), so
# model samples as a grid of half-degree readings in a plausible range.
quantized = st.integers(min_value=40, max_value=240).map(lambda k: k * 0.5)
sample_lists = st.lists(quantized, min_size=1, max_size=200)


def reference_stats(values):
    """The slow, obvious implementation — no numpy."""
    n = len(values)
    mean = sum(values) / n
    var = sum((v - mean) ** 2 for v in values) / n      # population
    s = sorted(values)
    if n % 2:
        med = s[n // 2]
    else:
        med = (s[n // 2 - 1] + s[n // 2]) / 2
    counts = Counter(values)
    top = max(counts.values())
    mode = min(v for v, c in counts.items() if c == top)  # tie -> smaller
    return {
        "n": n, "min": s[0], "avg": mean, "max": s[-1],
        "var": var, "sdv": math.sqrt(var), "med": med, "mod": mode,
    }


@settings(max_examples=300, deadline=None)
@given(values=sample_lists)
def test_matches_brute_force(values):
    got = compute_sensor_stats(values)
    ref = reference_stats(values)
    assert got.n == ref["n"]
    assert got.min == ref["min"]
    assert got.max == ref["max"]
    assert got.avg == pytest.approx(ref["avg"], rel=1e-12)
    assert got.var == pytest.approx(ref["var"], rel=1e-9, abs=1e-12)
    assert got.sdv == pytest.approx(ref["sdv"], rel=1e-9, abs=1e-12)
    assert got.med == pytest.approx(ref["med"])
    assert got.mod == ref["mod"]


@settings(max_examples=200, deadline=None)
@given(values=sample_lists)
def test_invariants(values):
    s = compute_sensor_stats(values)
    assert s.min <= s.avg <= s.max
    assert s.min <= s.med <= s.max
    assert s.min <= s.mod <= s.max
    assert s.mod in values                      # mode is an actual reading
    assert s.sdv >= 0.0
    assert s.var == pytest.approx(s.sdv ** 2, rel=1e-9, abs=1e-12)
    # Popoviciu: population variance is bounded by (range/2)^2.
    assert s.sdv <= (s.max - s.min) / 2 + 1e-9
    if len(set(values)) == 1:
        assert s.sdv == 0.0 and s.min == s.max == s.avg


@settings(max_examples=100, deadline=None)
@given(values=sample_lists)
def test_fahrenheit_conversion_consistent(values):
    c = compute_sensor_stats(values)
    f = c.to_fahrenheit()
    k = 9.0 / 5.0
    assert f.min == pytest.approx(c_to_f(c.min))
    assert f.avg == pytest.approx(c_to_f(c.avg))
    assert f.max == pytest.approx(c_to_f(c.max))
    assert f.med == pytest.approx(c_to_f(c.med))
    assert f.mod == pytest.approx(c_to_f(c.mod))
    assert f.sdv == pytest.approx(c.sdv * k)
    assert f.var == pytest.approx(c.var * k * k)
    # Var == Sdv**2 must survive the unit change.
    assert f.var == pytest.approx(f.sdv ** 2, rel=1e-9, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(values=sample_lists)
def test_order_invariance(values):
    """Statistics are a function of the multiset, not arrival order — up
    to summation round-off (numpy's pairwise sum is order-dependent)."""
    a = compute_sensor_stats(values)
    for other in (sorted(values), values[::-1]):
        b = compute_sensor_stats(other)
        assert (a.n, a.min, a.max, a.med, a.mod) == \
            (b.n, b.min, b.max, b.med, b.mod)
        assert a.avg == pytest.approx(b.avg, rel=1e-12)
        assert a.var == pytest.approx(b.var, rel=1e-9, abs=1e-12)
        assert a.sdv == pytest.approx(b.sdv, rel=1e-9, abs=1e-12)


def test_mode_tie_breaks_to_smaller():
    s = compute_sensor_stats([40.0, 40.0, 42.0, 42.0, 45.0])
    assert s.mod == 40.0


def test_empty_rejected():
    with pytest.raises(ConfigError):
        compute_sensor_stats([])
