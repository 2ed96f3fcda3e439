"""Tests for the per-sensor statistics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import SensorStats
from repro.util.errors import ConfigError

from tests.core.oracle import compute_sensor_stats


def test_basic_statistics():
    st_ = compute_sensor_stats([40.0, 42.0, 42.0, 44.0])
    assert st_.n == 4
    assert st_.min == 40.0
    assert st_.max == 44.0
    assert st_.avg == pytest.approx(42.0)
    assert st_.med == pytest.approx(42.0)
    assert st_.mod == pytest.approx(42.0)


def test_var_is_sdv_squared():
    """The paper's tables satisfy Var = Sdv**2 (population statistics)."""
    st_ = compute_sensor_stats([45.0, 46.0, 48.0, 49.0, 52.0])
    assert st_.var == pytest.approx(st_.sdv**2)


def test_mode_tie_breaks_toward_smaller():
    st_ = compute_sensor_stats([40.0, 40.0, 44.0, 44.0])
    assert st_.mod == 40.0


def test_single_sample():
    st_ = compute_sensor_stats([47.0])
    assert st_.min == st_.max == st_.avg == st_.med == st_.mod == 47.0
    assert st_.sdv == 0.0 and st_.var == 0.0


def test_empty_rejected():
    with pytest.raises(ConfigError):
        compute_sensor_stats([])


def test_fahrenheit_conversion():
    st_c = compute_sensor_stats([40.0, 50.0])
    st_f = st_c.to_fahrenheit()
    assert st_f.min == pytest.approx(104.0)
    assert st_f.max == pytest.approx(122.0)
    assert st_f.avg == pytest.approx(113.0)
    # Spread statistics scale by 9/5 (no offset).
    assert st_f.sdv == pytest.approx(st_c.sdv * 1.8)
    assert st_f.var == pytest.approx(st_c.var * 1.8**2)
    # Var = Sdv^2 is preserved by the conversion.
    assert st_f.var == pytest.approx(st_f.sdv**2)


def test_as_tuple_order_matches_report_columns():
    st_ = compute_sensor_stats([1.0, 2.0, 3.0])
    t = st_.as_tuple()
    assert t == (st_.min, st_.avg, st_.max, st_.sdv, st_.var, st_.med, st_.mod)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50.0, max_value=150.0, allow_nan=False),
        min_size=1,
        max_size=200,
    )
)
def test_property_invariants(values):
    s = compute_sensor_stats(values)
    assert s.min <= s.avg <= s.max
    assert s.min <= s.med <= s.max
    assert s.min <= s.mod <= s.max
    assert s.sdv >= 0.0
    assert s.var == pytest.approx(s.sdv**2, rel=1e-9, abs=1e-12)
    assert s.n == len(values)
    np_vals = np.asarray(values)
    assert s.avg == pytest.approx(float(np_vals.mean()), rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from([40.0, 41.0, 42.0, 43.0]), min_size=1, max_size=50
    )
)
def test_property_mode_is_most_frequent(values):
    s = compute_sensor_stats(values)
    counts = {v: values.count(v) for v in set(values)}
    best = max(counts.values())
    assert counts[s.mod] == best
