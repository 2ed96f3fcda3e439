"""Tests for TSC calibration and timestamp diagnostics."""

import pytest

from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP
from repro.core.tsc import (
    RegressionReport,
    TscCalibration,
    calibrate_perf_counter,
    cross_core_skew,
    detect_regressions,
)
from repro.util.errors import ConfigError
from tests.rows import Row, to_array


def test_calibration_roundtrip():
    cal = TscCalibration(hz=1.8e9)
    assert cal.to_seconds(1_800_000_000) == pytest.approx(1.0)
    assert cal.to_ticks(2.0) == 3_600_000_000


def test_calibration_validation():
    with pytest.raises(ConfigError):
        TscCalibration(hz=0.0)
    with pytest.raises(ConfigError):
        calibrate_perf_counter(interval_s=0.0)


def test_calibrate_perf_counter_near_1ghz():
    cal = calibrate_perf_counter(interval_s=0.02)
    # perf_counter_ns is nanoseconds by definition; allow scheduler slop.
    assert cal.hz == pytest.approx(1e9, rel=0.05)


def rec(kind, tsc, core=0, pid=1):
    return Row(kind, 0x400000, tsc, core, pid)


def test_detect_regressions_clean_trace():
    records = to_array([rec(REC_ENTER, 100), rec(REC_EXIT, 200),
                        rec(REC_ENTER, 300), rec(REC_EXIT, 400)])
    assert detect_regressions(records) == []


def test_detect_regressions_flags_backstep():
    records = to_array([rec(REC_ENTER, 1000), rec(REC_EXIT, 400)])
    reports = detect_regressions(records)
    assert len(reports) == 1
    assert reports[0].pid == 1
    assert reports[0].back_step_ticks == 600
    assert "§3.3" in reports[0].describe()


def test_detect_regressions_is_per_pid():
    records = to_array([
        rec(REC_ENTER, 1000, pid=1),
        rec(REC_ENTER, 50, pid=2),     # other pid: not a regression
        rec(REC_EXIT, 60, pid=2),
        rec(REC_EXIT, 1100, pid=1),
    ])
    assert detect_regressions(records) == []


def test_detect_regressions_ignores_temp_records():
    records = to_array([
        rec(REC_ENTER, 1000),
        Row(REC_TEMP, 0, 10, 3, 2, 40.0),  # tempd core, earlier tsc
        rec(REC_EXIT, 1100),
    ])
    assert detect_regressions(records) == []


def test_detect_regressions_running_max_survives_zero():
    # A running maximum of exactly 0 is still the maximum: both later
    # records step back from it.
    records = to_array([rec(REC_ENTER, 0), rec(REC_ENTER, -5),
                        rec(REC_ENTER, -3)])
    reports = detect_regressions(records)
    assert [(r.index, r.back_step_ticks) for r in reports] == [(1, 5), (2, 3)]


def test_cross_core_skew_bounds():
    records = to_array([
        rec(REC_ENTER, 1000, core=0),
        rec(REC_EXIT, 5000, core=1),      # migrated between records
        rec(REC_ENTER, 5100, core=1),
        rec(REC_EXIT, 5200, core=1),
    ])
    skew = cross_core_skew(records)
    assert skew == {(0, 1): 4000}


def test_cross_core_skew_empty_for_bound_process():
    records = to_array([rec(REC_ENTER, 1), rec(REC_EXIT, 2)])
    assert cross_core_skew(records) == {}


def test_cross_core_skew_interleaved_pids():
    # Two pids migrate independently; their records interleave in the
    # stream, and only consecutive records of the *same* pid pair up.
    # TEMP records (tempd's core) never count as a migration.
    records = to_array([
        rec(REC_ENTER, 100, core=0, pid=1),
        rec(REC_ENTER, 150, core=2, pid=2),
        Row(REC_TEMP, 0, 160, 3, 9, 40.0),
        rec(REC_ENTER, 400, core=1, pid=1),   # pid 1: 0 -> 1, |300|
        rec(REC_EXIT, 900, core=0, pid=2),    # pid 2: 2 -> 0, |750|
        rec(REC_EXIT, 450, core=0, pid=1),    # pid 1: 1 -> 0, |50|
        rec(REC_EXIT, 1000, core=2, pid=2),   # pid 2: 0 -> 2, |100|
        rec(REC_EXIT, 1900, core=0, pid=1),   # pid 1: same core
        rec(REC_ENTER, 1200, core=1, pid=2),  # pid 2: 2 -> 1, |200|
    ])
    assert cross_core_skew(records) == {(0, 1): 300, (0, 2): 750,
                                        (1, 2): 200}
