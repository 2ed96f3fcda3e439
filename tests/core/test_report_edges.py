"""Edge-case tests for reports, plots, and the profile model."""

import numpy as np
import pytest

from repro.core.ascii_plot import render_cluster_profile, render_series
from repro.core.profilemodel import FunctionProfile, NodeProfile, RunProfile
from repro.core.report import dump_csv, profile_to_rows, render_stdout_report
from repro.core.timeline import Timeline

from tests.core.oracle import compute_sensor_stats


def empty_node(name="n1"):
    return NodeProfile(
        node_name=name,
        duration_s=0.0,
        functions={},
        sensor_series={"CPU": (np.empty(0), np.empty(0))},
        timeline=Timeline({}, {}),
    )


def test_empty_node_report():
    assert render_stdout_report(empty_node()) == "(no functions profiled)"


def test_empty_run_profile_exports():
    run = RunProfile(nodes={"n1": empty_node()}, sampling_hz=4.0)
    assert profile_to_rows(run) == []
    assert dump_csv(run) == ""
    text = render_stdout_report(run)
    assert "Node: n1" in text


def test_show_calls_column():
    fp = FunctionProfile(
        name="f", total_time_s=2.0, exclusive_time_s=1.5, n_calls=7,
        significant=True,
        sensor_stats={"CPU": compute_sensor_stats([40.0, 41.0])},
    )
    node = NodeProfile(
        node_name="n1", duration_s=2.0, functions={"f": fp},
        sensor_series={"CPU": (np.array([0.0]), np.array([40.0]))},
        timeline=Timeline({}, {}),
    )
    text = render_stdout_report(node, show_calls=True)
    assert "Calls: 7" in text
    assert "Self(sec): 1.500000" in text
    plain = render_stdout_report(node)
    assert "Calls:" not in plain


def test_render_series_empty_and_constant():
    assert "(no samples)" in render_series(np.empty(0), np.empty(0),
                                           title="x")
    # A constant series must not divide by zero on the y-range.
    out = render_series(np.array([0.0, 1.0]), np.array([40.0, 40.0]))
    assert "*" in out


def test_render_cluster_with_empty_node():
    run = RunProfile(nodes={"n1": empty_node()}, sampling_hz=4.0)
    out = render_cluster_profile(run, "CPU")
    assert "no samples" in out


def test_mean_max_temperature_empty_series_nan():
    node = empty_node()
    assert np.isnan(node.mean_temperature("CPU"))
    assert np.isnan(node.max_temperature("CPU"))


def test_function_profile_hottest_sensor_empty():
    fp = FunctionProfile(
        name="f", total_time_s=0.1, exclusive_time_s=0.1, n_calls=1,
        significant=False,
    )
    assert fp.hottest_sensor() is None


def test_run_profile_hottest_node_without_cpu_sensors():
    """hottest_node falls back to all sensors when none match the filter."""
    node = NodeProfile(
        node_name="n1", duration_s=1.0, functions={},
        sensor_series={"Ambient": (np.array([0.0, 1.0]),
                                   np.array([25.0, 26.0]))},
        timeline=Timeline({}, {}),
    )
    run = RunProfile(nodes={"n1": node}, sampling_hz=4.0)
    assert run.hottest_node() == "n1"


def _node_at(name, temps):
    return NodeProfile(
        node_name=name, duration_s=1.0, functions={},
        sensor_series={"CPU": (np.arange(float(len(temps))),
                               np.array(temps, dtype=float))},
        timeline=Timeline({}, {}),
    )


def test_hottest_node_tie_breaks_by_name():
    """Equal scores resolve to the lexically smaller name, regardless of
    dict insertion order (previously dict-order dependent)."""
    hot = [50.0, 50.0]
    forward = RunProfile(
        nodes={"node1": _node_at("node1", hot),
               "node2": _node_at("node2", hot)},
        sampling_hz=4.0)
    backward = RunProfile(
        nodes={"node2": _node_at("node2", hot),
               "node1": _node_at("node1", hot)},
        sampling_hz=4.0)
    assert forward.hottest_node() == "node1"
    assert backward.hottest_node() == "node1"


def test_hottest_node_nan_scores_deterministic():
    """Nodes with no samples (NaN mean) score -inf, so an all-empty run
    still answers deterministically instead of by dict order."""
    run = RunProfile(
        nodes={"b": empty_node("b"), "a": empty_node("a")},
        sampling_hz=4.0)
    assert run.hottest_node() == "a"
    mixed = RunProfile(
        nodes={"a": empty_node("a"), "z": _node_at("z", [30.0])},
        sampling_hz=4.0)
    assert mixed.hottest_node() == "z"


def test_sensor_summary_fallback_without_series():
    """Streaming profiles carry per-sensor summaries instead of raw
    series; node-level temperature queries answer from them."""
    from repro.core.stats import SensorStats

    node = NodeProfile(
        node_name="n1", duration_s=1.0, functions={},
        sensor_series={},
        timeline=Timeline({}, {}),
        sensor_summary={"CPU": compute_sensor_stats([40.0, 44.0])},
    )
    assert node.sensor_names() == ["CPU"]
    assert node.mean_temperature("CPU") == pytest.approx(42.0)
    assert node.max_temperature("CPU") == 44.0
    empty = NodeProfile(
        node_name="n2", duration_s=0.0, functions={},
        sensor_series={}, timeline=Timeline({}, {}),
        sensor_summary={"CPU": SensorStats.empty()},
    )
    assert np.isnan(empty.mean_temperature("CPU"))
