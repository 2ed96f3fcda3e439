"""Span recorder: self times, and no recorder code inside untraced units."""

from bench import spans
from bench.run import Runner
from bench.spans import NULL, Span, SpanRecorder, self_time_table, self_times
from bench.workloads import WORKLOADS


def test_self_time_subtracts_the_union_of_clipped_children():
    tree = [
        Span("root", 0, 100),
        Span("a", 10, 30, parent=0),
        Span("b", 20, 50, parent=0),      # overlaps a: counted once
        Span("c", 90, 120, parent=0),     # clipped to the parent's end
        Span("a.x", 12, 18, parent=1),
    ]
    assert [round(t * 1e9) for t in self_times(tree)] == [50, 14, 30, 30, 6]
    table = self_time_table(tree)
    assert table["a"]["n"] == 1 and round(table["root"]["self_s"] * 1e9) == 50


def test_recorder_nests_and_tags():
    rec = SpanRecorder()
    rec.workload, rec.unit = "w", 3
    with rec.span("outer", records=7):
        with rec.span("inner") as inner:
            pass
    outer = rec.spans[0]
    assert (inner.parent, outer.parent) == (0, None)
    assert outer.counts == {"records": 7}
    assert (outer.workload, outer.unit) == ("w", 3)
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert self_times(rec.spans)[0] <= outer.seconds - inner.seconds + 1e-9


def test_untraced_units_run_no_recorder_code(tmp_path, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("recorder code ran inside an untraced unit")

    monkeypatch.setattr(SpanRecorder, "span", forbidden)
    monkeypatch.setattr(spans.Span, "__init__", forbidden)
    assert NULL.span("x") is NULL.span("y")
    runner = Runner(WORKLOADS["profile-1m"], seed=1, scale=0.01, seconds=0,
                    work=tmp_path)
    try:
        runner.run_untraced()
    finally:
        runner.close()
    assert runner.failed == 0, runner.failures


def test_traced_run_reports_self_times(tmp_path):
    runner = Runner(WORKLOADS["profile-1m"], seed=1, scale=0.01, seconds=0,
                    work=tmp_path)
    try:
        doc = runner.run_traced()
    finally:
        runner.close()
    assert runner.failed == 0, runner.failures
    assert {"unit", "trace.load", "parser.parse", "probe"} <= set(doc["self_times"])
    assert doc["metrics"]["parser.parse_s"]["value"] > 0
    assert doc["metrics"]["trace_overhead_pct"]["unit"] == "%"
