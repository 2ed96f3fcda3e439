"""TraceLint unit tests: each rule fires on its invariant, and only then.

The golden end-to-end fixtures (fault-injected artifacts) live in
``test_golden_diagnostics.py``; this file exercises the checkers
directly on hand-built inputs, plus the registry/docs drift guard.
"""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np

from repro.check import RULES, CheckReport
from repro.check.tracelint import (
    check_layout,
    check_path,
    check_profile,
    compare_profiles,
)
from repro.core.parser import TempestParser
from repro.core.records import RECORD_SIZE
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP, TraceBundle
from repro.util.errors import ConfigError

from tests.check.fixtures import (
    build_bundle,
    lint_in_chunks,
    lint_records,
    records_array,
)
from tests.legacy import LAYOUTS

import pytest


def rules_of(diags):
    return sorted(d.rule for d in diags)


# ----------------------------------------------------------------------
# The registry itself


def test_registry_ids_are_well_formed():
    for rule_id, r in RULES.items():
        assert r.id == rule_id
        assert re.fullmatch(r"(TL|DS|DL|CM)\d{3}", rule_id)
        assert r.severity in ("error", "warning", "info")
        assert r.invariant


def test_registry_matches_internals_catalogue():
    """Every registered rule appears in docs/INTERNALS.md and vice versa —
    the prose catalogue and the code registry must never drift."""
    docs = Path(__file__).resolve().parents[2] / "docs" / "INTERNALS.md"
    text = docs.read_text()
    documented = set(re.findall(r"\b(?:TL|DS|DL|CM)\d{3}\b", text))
    assert documented == set(RULES)


# ----------------------------------------------------------------------
# TL017: layout self-check


def test_check_layout_clean():
    assert check_layout() == []


def test_check_layout_detects_itemsize_drift():
    drifted = np.dtype([("kind", "u1"), ("addr", "<i8"), ("tsc", "<i8"),
                        ("core", "<i4"), ("pid", "<i4"), ("value", "<f8")],
                       align=True)   # padding changes the itemsize
    diags = check_layout(drifted)
    assert rules_of(diags) == ["TL017"]


def test_check_layout_detects_field_reorder():
    drifted = np.dtype({"names": ["addr", "kind", "tsc", "core", "pid",
                                  "value"],
                        "formats": ["<i8", "u1", "<i8", "<i4", "<i4", "<f8"],
                        "offsets": [0, 8, 9, 17, 21, 25],
                        "itemsize": 33})
    diags = check_layout(drifted)
    assert rules_of(diags) == ["TL017"]


# ----------------------------------------------------------------------
# Record-stream rules


def test_empty_trace_is_info():
    diags = lint_records(records_array([]), node="node1")
    assert rules_of(diags) == ["TL015"]
    assert diags[0].severity == "info"


def test_unknown_record_kind():
    arr = records_array([(1, 10, 0, 0, 1, 0.0), (9, 10, 5, 0, 1, 0.0),
                         (2, 10, 9, 0, 1, 0.0)])
    diags = lint_records(arr)
    assert "TL005" in rules_of(diags)


def test_stack_imbalance_and_open_frames():
    # EXIT with empty stack; then an ENTER never closed.
    arr = records_array([(REC_EXIT, 10, 0, 0, 1, 0.0),
                         (REC_ENTER, 20, 5, 0, 1, 0.0)])
    diags = lint_records(arr)
    assert rules_of(diags) == ["TL006", "TL007"]


def test_tsc_regression():
    arr = records_array([(REC_ENTER, 10, 100, 0, 1, 0.0),
                         (REC_ENTER, 20, 50, 0, 1, 0.0),
                         (REC_EXIT, 20, 120, 0, 1, 0.0),
                         (REC_EXIT, 10, 130, 0, 1, 0.0)])
    diags = lint_records(arr)
    assert rules_of(diags) == ["TL008"]


def test_sensor_index_band_and_quantization():
    arr = records_array([
        (REC_TEMP, 0, 0, 0, 2, 44.5),     # fine
        (REC_TEMP, 7, 1, 0, 2, 44.5),     # TL009: only 2 sensors declared
        (REC_TEMP, 0, 2, 0, 2, 400.0),    # TL010: out of band
        (REC_TEMP, 1, 3, 0, 2, 44.51),    # TL011: off the 0.25 C grid
    ])
    diags = lint_records(arr, sensor_names=["S0", "S1"])
    assert rules_of(diags) == ["TL009", "TL010", "TL011"]


def test_nan_temperature_fails_band_not_quantization():
    arr = records_array([(REC_TEMP, 0, 0, 0, 2, float("nan"))])
    diags = lint_records(arr, sensor_names=["S0"])
    assert rules_of(diags) == ["TL010"]


def test_symtab_unresolvable():
    symtab = SymbolTable()
    known = symtab.address_of("main")
    arr = records_array([(REC_ENTER, known, 0, 0, 1, 0.0),
                         (REC_ENTER, known + 999, 1, 0, 1, 0.0),
                         (REC_EXIT, known + 999, 2, 0, 1, 0.0),
                         (REC_EXIT, known, 3, 0, 1, 0.0)])
    diags = lint_records(arr, symtab=symtab)
    assert rules_of(diags) == ["TL014"]


def test_aggregation_folds_repeats_into_one_diagnostic():
    rows = [(REC_TEMP, 0, i, 0, 2, 44.51) for i in range(50)]
    diags = lint_records(records_array(rows), sensor_names=["S0"])
    assert rules_of(diags) == ["TL011"]
    assert "(+49 more)" in diags[0].message


def test_unresolved_addresses_split_over_chunks():
    """TL014 names the smallest unresolved address first, however the
    stream is cut, and counts each address once."""
    symtab = SymbolTable()
    known = symtab.address_of("main")
    big, small = known + 999, known + 5
    arr = records_array([(REC_ENTER, known, 0, 0, 1, 0.0),
                         (REC_ENTER, big, 1, 0, 1, 0.0),
                         (REC_EXIT, big, 2, 0, 1, 0.0),
                         (REC_ENTER, small, 3, 0, 1, 0.0),
                         (REC_EXIT, small, 4, 0, 1, 0.0),
                         (REC_ENTER, big, 5, 0, 1, 0.0),
                         (REC_EXIT, big, 6, 0, 1, 0.0),
                         (REC_EXIT, known, 7, 0, 1, 0.0)])
    (diag,), _ = lint_in_chunks(arr, 3, symtab=symtab)  # big, then small
    assert [diag] == lint_records(arr, symtab=symtab)
    assert diag.rule == "TL014"
    assert diag.location == f"addr[{small:#x}]"
    assert diag.message.endswith("(+1 more)")


def test_tsc_regression_straddling_a_chunk_cut():
    """A pid's running TSC maximum carries over the cut: the record
    after it steps back from the maximum before it."""
    arr = records_array([(REC_ENTER, 10, 100, 0, 1, 0.0),
                         (REC_ENTER, 30, 5, 0, 2, 0.0),
                         (REC_ENTER, 20, 300, 0, 1, 0.0),
                         # cut here
                         (REC_EXIT, 20, 250, 0, 1, 0.0),
                         (REC_EXIT, 30, 6, 0, 2, 0.0),
                         (REC_EXIT, 10, 400, 0, 1, 0.0)])
    (diag,), _ = lint_in_chunks(arr, 3)
    assert [diag] == lint_records(arr)
    assert diag.rule == "TL008"
    assert diag.message == "pid 1 steps back 50 ticks"
    assert diag.location == "record[3]"


def test_time_order_is_judged_across_chunk_cuts():
    """A stream whose only step back in time falls on a chunk cut is
    still out of order, so the deep pass skips it."""
    arr = records_array([(REC_ENTER, 10, 0, 0, 1, 0.0),
                         (REC_TEMP, 0, 20, 3, 2, 44.5),
                         # cut here
                         (REC_TEMP, 0, 15, 3, 2, 44.5),
                         (REC_EXIT, 10, 30, 0, 1, 0.0)])
    assert lint_in_chunks(arr, 2, sensor_names=["S0"]) == ([], False)
    assert lint_records(arr, sensor_names=["S0"]) == []


# ----------------------------------------------------------------------
# Bundle / spool directory checks


def test_clean_bundle_has_no_findings(clean_bundle_dir):
    assert check_path(clean_bundle_dir) == []


def _edit_header(path, header_name, edit):
    meta = path / header_name
    header = json.loads(meta.read_text())
    edit(header)
    meta.write_text(json.dumps(header))


def test_header_tampering(tmp_path):
    def tamper(header):
        header["nodes"]["node1"]["tsc_hz"] = 0.0
        header["nodes"]["node1"]["sensor_names"] = ["S0", "S0"]
        header["nodes"]["node1"]["n_records"] += 3
        header["meta"]["sampling_hz"] = -4.0

    for layout, (save, header_name, _) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        _edit_header(path, header_name, tamper)
        got = rules_of(check_path(path))
        assert "TL012" in got     # calibration
        assert "TL013" in got     # duplicate sensor names
        assert "TL003" in got     # count mismatch
        assert "TL016" in got     # sampling rate


def _mark_truncated(header):
    header["nodes"]["node1"]["truncated"] = True


def test_truncated_flag_on_intact_file(tmp_path):
    for layout, (save, header_name, _) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        _edit_header(path, header_name, _mark_truncated)
        assert "TL004" in rules_of(check_path(path))


def test_truncated_flag_on_short_file_is_coherent(tmp_path):
    """A short record file the header marks truncated is the lost tail
    the flag announces: neither a count mismatch nor an incoherent
    flag."""
    for layout, (save, header_name, suffix) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        _edit_header(path, header_name, _mark_truncated)
        rec = path / f"node1{suffix}"
        rec.write_bytes(rec.read_bytes()[:-3 * RECORD_SIZE])
        got = rules_of(check_path(path))
        assert "TL003" not in got and "TL004" not in got, got


def test_torn_bundle_record_file_is_error(tmp_path):
    for layout, (save, _, suffix) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        rec = path / f"node1{suffix}"
        rec.write_bytes(rec.read_bytes()[:-5])
        diags = check_path(path)
        torn = [d for d in diags if d.rule == "TL002"]
        assert len(torn) == 1 and torn[0].severity == "error"


def test_check_path_dispatch_and_rejection(clean_bundle_dir, tmp_path):
    assert check_path(clean_bundle_dir) == []
    with pytest.raises(ConfigError):
        check_path(tmp_path)   # exists, but neither bundle nor spool


def test_missing_header_is_tl001(tmp_path):
    for fmt, header_name in (("tempest-spool-v1", "header.json"),
                             ("tempest-trace-v1", "meta.json")):
        path = tmp_path / header_name
        path.mkdir()
        (path / header_name).write_text("{not json")
        assert rules_of(check_path(path)) == ["TL001"]
        (path / header_name).write_text(
            json.dumps({"format": fmt, "symtab": {}, "nodes": "nope"}))
        assert rules_of(check_path(path)) == ["TL001"]


# ----------------------------------------------------------------------
# Profile-level rules (TL018-TL021) on a parsed clean bundle


def parsed(clean_dir):
    bundle = TraceBundle.load(clean_dir)
    return TempestParser(bundle).parse()


def test_clean_profile_has_no_findings(clean_bundle_dir):
    assert check_profile(parsed(clean_bundle_dir)) == []


def test_coverage_tampering_is_tl019(clean_bundle_dir):
    profile = parsed(clean_bundle_dir)
    profile.node("node1").function("kernel").coverage = 0.123
    assert rules_of(check_profile(profile)) == ["TL019"]


def test_significance_tampering_is_tl021(clean_bundle_dir):
    profile = parsed(clean_bundle_dir)
    profile.node("node1").function("kernel").significant = False
    assert "TL021" in rules_of(check_profile(profile))


def test_stats_tampering_is_tl020(clean_bundle_dir):
    profile = parsed(clean_bundle_dir)
    f = profile.node("node1").function("kernel")
    st = f.sensor_stats["S0"]
    f.sensor_stats["S0"] = dataclasses.replace(st, min=st.max + 5.0)
    assert "TL020" in rules_of(check_profile(profile))


def test_compare_profiles_agree_with_self(clean_bundle_dir):
    profile = parsed(clean_bundle_dir)
    assert compare_profiles(profile, parsed(clean_bundle_dir)) == []


def test_compare_profiles_divergence_is_tl018(clean_bundle_dir):
    a = parsed(clean_bundle_dir)
    b = parsed(clean_bundle_dir)
    b.node("node1").function("kernel").n_calls += 1
    st = b.node("node1").function("kernel").sensor_stats["S1"]
    b.node("node1").function("kernel").sensor_stats["S1"] = \
        dataclasses.replace(st, avg=st.avg + 1.0)
    diags = compare_profiles(a, b)
    assert rules_of(diags) == ["TL018"]
    assert "n_calls" in diags[0].message


# ----------------------------------------------------------------------
# CheckReport plumbing


def test_report_exit_codes(clean_bundle_dir, tmp_path):
    clean = CheckReport()
    clean.extend(check_path(clean_bundle_dir))
    assert clean.exit_code() == 0
    assert clean.exit_code(strict=True) == 0

    for layout, (save, header_name, _) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        _edit_header(path, header_name, _mark_truncated)   # TL004, warning
        warn = CheckReport()
        warn.extend(check_path(path, deep=False))
        assert warn.n_warnings and not warn.n_errors
        assert warn.exit_code() == 0
        assert warn.exit_code(strict=True) == 1


def test_report_json_round_trip(clean_bundle_dir):
    report = CheckReport()
    report.add_checked(str(clean_bundle_dir))
    report.extend(check_path(clean_bundle_dir))
    data = json.loads(report.to_json())
    assert data["format"] == "tempest-check-v1"
    assert data["checked"] == [str(clean_bundle_dir)]
    assert data["counts"] == {"error": 0, "warning": 0, "info": 0}
