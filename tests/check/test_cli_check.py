"""``tempest check``: dispatch, exit codes, JSON artifact, --strict."""

import json

from repro.cli import main

from tests.check.fixtures import build_bundle
from tests.legacy import LAYOUTS


def test_clean_bundle_exits_zero(tmp_path, capsys):
    path = tmp_path / "bundle"
    build_bundle().save(path)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "0 error(s), 0 warning(s)" in out


def test_findings_exit_one(tmp_path, capsys):
    for layout, (save, _, suffix) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        rec = path / f"node1{suffix}"
        rec.write_bytes(rec.read_bytes()[:-5])   # torn record file
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "TL002" in out


def test_warnings_need_strict(tmp_path, capsys):
    for layout, (save, header_name, _) in LAYOUTS.items():
        path = save(build_bundle(), tmp_path / layout)
        meta = path / header_name
        header = json.loads(meta.read_text())
        header["nodes"]["node1"]["truncated"] = True   # TL004: warning only
        meta.write_text(json.dumps(header))
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["check", "--strict", str(path)]) == 1
        assert "TL004" in capsys.readouterr().out


def test_source_paths_go_through_repo_lint(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n")
    assert main(["check", str(bad)]) == 1
    assert "DL002" in capsys.readouterr().out


def test_json_artifact(tmp_path, capsys):
    path = tmp_path / "bundle"
    build_bundle().save(path)
    out_file = tmp_path / "diag.json"
    assert main(["check", str(path), "--json", str(out_file)]) == 0
    data = json.loads(out_file.read_text())
    assert data["format"] == "tempest-check-v1"
    assert data["checked"] == [str(path)]
    assert data["diagnostics"] == []


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["check"]) == 2                       # no paths
    assert main(["check", str(tmp_path / "nope")]) == 2   # nonexistent
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["check", str(empty)]) == 2           # nothing checkable


def test_rules_catalogue(capsys):
    assert main(["check", "--rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("TL001", "TL021", "DS001", "DS002", "DL001", "DL004"):
        assert rule_id in out


def test_mixed_inputs_one_report(tmp_path, capsys):
    bundle = tmp_path / "bundle"
    build_bundle().save(bundle)
    ok_src = tmp_path / "ok.py"
    ok_src.write_text("x = 1\n")
    assert main(["check", str(bundle), str(ok_src)]) == 0
    assert "2 input(s) checked" in capsys.readouterr().out
