"""``tempest lab`` / ``tempest --version`` / ``tempest top`` end to end."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def lab_root(tmp_path):
    root = tmp_path / "lab"
    assert main(["lab", "init", str(root)]) == 0
    return root


def run_micro(lab_root, *extra):
    return main(["lab", "run", "--lab", str(lab_root), "--micro", "A",
                 "--seed", "7", *extra])


def test_version_from_package_metadata(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("tempest ")
    assert out.strip() != "tempest"               # a real version string


def test_init_run_list_roundtrip(lab_root, tmp_path, capsys):
    report = tmp_path / "manifest.json"
    assert run_micro(lab_root, "--json", str(report)) == 0
    out = capsys.readouterr().out
    assert "recorded" in out
    doc = json.loads(report.read_text())
    assert doc["format"] == "tempest-manifest-v1"
    run_id = doc["run_id"]

    assert run_micro(lab_root) == 0
    assert "skipped" in capsys.readouterr().out   # dedup

    assert main(["lab", "list", "--lab", str(lab_root)]) == 0
    assert run_id in capsys.readouterr().out


def test_rerun_exit_codes(lab_root, capsys):
    assert run_micro(lab_root) == 0
    run_id = capsys.readouterr().out.split(":")[0]
    assert main(["lab", "rerun", "--lab", str(lab_root), run_id]) == 0
    assert "bit-identically" in capsys.readouterr().out

    # Tamper the recorded outputs: rerun must notice and exit 1.
    mpath = lab_root / "runs" / run_id / "manifest.json"
    doc = json.loads(mpath.read_text())
    doc["outputs"]["n_records"] = 0
    mpath.write_text(json.dumps(doc))
    assert main(["lab", "rerun", "--lab", str(lab_root), run_id]) == 1
    assert "DRIFT" in capsys.readouterr().out


def test_verify_and_check_dispatch(lab_root, capsys):
    assert run_micro(lab_root) == 0
    capsys.readouterr()
    assert main(["lab", "verify", "--lab", str(lab_root)]) == 0
    assert main(["check", str(lab_root)]) == 0    # directory dispatch
    out = capsys.readouterr().out
    assert "0 error(s)" in out


def test_query_and_regressions(lab_root, capsys):
    assert run_micro(lab_root, "--campaign", "c", "--label", "one") == 0
    assert main(["lab", "query", "--lab", str(lab_root),
                 "--campaign", "c"]) == 0
    out = capsys.readouterr().out
    assert "total_s=" in out and "[one]" in out
    assert main(["lab", "regressions", "--lab", str(lab_root),
                 "--campaign", "c"]) == 0          # one run: nothing to flag


def test_diff_two_runs(lab_root, tmp_path, capsys):
    assert run_micro(lab_root) == 0
    a = capsys.readouterr().out.split(":")[0]
    assert run_micro(lab_root, "--seed", "8") == 0
    b = capsys.readouterr().out.split(":")[0]
    report = tmp_path / "diff.json"
    code = main(["lab", "diff", "--lab", str(lab_root), a, b,
                 "--json", str(report)])
    assert code in (0, 1)                          # thermal noise may flag
    doc = json.loads(report.read_text())
    assert doc["before"] == a and doc["after"] == b
    assert doc["hcct_skipped"] is True             # no budget on micro runs
    assert "skipped" in capsys.readouterr().out.lower()


def test_sweep_cli_resume(lab_root, capsys):
    argv = ["lab", "sweep", "--lab", str(lab_root),
            "--workloads", "micro:A,micro:B", "--seed", "3",
            "--campaign", "m"]
    assert main(argv + ["--max-cells", "1"]) == 0
    assert "1 executed, 0 skipped" in capsys.readouterr().out
    assert main(argv) == 0
    assert "1 executed, 1 skipped" in capsys.readouterr().out


def test_usage_errors_exit_two(tmp_path, capsys):
    assert main(["lab", "list", "--lab", str(tmp_path / "nope")]) == 2
    assert main(["lab", "rerun", "--lab", str(tmp_path / "nope"), "x"]) == 2
    capsys.readouterr()


def test_top_once_and_missing(tmp_path, capsys):
    snap = tmp_path / "metrics.json"
    assert main(["top", "--metrics-json", str(snap), "--once"]) == 2
    capsys.readouterr()

    snap.write_text(json.dumps({
        "format": "tempest-serve-metrics-v1",
        "connections": 2,
        "runs": {"default": {
            "metrics": {"records_in": 10, "dup_records": 1, "frames_in": 3},
            "nodes": {"node1": {"records": 10, "drained": True,
                                "evicted": False}},
            "leaves": {},
        }},
    }))
    assert main(["top", "--metrics-json", str(snap), "--once"]) == 0
    out = capsys.readouterr().out
    assert "tempest top" in out
    assert "node1" in out and "drained" in out
    assert "10 record(s) in, 1 dup, 3 frame(s)" in out


def test_summary_state_without_bins_exits_2(tmp_path, capsys):
    """A stored summary whose estimator states lost their reading bins
    cannot report a median: ``lab diff`` refuses it with one ``error:``
    line and exit 2, not a traceback."""
    from repro.lab import Laboratory, RunManifest, record_run
    from tests.lab.conftest import micro_spec

    lab = Laboratory.create(tmp_path / "lab")
    manifest, _ = record_run(lab, micro_spec())
    doc = lab.get_json(manifest.outputs["summary"])
    for block in doc["nodes"].values():
        states = list(block["sensor_summary"].values())
        states += [st for per in block["stats"].values()
                   for st in per.values()]
        for state in states:
            state.pop("bin_values", None)
    # Enroll the damaged document as a second run by hand.
    mdoc = dict(lab.read_manifest_doc(manifest.run_id))
    mdoc["spec"] = dict(mdoc["spec"], seed=mdoc["spec"]["seed"] + 1)
    del mdoc["inputs_digest"]
    twin = RunManifest.from_dict(mdoc)
    twin.outputs = dict(mdoc["outputs"], summary=lab.put_json(doc))
    lab.write_manifest_doc(twin.run_id, twin.to_dict())

    assert main(["lab", "diff", "--lab", str(lab.root), manifest.run_id,
                 twin.run_id]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "malformed estimator state" in err
