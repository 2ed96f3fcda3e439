"""Tests for the tempest CLI."""

import json
import math

import pytest

from repro.cli import main


def test_micro_text_report(capsys):
    assert main(["micro", "--bench", "B", "--plot"]) == 0
    out = capsys.readouterr().out
    assert "Function: main" in out
    assert "foo1" in out
    assert "time (s)" in out  # the plot


def test_micro_csv_and_celsius(capsys):
    assert main(["micro", "--bench", "A", "--format", "csv", "--celsius"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("node,function,")
    assert "main" in out


def test_micro_json(capsys):
    assert main(["micro", "--bench", "A", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sampling_hz"] == 4.0
    assert any(r["function"] == "main" for r in data["rows"])


def test_npb_runs_and_plots(capsys):
    assert main([
        "npb", "--bench", "CG", "--klass", "S", "--ranks", "4",
        "--iters", "1", "--plot",
    ]) == 0
    out = capsys.readouterr().out
    assert "conj_grad" in out
    assert "[node1]" in out


def test_npb_unknown_bench(capsys):
    assert main(["npb", "--bench", "ZZ"]) == 2


def test_npb_bad_class_is_clean_error(capsys):
    # Bad arguments escape as a ReproError -> usage/crash exit code 2.
    assert main(["npb", "--bench", "FT", "--klass", "Q"]) == 2
    assert "error:" in capsys.readouterr().err


def test_save_and_parse_roundtrip(tmp_path, capsys):
    bundle_dir = tmp_path / "bundle"
    assert main([
        "micro", "--bench", "D", "--save-trace", str(bundle_dir),
    ]) == 0
    capsys.readouterr()
    assert main(["parse", str(bundle_dir)]) == 0
    out = capsys.readouterr().out
    assert "Function: main" in out
    assert "foo1" in out


def _spooled_micro_d(tmp_path):
    """A 2-node spooled micro D run: (spool dir, bundle saved from it)."""
    from repro.core import TempestSession
    from repro.core.trace import TraceBundle
    from repro.simmachine.machine import ClusterConfig, Machine
    from repro.workloads.microbench import micro_d

    spools, bundle_dir = tmp_path / "spools", tmp_path / "bundle"
    session = TempestSession(
        Machine(ClusterConfig(n_nodes=2, vary_nodes=False, seed=11)),
        spool_dir=spools)
    session.run_mpi(lambda ctx: micro_d(ctx, 2.0, 0.1), 2)
    TraceBundle.load(spools).save(bundle_dir)
    return spools, bundle_dir


def _calls_and_times(capsys, path):
    assert main(["parse", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    return {(r["node"], r["function"]):
            (r["calls"], r["total_time_s"], r["exclusive_time_s"])
            for r in rows}


def test_parse_spool_dir_matches_saved_bundle(tmp_path, capsys):
    """`parse` tells a spool from a bundle by inspection; both report
    the same calls and times."""
    spools, bundle_dir = _spooled_micro_d(tmp_path)
    from_spool = _calls_and_times(capsys, spools)
    assert ("node1", "foo1") in from_spool
    assert from_spool == _calls_and_times(capsys, bundle_dir)


@pytest.mark.parametrize("flag", [["--chunk-records", "7"],
                                  ["--hcct-budget", "16"]])
def test_parse_bundle_rejects_spool_only_flags(tmp_path, capsys, flag):
    spools, bundle_dir = _spooled_micro_d(tmp_path)
    assert main(["parse", str(spools), *flag]) == 0
    capsys.readouterr()
    assert main(["parse", str(bundle_dir), *flag]) == 2
    assert "spool directories only" in capsys.readouterr().err


def test_parse_rejects_unknown_directory(tmp_path, capsys):
    assert main(["parse", str(tmp_path)]) == 2
    assert "not a trace directory" in capsys.readouterr().err


def test_sensors_against_virtual_tree(tmp_path, capsys):
    from repro.simmachine.hwmon import VirtualHwmonTree
    from repro.simmachine.machine import ClusterConfig, Machine

    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False))
    VirtualHwmonTree(tmp_path, [m.node("node1").chip]).materialize(0.0)
    assert main(["sensors", "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "CPU0 Temp" in out


def test_sensors_missing_root(capsys):
    # A missing hwmon tree is an environment problem (2), not a finding.
    assert main(["sensors", "--root", "/nonexistent/x"]) == 2


def test_hotspots_command(capsys):
    assert main([
        "hotspots", "--bench", "BT", "--klass", "S", "--iters", "2",
        "--top", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "Hot nodes" in out
    assert "hot spots" in out
    assert "Recommendations:" in out
    assert "node" in out


def test_hotspots_unknown_bench(capsys):
    assert main(["hotspots", "--bench", "QQ"]) == 2


def test_verify_command_subset(capsys):
    assert main(["verify", "BT", "EP"]) == 0
    out = capsys.readouterr().out
    assert out.count("VERIFICATION SUCCESSFUL") == 2


def test_verify_unknown_bench(capsys):
    assert main(["verify", "ZZ"]) == 2


def _set_tsc_hz(header_path, hz):
    header = json.loads(header_path.read_text())
    for info in header["nodes"].values():
        info["tsc_hz"] = hz
    header_path.write_text(json.dumps(header))   # NaN/Infinity literals


@pytest.mark.parametrize("hz", [math.nan, math.inf, 0.0, -1.0])
def test_parse_refuses_bad_tsc_hz(tmp_path, capsys, hz):
    """A NaN or infinite calibration used to print NaN or 0.0 times with
    exit 0; a closed directory, a legacy bundle and a live spool
    directory all exit 2 now."""
    from repro.core.spool import TraceSpool, write_spool_header
    from repro.core.symtab import SymbolTable
    from repro.core.trace import REC_ENTER, REC_EXIT, NodeTrace, TraceBundle
    from tests.legacy import save_legacy_bundle

    symtab = SymbolTable()
    main_addr = symtab.address_of("main")
    trace = NodeTrace("node1", 1e9, ["S0"])
    trace.append_event(REC_ENTER, main_addr, 0, 0, 1)
    trace.append_event(REC_EXIT, main_addr, 1_000_000, 0, 1)
    bundle = TraceBundle(symtab)
    bundle.meta = {"sampling_hz": 4.0}
    bundle.add_node(trace)
    bundle.save(tmp_path / "closed")
    _set_tsc_hz(tmp_path / "closed" / "header.json", hz)
    save_legacy_bundle(bundle, tmp_path / "bundle")
    _set_tsc_hz(tmp_path / "bundle" / "meta.json", hz)

    spools = tmp_path / "spools"
    write_spool_header(spools, symtab,
                       {"node1": {"tsc_hz": 1e9, "sensor_names": ["S0"]}},
                       {"sampling_hz": 4.0})
    with TraceSpool(spools / "node1.spool") as spool:
        spool.write_array(trace.columns.array)
    _set_tsc_hz(spools / "header.json", hz)

    for path in (tmp_path / "closed", tmp_path / "bundle", spools):
        assert main(["parse", str(path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert "finite and positive" in captured.err
        assert "NaN" not in captured.out
