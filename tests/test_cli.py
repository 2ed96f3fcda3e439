"""Tests for the tempest CLI."""

import json
import math
import re

import pytest

from repro.cli import main
from repro.core.parser import TempestParser
from repro.core.trace import REC_ENTER, REC_EXIT
from repro.util.errors import TraceError

from tests.legacy import LAYOUTS, as_spool


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


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_compare_lenient_recovers_a_short_bundle(tmp_path, capsys, layout):
    """`compare --lenient` reads a closed bundle whose record file lost
    its tail as `parse --lenient` does; without it the count mismatch
    is an error (exit 2)."""
    from repro.core.records import RECORD_SIZE
    from repro.core.trace import TraceBundle

    saved = tmp_path / "saved"
    assert main(["micro", "--bench", "D", "--save-trace", str(saved)]) == 0
    save, _, suffix = LAYOUTS[layout]
    before = save(TraceBundle.load(saved), tmp_path / "before")
    after = save(TraceBundle.load(saved), tmp_path / "after")
    record_file = after / f"node1{suffix}"
    record_file.write_bytes(record_file.read_bytes()[:-50 * RECORD_SIZE])
    capsys.readouterr()

    assert main(["parse", "--lenient", str(after)]) == 0
    assert main(["compare", "--lenient", str(before), str(after)]) == 0
    assert "main" in capsys.readouterr().out
    assert main(["compare", str(before), str(after)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "header says" in err


def _spooled_micro_d(tmp_path):
    """A 2-node spooled micro D run: (a live copy of its spool
    directory, the closed directory the finished session left)."""
    from repro.core import TempestSession
    from repro.simmachine.machine import ClusterConfig, Machine
    from repro.workloads.microbench import micro_d

    spools = tmp_path / "spools"
    session = TempestSession(
        Machine(ClusterConfig(n_nodes=2, vary_nodes=False, seed=11)),
        spool_dir=spools)
    session.run_mpi(lambda ctx: micro_d(ctx, 2.0, 0.1), 2)
    return as_spool(spools, tmp_path / "live"), spools


def _calls_and_times(capsys, path):
    assert main(["parse", str(path), "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    return {(r["node"], r["function"]):
            (r["calls"], r["total_time_s"], r["exclusive_time_s"])
            for r in rows}


def test_parse_spool_dir_matches_saved_bundle(tmp_path, capsys):
    """A live spool and the closed directory of the same records report
    the same calls and times."""
    spools, bundle_dir = _spooled_micro_d(tmp_path)
    from_spool = _calls_and_times(capsys, spools)
    assert ("node1", "foo1") in from_spool
    assert from_spool == _calls_and_times(capsys, bundle_dir)


@pytest.mark.parametrize("flag", [["--chunk-records", "7"],
                                  ["--hcct-budget", "16"]])
def test_parse_takes_streaming_flags_on_every_directory(tmp_path, capsys,
                                                        flag):
    """Both layouts stream through one engine: a closed directory takes
    the streaming flags too, and profiles as its live spool does."""
    spools, bundle_dir = _spooled_micro_d(tmp_path)
    outputs = []
    for path in (spools, bundle_dir):
        assert main(["parse", str(path), *flag, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_parse_html_plots_every_directory(tmp_path, capsys):
    """`parse --html` draws the raw sensor series the parser builds from
    a resident bundle, for a closed directory and a live spool alike."""
    from repro.core.htmlreport import render_html_report
    from repro.core.parser import TempestParser
    from repro.core.trace import TraceBundle

    spools, bundle_dir = _spooled_micro_d(tmp_path)
    html = render_html_report(
        TempestParser(TraceBundle.load(bundle_dir)).parse())
    assert "(no samples)" not in html
    for path in (bundle_dir, spools):
        out = tmp_path / f"{path.name}.html"
        assert main(["parse", str(path), "--html", str(out)]) == 0
        assert out.read_text() == html
    capsys.readouterr()


def test_parse_names_the_node_of_a_regressed_trace(tmp_path, capsys):
    """A strict parse of a closed directory whose process clock steps
    back names the node in its one error line (exit 2); --lenient
    clamps the step."""
    from repro.core.symtab import SymbolTable
    from repro.core.trace import REC_ENTER, REC_EXIT, NodeTrace, TraceBundle

    symtab = SymbolTable()
    main_addr, f = symtab.address_of("main"), symtab.address_of("f")
    bundle = TraceBundle(symtab)
    bundle.meta = {"sampling_hz": 4.0}
    for name in ("node1", "node2"):
        trace = NodeTrace(name, 1e9, ["S0"])
        trace.append_event(REC_ENTER, main_addr, 0, 0, 2)
        # node2's pid 2 enters f 1 ms before it entered main
        trace.append_event(REC_ENTER, f,
                           -1_000_000 if name == "node2" else 1_000_000, 0, 2)
        trace.append_event(REC_EXIT, f, 2_000_000, 0, 2)
        trace.append_event(REC_EXIT, main_addr, 3_000_000, 0, 2)
        bundle.add_node(trace)
    bundle.save(tmp_path / "regressed")
    assert main(["parse", str(tmp_path / "regressed")]) == 2
    err = capsys.readouterr().err
    assert err == ("error: node2: pid 2: timestamps regressed (-0.001 after "
                   "0.0); was the process bound to one core?\n")
    assert main(["parse", "--lenient", str(tmp_path / "regressed")]) == 0


@pytest.mark.parametrize("events, message", [
    ([(REC_EXIT, "f", 0), (REC_ENTER, "main", 1), (REC_EXIT, "main", 2)],
     "node2: pid 2: EXIT 'f' with empty stack"),
    ([(REC_ENTER, "main", 0), (REC_EXIT, "f", 1), (REC_EXIT, "main", 2)],
     "node2: pid 2: EXIT 'f' but top of stack is 'main'"),
    ([(REC_ENTER, "main", 0), (REC_ENTER, "f", 1), (REC_EXIT, "f", 2)],
     "node2: pid 2: trace ended with open frames ['main']"),
])
def test_parse_names_the_node_of_an_unbalanced_trace(tmp_path, capsys,
                                                     events, message):
    """Every strict error from the profile engine names its node, as a
    regression does: an EXIT on an empty or mismatched stack, and
    frames still open at the end of the trace."""
    from repro.core.symtab import SymbolTable
    from repro.core.trace import NodeTrace, TraceBundle

    symtab = SymbolTable()
    bundle = TraceBundle(symtab)
    bundle.meta = {"sampling_hz": 4.0}
    clean = [(REC_ENTER, "main", 0), (REC_EXIT, "main", 1)]
    for name in ("node1", "node2"):
        trace = NodeTrace(name, 1e9, ["S0"])
        for kind, func, ms in (events if name == "node2" else clean):
            trace.append_event(kind, symtab.address_of(func), ms * 1_000_000,
                               0, 2)
        bundle.add_node(trace)
    bundle.save(tmp_path / "unbalanced")
    assert main(["parse", str(tmp_path / "unbalanced")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(TraceError, match=f"^{re.escape(message)}$"):
        TempestParser(bundle).parse()
    assert main(["parse", "--lenient", str(tmp_path / "unbalanced")]) == 0


@pytest.mark.parametrize("command", ["parse", "serve"])
def test_save_trace_is_only_a_run_flag(tmp_path, capsys, command):
    """`--save-trace` saves a run's trace (micro, npb); parse and serve
    have no run to save and refuse it (exit 2)."""
    args = [str(tmp_path)] if command == "parse" else []
    with pytest.raises(SystemExit) as exc:
        main([command, *args, "--save-trace", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --save-trace" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


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
