"""Trace-directory headers and record counts, in every layout, through
every reader.

A trace directory is ``header.json`` + ``<node>.spool``: closed when the
header declares every node's record count (``TraceBundle.save``), live
when it declares none (a session's spool).  A legacy bundle
(``meta.json`` + ``<node>.trace``, ``tests/legacy.py``) is read as a
closed directory.  Whatever is wrong with the header, ``parse``,
``race`` and ``push`` must refuse it with one ``error:`` line and exit 2
— never a traceback, never a clean verdict — and ``check`` must report
it as TL001 (exit 1).  A closed directory's record file must hold the
declared count, whole, for every reader.  A spool loads into the same
bundle the spool-to-bundle reassembly always produced.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.records import RECORD_DTYPE, RECORD_SIZE
from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace, TraceBundle, read_trace_header
from repro.faults.commfaults import build_clean_bundle

from tests.check.fixtures import build_bundle, fill_trace
from tests.legacy import LAYOUTS, as_spool, save_legacy_bundle


def _first_node(doc):
    return next(iter(doc["nodes"].values()))


def _drop_tsc_hz(doc):
    del _first_node(doc)["tsc_hz"]


def _tsc_hz_overflows_a_float(doc):
    _first_node(doc)["tsc_hz"] = 10 ** 400


def _sensor_names_not_a_list(doc):
    _first_node(doc)["sensor_names"] = "S0"


#: case -> how it breaks the header: a text edit or an in-place doc edit
MALFORMED = {
    "torn-json": lambda text: text[: len(text) // 2],
    "json-list": lambda text: json.dumps([json.loads(text)]),
    "nodes-not-a-mapping": lambda doc: doc.update(nodes=["node1"]),
    "bad-symtab": lambda doc: doc.update(symtab={"main": "not-an-address"}),
    "node-without-tsc_hz": _drop_tsc_hz,
    "tsc_hz-overflows-a-float": _tsc_hz_overflows_a_float,
    "sensor_names-not-a-list": _sensor_names_not_a_list,
    "unknown-format": lambda doc: doc.update(format="tempest-trace-v0"),
}
_TEXT_EDITS = {"torn-json", "json-list"}


@pytest.fixture(params=["bundle", "closed", "spool"])
def layout(request, tmp_path):
    """A legacy bundle, a closed spool or a live spool, and its header."""
    if request.param == "bundle":
        bundle_dir = save_legacy_bundle(build_bundle(), tmp_path / "bundle")
        return bundle_dir, bundle_dir / "meta.json"
    closed_dir = tmp_path / "closed"
    build_bundle().save(closed_dir)
    if request.param == "closed":
        return closed_dir, closed_dir / "header.json"
    spool_dir = as_spool(closed_dir, tmp_path / "spool")
    return spool_dir, spool_dir / "header.json"


@pytest.fixture(params=sorted(MALFORMED))
def malformed_dir(request, layout):
    path, header_path = layout
    edit = MALFORMED[request.param]
    text = header_path.read_text()
    if request.param in _TEXT_EDITS:
        text = edit(text)
    else:
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    header_path.write_text(text)
    return path


@pytest.mark.parametrize("argv", [
    ["parse"],
    ["race"],
    ["push", "--connect", "127.0.0.1:9"],   # refused before connecting
], ids=["parse", "race", "push"])
def test_malformed_header_is_a_clean_exit_2(malformed_dir, argv, capsys):
    rc = main([argv[0], str(malformed_dir), *argv[1:]])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_malformed_header_is_tl001(malformed_dir, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check", str(malformed_dir), "--json", str(report)]) == 1
    assert "TL001" in capsys.readouterr().out
    rules = {d["rule"] for d in json.loads(report.read_text())["diagnostics"]}
    assert rules == {"TL001"}


def spool_to_bundle_oracle(directory):
    """The reference reassembly of a spool directory: every node the
    header declares, its whole records (a torn tail dropped), a node
    without a spool file empty, nothing marked truncated."""
    header = json.loads((directory / "header.json").read_text())
    bundle = TraceBundle(SymbolTable.from_dict(header["symtab"]))
    bundle.meta = header.get("meta", {})
    for name, info in header["nodes"].items():
        trace = NodeTrace(name, info["tsc_hz"], info["sensor_names"])
        spool_file = directory / f"{name}.spool"
        if spool_file.exists():
            blob = spool_file.read_bytes()
            blob = blob[: len(blob) - len(blob) % RECORD_SIZE]
            trace.extend_columns(np.frombuffer(blob, dtype=RECORD_DTYPE))
        bundle.add_node(trace)
    return bundle


def test_spool_loads_as_the_reassembled_bundle(tmp_path):
    symtab = SymbolTable()
    bundle = TraceBundle(symtab)
    for i, name in enumerate(("node1", "node2", "node3")):
        trace = NodeTrace(name, 1.8e9 + i, ["S0", "S1"])
        fill_trace(trace, symtab, n_pairs=10 + i)
        bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0}
    bundle.save(tmp_path / "bundle")
    spools = as_spool(tmp_path / "bundle", tmp_path / "spools")
    torn = spools / "node2.spool"
    torn.write_bytes(torn.read_bytes()[:-5])     # a mid-append crash
    (spools / "node3.spool").unlink()            # not spooled yet

    TraceBundle.load(spools).save(tmp_path / "loaded")
    spool_to_bundle_oracle(spools).save(tmp_path / "oracle")
    files = sorted(p.name for p in (tmp_path / "oracle").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "loaded").iterdir())
    for name in files:
        assert (tmp_path / "loaded" / name).read_bytes() == \
            (tmp_path / "oracle" / name).read_bytes(), name
    loaded = TraceBundle.load(tmp_path / "loaded")
    assert len(loaded.node("node3")) == 0
    assert not any(t.truncated for t in loaded.nodes.values())


# ----------------------------------------------------------------------
# Record counts: closedness is header data, and every reader honours it


def _three_node_closed(path):
    symtab = SymbolTable()
    bundle = TraceBundle(symtab)
    for name in ("node1", "node2", "node3"):
        trace = NodeTrace(name, 1.8e9, ["S0", "S1"])
        fill_trace(trace, symtab, n_pairs=4)
        bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0}
    bundle.save(path)
    return path


def _edit_counts(path, keep):
    header = json.loads((path / "header.json").read_text())
    for name, info in header["nodes"].items():
        if name not in keep:
            info.pop("n_records", None)
    (path / "header.json").write_text(json.dumps(header))


def test_header_counts_decide_closedness(tmp_path, capsys):
    """All nodes counted: closed; none: live; some: malformed (TL001)."""
    path = _three_node_closed(tmp_path / "d")
    header = read_trace_header(path)
    assert header.closed
    # four records per kernel pair, plus main's ENTER and EXIT
    assert {n.n_records for n in header.nodes.values()} == {4 * 4 + 2}
    _edit_counts(path, keep={"node1"})
    for argv in (["parse"], ["race"]):
        assert main([argv[0], str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_records" in err
        assert "Traceback" not in err
    report = tmp_path / "report.json"
    assert main(["check", str(path), "--json", str(report)]) == 1
    diags = json.loads(report.read_text())["diagnostics"]
    assert {d["rule"] for d in diags} == {"TL001"}
    _edit_counts(path, keep=set())
    header = read_trace_header(path)
    assert not header.closed
    assert all(n.n_records is None for n in header.nodes.values())


def _cut(path, suffix, n_bytes):
    rec_file = path / f"node1{suffix}"
    blob = rec_file.read_bytes()
    rec_file.write_bytes(blob[: len(blob) - n_bytes])


@pytest.mark.parametrize("damage,n_bytes,rule", [
    ("short", 20 * RECORD_SIZE, "TL003"),
    ("torn", 20 * RECORD_SIZE - 5, "TL002"),
])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_damaged_closed_directory_is_refused_by_every_reader(
        tmp_path, capsys, layout, damage, n_bytes, rule):
    """A clean comm trace whose node1 record file lost its last records.

    Streamed to EOF, the survivors look like a run whose rank 0 stopped
    early: ``race`` would report collective mismatches and unmatched
    requests that never happened.  The header's count says otherwise,
    so ``race`` and strict ``parse`` exit 2 with one error line,
    ``check`` names the damage, and ``parse --lenient`` recovers.
    """
    save, _, suffix = LAYOUTS[layout]
    path = save(build_clean_bundle(seed=7), tmp_path / "d")
    _cut(path, suffix, n_bytes)

    for argv in (["race", str(path)], ["parse", str(path)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert "CM00" not in out

    report = tmp_path / "check.json"
    assert main(["check", str(path), "--json", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    rules = {d["rule"] for d in json.loads(report.read_text())["diagnostics"]}
    assert rule in rules
    assert not any(r.startswith("CM") for r in rules)

    assert main(["parse", "--lenient", "--format", "json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["meta"]["seed"] == 7
    loaded = TraceBundle.load(path, tolerate_truncation=True)
    assert loaded.node("node1").truncated
    assert len(loaded.node("node1")) == 29 - 20


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_extra_records_are_refused_even_when_lenient(tmp_path, capsys,
                                                     layout):
    """A record file holding more records than its header declares is
    no lost tail to recover: every reader refuses it, leniently too, and
    ``check`` reports the count (TL003)."""
    save, _, suffix = LAYOUTS[layout]
    path = save(build_clean_bundle(seed=7), tmp_path / "d")
    rec_file = path / f"node1{suffix}"
    blob = rec_file.read_bytes()
    rec_file.write_bytes(blob + blob[-3 * RECORD_SIZE:])

    for argv in (["race", str(path)], ["parse", str(path)],
                 ["parse", "--lenient", str(path)],
                 ["compare", "--lenient", str(path), str(path)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "header says 29" in err, err

    report = tmp_path / "check.json"
    assert main(["check", str(path), "--json", str(report)]) == 1
    diags = json.loads(report.read_text())["diagnostics"]
    (tl3,) = [d for d in diags if d["rule"] == "TL003"]
    assert tl3["message"] == "record file holds 32 records, header says 29"
