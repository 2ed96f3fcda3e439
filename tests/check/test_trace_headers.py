"""Malformed trace-directory headers, in both layouts, through every reader.

A trace directory is a closed bundle (``meta.json`` + ``<node>.trace``)
or a live spool (``header.json`` + ``<node>.spool``).  Whatever is wrong
with the header, ``parse``, ``race`` and ``push`` must refuse it with one
``error:`` line and exit 2 — never a traceback, never a clean verdict —
and ``check`` must report it as TL001 (exit 1).  A spool loads into the
same bundle the spool-to-bundle reassembly always produced.
"""

import json
import shutil

import pytest

from repro.cli import main
from repro.core.spool import read_spool_columns
from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace, TraceBundle

from tests.check.fixtures import build_bundle, fill_trace


def as_spool(bundle_dir, spool_dir):
    """Copy a saved bundle into the spool layout, record bytes verbatim."""
    header = json.loads((bundle_dir / "meta.json").read_text())
    spool_dir.mkdir()
    for name, info in header["nodes"].items():
        del info["n_records"]
        shutil.copy(bundle_dir / f"{name}.trace", spool_dir / f"{name}.spool")
    header["format"] = "tempest-spool-v1"
    (spool_dir / "header.json").write_text(json.dumps(header))
    return spool_dir


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


@pytest.fixture(params=["bundle", "spool"])
def layout(request, tmp_path):
    bundle_dir = tmp_path / "bundle"
    build_bundle().save(bundle_dir)
    if request.param == "bundle":
        return bundle_dir, bundle_dir / "meta.json"
    spool_dir = as_spool(bundle_dir, tmp_path / "spool")
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
            trace.extend_columns(read_spool_columns(spool_file))
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
