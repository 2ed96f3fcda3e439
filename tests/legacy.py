"""The legacy ``tempest-trace-v1`` bundle writer, kept for tests only.

Trace directories used to come in two layouts: a closed bundle
(``meta.json`` + ``<node>.trace``) and a live spool (``header.json`` +
``<node>.spool``).  The library now writes only the second (a bundle is
a closed spool) but still reads the first.  This is the old writer,
verbatim, so tests can make the legacy bundles that readers must keep
loading; :func:`as_spool` makes a live spool out of a closed directory.
"""

import json
import shutil
from pathlib import Path

from repro.util.canonjson import dump_canonical


def save_legacy_bundle(bundle, path) -> Path:
    """Write *bundle* to *path* as ``meta.json`` + ``<node>.trace``."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    def node_info(t) -> dict:
        info = {
            "tsc_hz": t.tsc_hz,
            "sensor_names": t.sensor_names,
            "n_records": len(t),
        }
        if t.truncated:
            info["truncated"] = True
        return info

    header = {
        "format": "tempest-trace-v1",
        "symtab": bundle.symtab.to_dict(),
        "meta": bundle.meta,
        "nodes": {name: node_info(t) for name, t in bundle.nodes.items()},
    }
    dump_canonical(path / "meta.json", header)
    for name, t in bundle.nodes.items():
        (path / f"{name}.trace").write_bytes(t.columns.to_bytes())
    return path


def save_current(bundle, path) -> Path:
    """Write *bundle* the way the library does: a closed spool."""
    bundle.save(path)
    return Path(path)


def as_spool(closed_dir, spool_dir) -> Path:
    """Copy a closed directory into a live spool: the same files, the
    header without record counts.  A finished session closes its
    spools, so a live directory is made this way."""
    shutil.copytree(closed_dir, spool_dir)
    header = json.loads((spool_dir / "header.json").read_text())
    for info in header["nodes"].values():
        del info["n_records"]
    (spool_dir / "header.json").write_text(json.dumps(header))
    return Path(spool_dir)


#: layout -> (writer, header file, record-file suffix), current first
LAYOUTS = {
    "closed-spool": (save_current, "header.json", ".spool"),
    "legacy-bundle": (save_legacy_bundle, "meta.json", ".trace"),
}
