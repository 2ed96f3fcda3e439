"""A whole traced run is byte-identical on the reference arithmetic.

The same seeded, traced and spooled BT class W run goes through the
shipped simulator and then through one whose thermal advance and socket
power are the plain arithmetic of ``sim_oracle.py``.  Every node's
in-memory records, every spool file, the header and the simulated end
time must match byte for byte, and so must every node's final thermal
state and socket powers.
"""

from pathlib import Path

from repro.core import TempestSession
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads.npb import bt
from tests.simmachine import sim_oracle


def _bt_run(spool_dir: Path) -> dict:
    machine = Machine(ClusterConfig(n_nodes=4, seed=2007))
    session = TempestSession(machine, spool_dir=spool_dir)
    session.run_mpi(
        lambda ctx: bt.bt_benchmark(ctx, bt.BTConfig(klass="W",
                                                     iterations=10)),
        4,
    )
    return {
        "columns": {name: t.trace.columns.array.tobytes()
                    for name, t in session.tracers.items()},
        "files": {p.name: p.read_bytes()
                  for p in sorted(spool_dir.iterdir())},
        "end": session.last_workload_end,
        # Sensor readings are quantized, so a last-bit thermal difference
        # need not reach the records: compare the networks themselves.
        "thermal": {name: node.thermal.state.tobytes()
                    + node.thermal.socket_powers.tobytes()
                    for name, node in machine.nodes.items()},
    }


def test_bt_run_is_byte_identical_on_reference_arithmetic(tmp_path,
                                                          monkeypatch):
    shipped = _bt_run(tmp_path / "shipped")
    sim_oracle.patch_reference(monkeypatch)
    ref = _bt_run(tmp_path / "reference")
    assert sorted(shipped["files"]) == (
        ["header.json"] + [f"node{i}.spool" for i in range(1, 5)])
    assert sorted(shipped["columns"]) == sorted(ref["columns"])
    for name in shipped["columns"]:
        assert len(shipped["columns"][name]) > 0
        assert shipped["columns"][name] == ref["columns"][name], name
    for name in shipped["files"]:
        assert shipped["files"][name] == ref["files"][name], name
    assert repr(shipped["end"]) == repr(ref["end"])
    assert shipped["thermal"] == ref["thermal"]

