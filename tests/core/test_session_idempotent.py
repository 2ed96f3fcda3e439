"""Regression tests: finalize/flush idempotence on spooled sessions.

An external collector (``tempest push``) may drain a spool directory
while — or after — the owning session finalizes it, and a crashing
workload finalizes through ``_emergency_flush`` *and* ``stop()``.  Both
paths used to race on closed file handles; these tests pin the fixed
contract: double finalize is a no-op, flush-after-close is a no-op, and
the header is written exactly once.
"""

import pytest

from repro.core import TempestSession
from repro.core.spool import TraceSpool
from repro.core.trace import REC_ENTER, TraceBundle
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.errors import TraceError
from repro.workloads.microbench import micro_d


def test_flush_after_close_is_a_noop(tmp_path):
    spool = TraceSpool(tmp_path / "x.spool")
    spool.write_event(REC_ENTER, 0x400000, 1, 0, 1)
    spool.close()
    spool.flush()                      # must not raise on the closed file
    spool.flush()
    assert spool.records_written == 1
    # Writes stay rejected — idempotent flush is not a reopened spool.
    with pytest.raises(TraceError):
        spool.write_event(REC_ENTER, 0x400000, 2, 0, 1)


def test_finalize_spools_is_idempotent(tmp_path):
    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=3))
    session = TempestSession(m, spool_dir=tmp_path / "spools")
    session.run_serial(micro_d, "node1", 0, 2.0, 0.1)   # stop() finalizes
    header = (tmp_path / "spools" / "header.json").read_bytes()
    session.finalize_spools()          # the second call must be a no-op
    session.finalize_spools()
    assert (tmp_path / "spools" / "header.json").read_bytes() == header
    bundle = TraceBundle.load(tmp_path / "spools")
    assert len(bundle.nodes["node1"]) > 0


def test_stop_after_emergency_flush_does_not_raise(tmp_path):
    from repro.simmachine.process import Compute

    def crashing(proc):
        yield Compute(0.5, 0.9)
        raise RuntimeError("workload died")

    m = Machine(ClusterConfig(n_nodes=1, vary_nodes=False, seed=5))
    session = TempestSession(m, spool_dir=tmp_path / "spools")
    with pytest.raises(RuntimeError):
        session.run_serial(crashing, "node1", 0)
    # _emergency_flush already closed the spools and wrote the header;
    # a later stop() (e.g. from a finally block) must still be clean.
    header = (tmp_path / "spools" / "header.json").read_bytes()
    session.stop()
    session.stop()
    assert (tmp_path / "spools" / "header.json").read_bytes() == header
    assert len(TraceBundle.load(tmp_path / "spools").nodes["node1"])
