"""``tempest check`` reads a trace in bounded memory and still checks
the engine's chunking invariance (TL018) on short traces; ``parse``,
``compare`` and ``hotpaths --bundle`` read it in bounded memory too.

Every record file streams through the one record reader in
``STREAM_CHUNK_RECORDS`` chunks, and the deep pass profiles the trace
twice through :func:`~repro.core.streamprof.stream_spool_profile`, at
``STREAM_CHUNK_RECORDS`` and at a small odd chunk size, so no pass
holds a whole record file.  The profiling commands run the same
:func:`~repro.core.streamprof.stream_spool_profile`.
"""

import tracemalloc
import weakref

import numpy as np
import pytest

from repro.check.tracelint import check_path
from repro.cli import main
from repro.core.records import RecordColumns
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.streamprof import ProfileAccumulator
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    NodeTrace,
    TraceBundle,
)

from tests.check.fixtures import records_array


def flat_bundle(path, n_pairs):
    """A clean one-node bundle of ``4 * n_pairs + 2`` records: the
    stream :func:`tests.check.fixtures.fill_trace` writes, built as
    whole columns."""
    symtab = SymbolTable()
    main, kern = symtab.address_of("main"), symtab.address_of("kernel")
    pair = records_array([(REC_ENTER, kern, 50_000_000, 0, 1, 0.0),
                          (REC_TEMP, 0, 60_000_000, 3, 2, 44.5),
                          (REC_TEMP, 1, 60_000_000, 3, 2, 41.0),
                          (REC_EXIT, kern, 100_000_000, 0, 1, 0.0)])
    body = np.tile(pair, n_pairs)
    body["tsc"] += np.repeat(np.arange(n_pairs) * 100_000_000, len(pair))
    end = n_pairs * 100_000_000 + 1_000_000
    arr = np.concatenate([records_array([(REC_ENTER, main, 0, 0, 1, 0.0)]),
                          body,
                          records_array([(REC_EXIT, main, end, 0, 1, 0.0)])])
    trace = NodeTrace("node1", 1.8e9, ["S0", "S1"])
    trace.columns = RecordColumns.adopt(arr)
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0}
    bundle.save(path)
    return path


def traced_peak(run, path):
    """``run(path)`` and its traced heap peak."""
    tracemalloc.start()
    try:
        result = run(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def peaks_at_n_and_2n(tmp_path, run, clean):
    """*run*'s traced heap peaks on ~100k and ~200k records; each result
    must be *clean*."""
    run(flat_bundle(tmp_path / "warm-up", 10))   # lazy imports
    peaks = []
    for n_pairs in (25_000, 50_000):
        result, peak = traced_peak(run, flat_bundle(tmp_path / f"{n_pairs}",
                                                    n_pairs))
        assert result == clean
        peaks.append(peak)
    return peaks


def test_check_path_memory_does_not_grow_with_the_trace(tmp_path):
    """Twice the records, the same peak: no pass holds a whole record
    file (the whole-file reads peaked at ~1.9x)."""
    peaks = peaks_at_n_and_2n(tmp_path, check_path, [])
    assert peaks[1] <= 1.1 * peaks[0], peaks


#: the profiling commands, each as argv for a trace directory
PROFILE_COMMANDS = {
    "parse": lambda path: ["parse", str(path), "--format", "json"],
    "compare": lambda path: ["compare", str(path), str(path)],
    "hotpaths": lambda path: ["hotpaths", "--bundle", str(path)],
}


@pytest.mark.parametrize("command", sorted(PROFILE_COMMANDS))
def test_profile_commands_memory_does_not_grow_with_the_trace(
        tmp_path, capsys, command):
    """The same bound for the commands that profile a trace directory
    (loading it whole peaked at 1.4-1.6x)."""
    argv = PROFILE_COMMANDS[command]
    peaks = peaks_at_n_and_2n(tmp_path, lambda path: main(argv(path)), 0)
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_tl018_catches_a_chunk_sensitive_engine_on_a_short_trace(
        tmp_path, monkeypatch):
    """A trace shorter than one STREAM_CHUNK_RECORDS chunk is still cut
    by the second chunking: an engine that drops the first record of
    every chunk after a node's first is reported as TL018."""
    path = flat_bundle(tmp_path / "b", 2_000)
    assert 4 * 2_000 + 2 < STREAM_CHUNK_RECORDS
    assert check_path(path) == []

    real, started = ProfileAccumulator.consume, weakref.WeakSet()

    def drops_later_first_records(self, chunk):
        if self in started:
            chunk = chunk[1:]
        started.add(self)
        return real(self, chunk)

    monkeypatch.setattr(ProfileAccumulator, "consume",
                        drops_later_first_records)
    assert "TL018" in {d.rule for d in check_path(path)}
