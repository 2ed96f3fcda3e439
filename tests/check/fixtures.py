"""Hand-built trace artifacts shared by the tempest-check tests."""

import numpy as np

from repro.check.tracelint import check_records, lint_chunks
from repro.core.records import RECORD_DTYPE
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    TraceBundle,
)


def fill_trace(trace, symtab, *, n_pairs=20, tsc0=0):
    """Append a well-formed main/kernel stream with quantized TEMPs."""
    main = symtab.address_of("main")
    kern = symtab.address_of("kernel")
    tsc = tsc0
    trace.append_event(REC_ENTER, main, tsc, 0, 1)
    for _ in range(n_pairs):
        tsc += 50_000_000
        trace.append_event(REC_ENTER, kern, tsc, 0, 1)
        tsc += 10_000_000
        trace.append_event(REC_TEMP, 0, tsc, 3, 2, 44.5)
        trace.append_event(REC_TEMP, 1, tsc, 3, 2, 41.0)
        tsc += 40_000_000
        trace.append_event(REC_EXIT, kern, tsc, 0, 1)
    tsc += 1_000_000
    trace.append_event(REC_EXIT, main, tsc, 0, 1)
    return tsc


def build_bundle(n_pairs=20):
    """A clean single-node bundle with balanced stacks and on-grid TEMPs."""
    symtab = SymbolTable()
    trace = NodeTrace("node1", 1.8e9, ["S0", "S1"])
    fill_trace(trace, symtab, n_pairs=n_pairs)
    bundle = TraceBundle(symtab)
    bundle.add_node(trace)
    bundle.meta = {"sampling_hz": 4.0, "workload": "unit"}
    return bundle


def records_array(rows):
    """Build a structured record array from (kind, addr, tsc, core, pid,
    value) tuples."""
    arr = np.zeros(len(rows), dtype=RECORD_DTYPE)
    for i, row in enumerate(rows):
        arr[i] = row
    return arr


#: the chunk sizes every record-stream test folds its stream at
FOLD_CHUNKS = (1, 7, 64)


def lint_in_chunks(arr, size, **kwargs):
    """:func:`lint_chunks` (diagnostics, time order) of *arr* fed in
    chunks of *size* records."""
    return lint_chunks((arr[lo:lo + size]
                        for lo in range(0, len(arr), size)), **kwargs)


def lint_records(arr, **kwargs):
    """``check_records(arr, **kwargs)``, the fold over the whole stream
    as one chunk, once the fold at every size in :data:`FOLD_CHUNKS` is
    seen to give the same diagnostics list and time-order verdict."""
    whole = lint_chunks([arr], **kwargs)
    for size in FOLD_CHUNKS:
        assert lint_in_chunks(arr, size, **kwargs) == whole, size
    assert check_records(arr, **kwargs) == whole[0]
    return whole[0]
