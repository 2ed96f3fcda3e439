"""Columnar trace-record storage.

At the paper's event rates (two function hooks per call plus a 4 Hz
sensor sweep per node) a modest run produces millions of records, so
records are never Python objects: every producer and reader works on one
numpy structured array whose dtype (:data:`RECORD_DTYPE`) is
byte-identical to the ``struct`` layout ``<Bqqiid``:

* appends go into a chunked, amortized-doubling backing array (no Python
  object per record);
* (de)serialization is ``tobytes`` / ``np.frombuffer`` on the whole
  buffer — zero per-record Python work, and byte-compatible with every
  ``tempest-trace-v1`` bundle and spool written before this existed;
* kind/pid/sensor filters are vectorized boolean masks over the columns.

:class:`RecordColumns` is the append-side store; a single event enters
through :meth:`RecordColumns.append_row` as six scalars.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import TraceError

#: structured dtype matching the ``<Bqqiid`` record layout byte-for-byte:
#: kind, addr-or-sensor, tsc, core, pid, value — 33 bytes, no padding.
RECORD_DTYPE = np.dtype(
    [
        ("kind", "<u1"),
        ("addr", "<i8"),
        ("tsc", "<i8"),
        ("core", "<i4"),
        ("pid", "<i4"),
        ("value", "<f8"),
    ]
)

#: bytes per packed record (33; identical to ``struct.calcsize("<Bqqiid")``)
RECORD_SIZE = RECORD_DTYPE.itemsize

#: initial backing-array capacity for a fresh column store
_INITIAL_CAPACITY = 1024


def empty_records() -> np.ndarray:
    """A zero-length structured record array."""
    return np.empty(0, dtype=RECORD_DTYPE)


def records_from_buffer(blob: bytes, *, copy: bool = False) -> np.ndarray:
    """Reinterpret packed record bytes as a structured array (zero-copy).

    *blob* must be a whole number of records; trim torn tails before
    calling.  The returned array is read-only unless ``copy`` is set.
    """
    if len(blob) % RECORD_SIZE:
        raise TraceError(
            f"{len(blob)} bytes is not a multiple of the "
            f"{RECORD_SIZE}-byte record size"
        )
    arr = np.frombuffer(blob, dtype=RECORD_DTYPE)
    return arr.copy() if copy else arr


def records_to_bytes(arr: np.ndarray) -> bytes:
    """Serialize a structured record array to the on-disk byte layout."""
    if arr.dtype != RECORD_DTYPE:
        arr = arr.astype(RECORD_DTYPE)
    return arr.tobytes()


class RecordColumns:
    """Append-optimized columnar store for trace records.

    Growth is chunked: the backing array doubles when full, so *n*
    appends cost amortized O(n) with no per-record Python allocation.
    ``array`` exposes the live prefix as a structured-array view — all
    vectorized consumers (parser, timeline, fault masks) read that.
    """

    __slots__ = ("_arr", "_n")

    def __init__(self, capacity: int = _INITIAL_CAPACITY):
        self._arr = np.empty(max(1, int(capacity)), dtype=RECORD_DTYPE)
        self._n = 0

    # -- construction ---------------------------------------------------
    @classmethod
    def from_array(cls, arr: np.ndarray) -> "RecordColumns":
        """Adopt an existing structured array (copied into owned storage)."""
        if arr.dtype != RECORD_DTYPE:
            arr = arr.astype(RECORD_DTYPE)
        cols = cls(capacity=max(1, len(arr)))
        cols._arr[: len(arr)] = arr
        cols._n = len(arr)
        return cols

    @classmethod
    def from_buffer(cls, blob: bytes) -> "RecordColumns":
        """Deserialize packed record bytes (one bulk copy, no per-record work)."""
        return cls.from_array(records_from_buffer(blob))

    # -- appends --------------------------------------------------------
    def _grow_to(self, need: int) -> None:
        cap = len(self._arr)
        if need <= cap:
            return
        while cap < need:
            cap *= 2
        fresh = np.empty(cap, dtype=RECORD_DTYPE)
        fresh[: self._n] = self._arr[: self._n]
        self._arr = fresh

    def append_row(self, kind: int, addr: int, tsc: int, core: int,
                   pid: int, value: float = 0.0) -> None:
        """Append one record from its six fields."""
        n = self._n
        self._grow_to(n + 1)
        self._arr[n] = (kind, addr, tsc, core, pid, value)
        self._n = n + 1

    def extend_array(self, arr: np.ndarray) -> None:
        """Bulk-append a structured record array."""
        if arr.dtype != RECORD_DTYPE:
            arr = arr.astype(RECORD_DTYPE)
        k = len(arr)
        if not k:
            return
        self._grow_to(self._n + k)
        self._arr[self._n: self._n + k] = arr
        self._n += k

    def clear(self) -> None:
        """Drop all records (capacity is retained)."""
        self._n = 0

    # -- reads ----------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """Structured-array view of the live records (no copy)."""
        return self._arr[: self._n]

    def __len__(self) -> int:
        return self._n

    def to_bytes(self) -> bytes:
        """Single-buffer serialization of every record."""
        return records_to_bytes(self.array)
