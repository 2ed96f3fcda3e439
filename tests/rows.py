"""Readable record rows for tests.

Traces are ``RECORD_DTYPE`` structured arrays everywhere in ``src/``.
Tests that want to spell out a short stream, or assert on one, write
:class:`Row` tuples and convert at the edge with :func:`to_array` and
:func:`rows`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.core.records import RECORD_DTYPE


class Row(NamedTuple):
    """One record's six fields, in ``RECORD_DTYPE`` order."""

    kind: int
    addr: int
    tsc: int
    core: int
    pid: int
    value: float = 0.0


def to_array(rows_: Iterable[tuple]) -> np.ndarray:
    """A structured record array holding *rows_* in order."""
    return np.array([tuple(r) for r in rows_], dtype=RECORD_DTYPE)


def rows(arr: np.ndarray) -> list[Row]:
    """The records of a structured array as :class:`Row` tuples."""
    return [Row(*r) for r in arr.tolist()]
