"""The profile engine: single-pass, constant-memory profiling.

The paper's parser is post-mortem: collect the full trace plus the tempd
sample log, then merge them offline.  Here every path to a profile —
:class:`~repro.core.parser.TempestParser` over a resident bundle,
:func:`stream_spool_profile` over a spool, live snapshots mid-run — runs
the same :class:`ProfileAccumulator`.  It consumes columnar record chunks
(the ``RecordColumns`` chunks that ``TraceSpool`` writes and
:func:`repro.core.spool.iter_spool_chunks` reads back) *incrementally*,
maintaining per-function/per-sensor online statistics and an incremental
frame stack, so a profile snapshot is available at any point mid-run and
engine state is bounded by O(functions × sensors), not trace length.

Every chunk is folded into constant-size state the moment it arrives:

- Welford mean/variance (bulk Chan merges for whole chunks), running
  min/max, and an exact quantized-bin counter that yields both ``Med``
  and ``Mod`` per (function, sensor) pair (:class:`OnlineStats`);
- per-process frame stacks carried from chunk to chunk, so exclusive
  time, calls and caller arcs reduce over each chunk's ENTER/EXIT
  frames with the matched-frame trick (:func:`frame_depths`);
- inclusive time as an *online union*: a global per-function
  activation count opens a union span on 0→1 and closes it on 1→0,
  with one pending span per function so touching spans merge;
- sample attribution by closed-interval containment (``start <= t <=
  end``) in those spans — the attribution of the paper's post-mortem
  parser.

Each chunk goes through one engine in two steps (see
:meth:`ProfileAccumulator.consume`).  A short **pre-pass** puts the
chunk in time order — a function record's time is its process's clock,
the running maximum of its timestamps (the lenient clamp), a sample's
time its own — and, only when a process's frames do not pair up,
rewrites the chunk with the lenient repairs (:data:`REPAIR_REASONS`).
The vectorized **reduction** then folds it without a per-record loop.

Equivalence contract (pinned by ``tests/core/test_streamprof.py`` and
``tests/core/test_streamprof_differential.py`` against the post-mortem
oracle in ``tests/core/oracle.py``): unless a chunk holds *late
records* — records below the time another, earlier chunk already
reached — the profile is chunking-invariant and equals the oracle's on
the time-sorted trace for every exact field (inclusive/exclusive times,
call counts, arcs, span, ``n``/``min``/``max``/``mod``/``med``), and
``avg``/``var``/``sdv`` within rounding (each chunk's samples fold with
one Chan/Welford merge; ~1e-12 relative, the suite asserts 1e-9).  Late
records are folded at their own time: calls, exclusive time and arcs
are per-process and stay exact; union spans and attribution can differ,
because a span already retired cannot reopen.

One limit of lenient repair: the online union keeps O(functions) state
— an open span plus an activation count per function — so it cannot
hold a *hole* open inside a still-active span.  A process abandoned
mid-run with open frames is closed at its last-seen time only by
``finalize()``; if other processes ran the same function after that
time with gaps, the union bridges the gaps (inclusive time reads high
by at most their length).  Traces whose processes stay live to the end
of the run are unaffected.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import logging

import numpy as np

from repro.core.profilemodel import NodeProfile, RunProfile
from repro.core.records import RECORD_DTYPE
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    check_tsc_hz,
    read_trace_header,
)
from repro.util.errors import TraceError

__all__ = [
    "OnlineStats",
    "ProfileAccumulator",
    "REPAIR_REASONS",
    "StreamingRunProfiler",
    "stream_bundle_profile",
    "stream_spool_profile",
]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Online per-sensor statistics

class OnlineStats:
    """Constant-memory accumulator of the Figure 2(a) statistic set.

    ``n``/``min``/``max`` are exact; ``avg``/``var``/``sdv`` use
    Welford's recurrence per sample and Chan's parallel merge per bulk
    block (exact multiset, summation-order rounding only).  ``mod`` and
    ``med`` both read an exact counter over the readings (sensor readings
    are quantized, so equal readings are bit-identical floats — the same
    assumption an exact ``Counter`` makes; memory is O(distinct
    readings), bounded by the sensor's quantization range): the mode is
    the most frequent bin, the median the middle of the cumulative bin
    counts, with ``np.median``'s even-``n`` rule.
    """

    __slots__ = ("n", "min", "max", "_mean", "_m2", "_bins")

    def __init__(self):
        self.n = 0
        self.min = math.inf
        self.max = -math.inf
        self._mean = 0.0
        self._m2 = 0.0
        self._bins: dict[float, int] = {}

    def push(self, x: float) -> None:
        """Fold one sample into every estimator."""
        x = float(x)
        self.n += 1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        self._bins[x] = self._bins.get(x, 0) + 1

    def push_many(self, values) -> None:
        """Fold a contiguous block of samples (stream order).

        The bulk path behind the vectorized accumulator: ``n``, ``min``,
        ``max`` and the bins reduce array-wise, and the running mean/M2
        folds the block in with one Chan parallel-Welford merge (not a
        per-element loop), so a block of *k* samples costs O(k) numpy
        work.  Every field but ``avg``/``var`` is bit-identical to
        element-wise pushes; those two differ only in summation rounding
        (~1e-12 relative).
        """
        arr = np.asarray(values, dtype=np.float64)
        k = arr.size
        if k == 0:
            return
        if k == 1:
            self.push(float(arr[0]))
            return
        n0 = self.n
        self.n = n0 + k
        lo = float(arr.min())
        hi = float(arr.max())
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        # Chan's parallel merge: two-pass block moments, then one fold.
        b_mean = float(arr.mean())
        d = arr - b_mean
        b_m2 = float(np.dot(d, d))
        if n0 == 0:
            self._mean = b_mean
            self._m2 = b_m2
        else:
            tot = n0 + k
            delta = b_mean - self._mean
            self._mean += delta * (k / tot)
            self._m2 += b_m2 + delta * delta * (n0 * k / tot)
        bins = self._bins
        uq, cnt = np.unique(arr, return_counts=True)
        for v, c in zip(uq.tolist(), cnt.tolist()):
            bins[v] = bins.get(v, 0) + c

    # -- derived statistics --------------------------------------------
    @property
    def avg(self) -> float:
        if self.n == 0:
            return math.nan
        # Clamp: rounding must not push the mean
        # outside the sample range.
        return min(max(self._mean, self.min), self.max)

    @property
    def var(self) -> float:
        return self._m2 / self.n if self.n else math.nan

    @property
    def sdv(self) -> float:
        return math.sqrt(self.var) if self.n else math.nan

    @property
    def med(self) -> float:
        """The exact median: ``float(np.median(readings))`` bit-for-bit."""
        if self.n == 0:
            return math.nan
        # Walk the cumulative counts to the 0-based ranks of the middle
        # pair (one rank twice when n is odd).
        ranks = ((self.n - 1) // 2, self.n // 2)
        mid: list[float] = []
        seen = 0
        for v in sorted(self._bins):
            seen += self._bins[v]
            while len(mid) < 2 and seen > ranks[len(mid)]:
                mid.append(v)
            if len(mid) == 2:
                break
        lo, hi = mid
        return lo if lo == hi else (lo + hi) / 2

    @property
    def mod(self) -> float:
        if not self._bins:
            return math.nan
        best = max(self._bins.items(), key=lambda kv: (kv[1], -kv[0]))
        return float(best[0])

    # -- mergeable-summary algebra -------------------------------------
    def clone(self) -> "OnlineStats":
        """An independent copy (mutating either side affects only it)."""
        out = OnlineStats()
        out.n = self.n
        out.min = self.min
        out.max = self.max
        out._mean = self._mean
        out._m2 = self._m2
        out._bins = dict(self._bins)
        return out

    def merge(self, other: "OnlineStats") -> None:
        """Fold another estimator's state into this one, in place.

        The algebra the fan-in tier is built on: associative and
        commutative, with a freshly constructed estimator as the
        identity.  Every field merges exactly — ``n``/``min``/``max`` and
        the bins behind ``mod``/``med`` — except ``mean``/``m2``, which
        merge with Chan's parallel update (the same multiset as
        sequential feeding, summation-order rounding only, ~1e-12
        relative).
        """
        k = other.n
        if k == 0:
            return
        n0 = self.n
        tot = n0 + k
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        if n0 == 0:
            self._mean = other._mean
            self._m2 = other._m2
        else:
            delta = other._mean - self._mean
            self._mean += delta * (k / tot)
            self._m2 += other._m2 + delta * delta * (n0 * k / tot)
        self.n = tot
        bins = self._bins
        for v, c in other._bins.items():
            bins[v] = bins.get(v, 0) + c

    def to_state(self) -> dict:
        """The serializable ``tempest-summary-v3`` estimator state.

        Keys (drift-tested against ``docs/INTERNALS.md``): ``n``, ``min``,
        ``max``, ``mean``, ``m2``, ``bin_values``, ``bin_counts``.  An
        empty estimator serializes as ``{"n": 0}`` so the JSON stays
        finite-valued.  Floats survive a JSON round-trip bit-exactly
        (``repr`` encoding), so a deserialized state merges and reports
        identically to the original.
        """
        if self.n == 0:
            return {"n": 0}
        items = sorted(self._bins.items())
        return {
            "n": self.n,
            "min": self.min,
            "max": self.max,
            "mean": self._mean,
            "m2": self._m2,
            "bin_values": [v for v, _ in items],
            "bin_counts": [c for _, c in items],
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineStats":
        """Rebuild an estimator from :meth:`to_state` output.

        States from older summary versions carry extra keys (the
        retired median markers ``q``/``pos``); they are ignored — the
        bins hold every reading, so the median comes out exact.  A
        state whose bins are missing or do not account for all ``n``
        readings raises :class:`TraceError`.
        """
        out = cls()
        try:
            n = int(state.get("n", 0))
            if n == 0:
                return out
            out.n = n
            out.min = float(state["min"])
            out.max = float(state["max"])
            out._mean = float(state["mean"])
            out._m2 = float(state["m2"])
            out._bins = {
                float(v): int(c)
                for v, c in zip(state["bin_values"], state["bin_counts"],
                                strict=True)
            }
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"malformed estimator state: {exc!r}")
        if sum(out._bins.values()) != n or \
                any(c <= 0 for c in out._bins.values()):
            raise TraceError(
                f"malformed estimator state: bin counts do not add up "
                f"to n = {n}"
            )
        return out


# ----------------------------------------------------------------------
# Attribution helpers (shared by the accumulator, the summary algebra
# and the parser)

#: below this many expected sweeps, a shortfall is indistinguishable from
#: sampling-phase quantization, so no gap is reported
_MIN_EXPECTED_SWEEPS = 4.0


def _coverage(total_time_s: float, n_hits: int, sampling_hz: float) -> float:
    """Fraction of expected sampling sweeps that actually landed.

    At ``sampling_hz`` a function active for ``total_time_s`` should catch
    about ``total * hz`` sweeps; failed sweeps, lost records, or a dead
    tempd make ``n_hits`` fall short, and the gap-aware statistics report
    that shortfall rather than silently presenting thin data as complete.
    Functions expecting fewer than :data:`_MIN_EXPECTED_SWEEPS` sweeps are
    below the sampling resolution (a one-sweep miss there is phase luck,
    not a fault) — coverage is pinned to 1.0 for them.
    """
    expected = total_time_s * sampling_hz
    if expected < _MIN_EXPECTED_SWEEPS:
        return 1.0
    return min(1.0, n_hits / expected)


# ----------------------------------------------------------------------
# The pre-pass: time order and lenient repairs

#: What the pre-pass can find in a chunk and repair before the reduction
#: folds it.  Keys are the counter names in
#: :attr:`ProfileAccumulator.fallbacks` (each counts chunks); the prose
#: lives in docs/INTERNALS.md ("Repairs"), drift-tested by
#: tests/core/test_streamprof_differential.py.
REPAIR_REASONS = {
    "time-regression":
        "a function record is earlier than its process's clock (cross-core "
        "TSC skew or corruption); it takes the clock's time",
    "unbalanced-frames":
        "an EXIT has no open frame at its depth (empty-stack EXIT or "
        "record loss): it is dropped, or the stack unwinds",
    "frame-mismatch":
        "a paired ENTER/EXIT resolve to different functions: EXITs for "
        "the crossed frames are inserted at the same time",
    "late-records":
        "a record is earlier than an earlier chunk reached; it is folded "
        "at its own time, so union spans and attribution may differ from "
        "the whole-stream result",
}

_R_REGRESSION = "time-regression"
_R_UNBALANCED = "unbalanced-frames"
_R_MISMATCH = "frame-mismatch"
_R_LATE = "late-records"

_INITIAL_FIDS = 64


def frame_depths(is_enter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The matched-frame trick's depth arrays for one process's stream.

    ``depth_after[i]`` is the call depth after event *i*;
    ``frame_depth[i]`` is the depth of the frame the event belongs to —
    an ENTER's own depth, or for an EXIT the depth of the frame it
    closes.  Within one process the *i*-th ENTER reaching depth *d*
    always matches the *i*-th EXIT leaving depth *d* (a second depth-*d*
    frame cannot open before the first closes), so ``frame_depth`` plus
    one stable sort pairs every frame without a per-event loop.
    """
    depth_after = np.cumsum(np.where(is_enter, 1, -1))
    frame_depth = np.where(is_enter, depth_after, depth_after + 1)
    return depth_after, frame_depth


def _monotone(a: np.ndarray) -> bool:
    return len(a) < 2 or bool(np.all(a[1:] >= a[:-1]))


def process_clock(key: np.ndarray, pids: np.ndarray,
                  seed: Optional[dict] = None) -> np.ndarray:
    """Each function record's time under the lenient clamp.

    A node's trace is only time-ordered per process, and within one
    process a timestamp that regresses (cross-core TSC skew, corruption)
    takes its process's clock instead: the running maximum of the
    process's keys so far, starting from ``seed[pid]`` (the clock
    carried over from earlier records).  *key* is any time column —
    TSC ticks or seconds.  Returns *key* itself when nothing is clamped.
    :func:`feed_node` applies this rule to a whole resident node,
    :meth:`ProfileAccumulator.consume` to each chunk.
    """
    out = key
    if not len(key):
        return out
    # Every pid heads at least one run; writing in bursts keeps runs few.
    heads = np.flatnonzero(pids[1:] != pids[:-1]) + 1
    for pid in np.unique(pids[np.append(0, heads)]).tolist():
        sel = np.flatnonzero(pids == pid)
        own = key[sel]
        floor = seed.get(pid) if seed else None
        if (floor is None or own[0] >= floor) and _monotone(own):
            continue
        run = np.maximum.accumulate(own)
        if floor is not None:
            run = np.maximum(run, floor)
        if out is key:
            out = key.copy()
        out[sel] = run
    return out


# ----------------------------------------------------------------------
# The accumulator

class ProfileAccumulator:
    """Fold columnar record chunks into one node's profile.

    ``consume`` accepts structured record arrays of any size in stream
    order; ``snapshot`` returns a valid :class:`NodeProfile` at any point
    (open frames credited up to the latest event seen) without disturbing
    the accumulation; ``finalize`` applies end-of-trace semantics (strict:
    open frames raise; lenient: they close at the process's last event
    time) and returns the final profile.

    The state is O(functions × sensors) regardless of how many records
    flow through.  Each chunk runs through one engine:

    * the **pre-pass** (:meth:`_time_order`, :meth:`_repair`) puts the
      chunk's profile records in time order and, only when a process's
      frames fail the matched-frame check, rewrites them with the
      lenient repairs (strict mode raises there instead); it never
      writes to the caller's array;
    * the **segment reduction** (:meth:`_reduce`) — ENTER/EXIT frames
      are matched per process with the matched-frame trick
      (:func:`frame_depths`, over the carry-over stack threaded in as a
      virtual ENTER prefix), exclusive time reduces with one
      ``np.add.at`` over time-ordered top-of-stack segments, inclusive
      time reduces per function from a segmented cumulative sum of
      activation counts (union spans merge when their endpoints
      touch), and samples are attributed by closed-interval span
      containment and pushed per (function, sensor) group with one
      :meth:`OnlineStats.push_many` each.
    """

    def __init__(
        self,
        node_name: str,
        symtab: SymbolTable,
        seconds_fn: Callable,
        sensor_names: list[str],
        *,
        sampling_hz: float = 4.0,
        strict: bool = False,
        hcct_budget: Optional[int] = None,
    ):
        self.node_name = node_name
        self.symtab = symtab
        self.seconds_fn = seconds_fn
        self.sensor_names = list(sensor_names)
        self.sampling_hz = float(sampling_hz)
        self.strict = strict
        #: keep a hot calling-context tree alongside the flat profile:
        #: ``None`` disables it (the default — the flat engine pays
        #: nothing), a positive budget bounds tracked contexts by
        #: space-saving eviction, ``0`` keeps the exact unbounded CCT
        #: (testing/benchmark reference).
        self.hcct_budget = hcct_budget
        #: per-reason counts of chunks the pre-pass repaired (keys are
        #: :data:`REPAIR_REASONS` entries)
        self.fallbacks: dict[str, int] = {}
        self.n_records = 0
        self._finalized = False
        # -- function registry: aggregates are keyed by dense integer
        #    fids so the hot path can reduce into flat arrays
        self._addr_fid: dict[int, int] = {}
        self._fid_by_name: dict[str, int] = {}
        self._fnames: list[str] = []
        cap = _INITIAL_FIDS
        self._excl = np.zeros(cap)
        self._incl = np.zeros(cap)
        self._incl_touched = np.zeros(cap, dtype=bool)
        self._calls_arr = np.zeros(cap, dtype=np.int64)
        self._active_arr = np.zeros(cap, dtype=np.int64)
        self._open_start_arr = np.zeros(cap)
        # the latest time the open union span is known to reach (a
        # nested close, or the end of a run it resumed): a count-only
        # union would end it early on a late or end-of-trace close
        self._maxclose_arr = np.full(cap, -math.inf)
        self._pend_start = np.zeros(cap)
        self._pend_end = np.zeros(cap)
        self._pend_mask = np.zeros(cap, dtype=bool)
        # -- per-process state carried from chunk to chunk: open frames
        #    and the clock (latest function-record time)
        self._stacks: dict[int, list[tuple[int, float]]] = {}
        self._last_time: dict[int, float] = {}
        self._now = -math.inf                # latest time seen in any record
        self._top_since: dict[int, tuple[int, float]] = {}
        # -- remaining sparse per-function aggregates
        self._arcs: dict[tuple[int, int], int] = {}   # (-1 = "<root>")
        self._span_lo = math.inf
        self._span_hi = -math.inf
        # -- per-(function, sensor) online statistics
        self._stats: dict[tuple[int, int], OnlineStats] = {}
        self._attr_seq: dict[tuple[int, int], int] = {}
        self._seq = 0
        # samples sharing the latest sample timestamp (retro attribution)
        self._recent: tuple[Optional[float], list[tuple[int, int, float]]] = \
            (None, [])
        # -- node-level per-sensor aggregates (snapshot sensor_summary)
        self._summary = [OnlineStats() for _ in self.sensor_names]
        # -- hot calling-context tree (optional; repro.core.cct)
        if hcct_budget is None:
            self._tree = None
        else:
            from repro.core.cct import ContextTree

            self._tree = ContextTree(
                self.sensor_names,
                budget=None if hcct_budget == 0 else int(hcct_budget),
            )
        #: per-process context-id stacks, mirroring ``_stacks`` frame for
        #: frame (the path of the open frames in the tree)
        self._ctx_stacks: dict[int, list[int]] = {}

    # ------------------------------------------------------------------
    # Function registry

    def _grow(self, need: int) -> None:
        cap = len(self._excl)
        while cap < need:
            cap *= 2
        for attr in ("_excl", "_incl", "_incl_touched", "_calls_arr",
                     "_active_arr", "_open_start_arr", "_pend_start",
                     "_pend_end", "_pend_mask", "_maxclose_arr"):
            old = getattr(self, attr)
            fill = -math.inf if attr == "_maxclose_arr" else 0
            new = np.full(cap, fill, dtype=old.dtype)
            new[: len(old)] = old
            setattr(self, attr, new)

    def _fid_for_addr(self, addr: int) -> int:
        fid = self._addr_fid.get(addr)
        if fid is None:
            name = self.symtab.name_of(addr)
            fid = self._fid_by_name.get(name)
            if fid is None:
                fid = len(self._fnames)
                self._fnames.append(name)
                self._fid_by_name[name] = fid
                if fid >= len(self._excl):
                    self._grow(fid + 1)
            self._addr_fid[addr] = fid
        return fid

    # ------------------------------------------------------------------
    # Ingest

    def consume(self, arr: np.ndarray) -> None:
        """Fold one columnar record chunk (any size, stream order).

        The pre-pass puts the chunk's profile records in time order and
        repairs them if their frames do not pair up; the reduction folds
        the result.  Each repair it took counts once in
        :attr:`fallbacks`.  Nothing is committed before an error is
        raised, and *arr* is never written to.
        """
        if self._finalized:
            raise TraceError(
                f"{self.node_name}: accumulator already finalized"
            )
        if arr.dtype != RECORD_DTYPE:
            arr = np.asarray(arr)
            if arr.dtype != RECORD_DTYPE:
                raise TraceError(
                    f"{self.node_name}: chunk dtype {arr.dtype} is not the "
                    "record dtype"
                )
        if not len(arr):
            return
        self.n_records += len(arr)
        chunk, repairs = self._time_order(arr)
        if chunk is not None:
            t_hi = float(chunk[2][-1])
            late = _R_LATE in repairs
            reason = self._reduce(*chunk, late=late)
            if reason is not None:
                repairs.append(reason)
                chunk, clocks = self._repair(*chunk)
                if self._reduce(*chunk, late=late) is not None:
                    raise AssertionError(
                        f"{self.node_name}: repaired chunk still fails "
                        "the matched-frame check")
                # A dropped EXIT still advanced its process's clock.
                self._last_time.update(clocks)
            self._now = max(self._now, t_hi)
        for reason in repairs:
            self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        if self._tree is not None:
            # Chunk-boundary space-saving prune: contexts still open on
            # some stack are pinned (their slots are live credit
            # targets), so eviction decisions depend only on where the
            # chunk boundaries fall.
            self._tree.end_chunk(pinned={
                cid for st in self._ctx_stacks.values() for cid in st
            })

    def _times_of(self, tsc: np.ndarray) -> np.ndarray:
        """Vectorized TSC→seconds, matching ``seconds_fn`` per record exactly."""
        try:
            times = np.asarray(self.seconds_fn(tsc), dtype=np.float64)
            if times.shape != tsc.shape:
                raise TypeError("seconds_fn is not elementwise")
        except (TypeError, ValueError, AttributeError) as exc:
            # seconds_fn is not vectorizable; convert record-by-record.
            _log.debug("%s: seconds_fn %r is not elementwise (%s)",
                       self.node_name, self.seconds_fn, exc)
            times = np.array([self.seconds_fn(int(v)) for v in tsc],
                             dtype=np.float64)
        return times

    # ------------------------------------------------------------------
    # The pre-pass

    def _time_order(self, arr: np.ndarray):
        """The chunk's profile records as columns in time order.

        Returns ``((kind, code, t, pid, value), repairs)`` — ``code`` is
        the function id of an ENTER/EXIT and the sensor index of a TEMP
        record, ``t`` the time the record is folded at — or ``(None,
        [])`` when the chunk holds no profile records.  A chunk already
        in order that starts at or after everything seen so far costs
        one monotonicity check; otherwise each function record takes
        its process's clock (:func:`process_clock`), and the records
        are stable-sorted by time.
        """
        kinds = arr["kind"]
        keep = (kinds == REC_ENTER) | (kinds == REC_EXIT) | (kinds == REC_TEMP)
        if not keep.any():
            return None, []
        if not keep.all():
            # np.take: fancy indexing is far slower on the packed dtype.
            arr = np.take(arr, np.flatnonzero(keep))
        kind, addr, pid, value = (
            arr["kind"], arr["addr"], arr["pid"], arr["value"])
        is_f = kind != REC_TEMP
        n_sensors = len(self.sensor_names)
        sidx = addr[~is_f]
        bad = sidx[(sidx < 0) | (sidx >= n_sensors)]
        if len(bad):
            raise TraceError(
                f"{self.node_name}: TEMP record for sensor index "
                f"{int(bad[0])} but only {n_sensors} sensors declared"
            )
        code = addr.astype(np.int64)
        if is_f.any():
            uniq, inverse = np.unique(addr[is_f], return_inverse=True)
            code[is_f] = np.fromiter(
                (self._fid_for_addr(int(a)) for a in uniq),
                dtype=np.int64, count=len(uniq),
            )[inverse]
        t = self._times_of(arr["tsc"])
        repairs: list[str] = []
        if _monotone(t) and float(t[0]) >= self._now:
            return (kind, code, t, pid, value), repairs
        f_t = t[is_f]
        f_pid = pid[is_f]
        clock = process_clock(f_t, f_pid, self._last_time)
        if clock is not f_t:
            bad = np.flatnonzero(f_t < clock - 1e-12)
            if self.strict and len(bad):
                i = int(bad[0])
                raise TraceError(
                    f"pid {int(f_pid[i])}: timestamps regressed "
                    f"({float(f_t[i])} after {float(clock[i])}); "
                    "was the process bound to one core?"
                )
            t = t.copy()
            t[is_f] = clock
            repairs.append(_R_REGRESSION)
        if float(t.min()) < self._now:
            repairs.append(_R_LATE)
        if not _monotone(t):
            order = np.argsort(t, kind="stable")
            kind, code, t, pid, value = (
                kind[order], code[order], t[order], pid[order], value[order])
        return (kind, code, t, pid, value), repairs

    def _repair(self, kind, code, t, pid, value):
        """Rewrite a chunk whose frames do not pair up (the oracle's rules).

        Walks the function records with each process's carried stack:
        an EXIT on an empty stack is dropped; a crossed EXIT gets an
        EXIT at its time inserted for each frame above its match; an
        EXIT that matches nothing is dropped after EXITs unwinding the
        whole stack.  Strict mode raises at the first such EXIT instead.
        Returns the rewritten columns and each walked process's clock
        (a dropped EXIT still advances it).
        """
        n = len(kind)
        stacks: dict[int, list[int]] = {}
        clocks: dict[int, float] = {}
        rows: list[int] = []        # the output, as row indices
        extra: list[tuple] = []     # inserted EXITs, rows n, n + 1, ...
        fnames = self._fnames
        for pos, k, fid, ti, p in zip(range(n), kind.tolist(), code.tolist(),
                                      t.tolist(), pid.tolist()):
            if k == REC_TEMP:
                rows.append(pos)
                continue
            clocks[p] = ti
            stack = stacks.get(p)
            if stack is None:
                stack = stacks[p] = [f for f, _ in self._stacks.get(p, ())]
            if k == REC_ENTER:
                stack.append(fid)
            elif stack and stack[-1] == fid:
                stack.pop()
            elif not stack:
                if self.strict:
                    raise TraceError(
                        f"pid {p}: EXIT {fnames[fid]!r} with empty stack")
                continue
            else:
                if self.strict:
                    raise TraceError(
                        f"pid {p}: EXIT {fnames[fid]!r} but top of stack "
                        f"is {fnames[stack[-1]]!r}"
                    )
                matched = fid in stack
                while stack and stack[-1] != fid:
                    rows.append(n + len(extra))
                    extra.append((REC_EXIT, stack.pop(), ti, p, 0.0))
                if not matched:
                    continue
                stack.pop()
            rows.append(pos)
        cols = (kind, code, t, pid, value)
        if extra:
            cols = tuple(np.concatenate((c, new))
                         for c, new in zip(cols, zip(*extra)))
        return tuple(c[rows] for c in cols), clocks

    def _attribute(self, fid: int, sidx: int, value: float,
                   seq: int) -> None:
        key = (fid, sidx)
        prev = self._attr_seq.get(key)
        if prev is not None and prev >= seq:
            return
        self._attr_seq[key] = seq
        st = self._stats.get(key)
        if st is None:
            st = self._stats[key] = OnlineStats()
        st.push(value)

    # ------------------------------------------------------------------
    # The reduction: chunked numpy segment reduction

    def _reduce(self, kind, code, times, pids, value, *, late: bool
                ) -> Optional[str]:
        """Fold one time-ordered chunk without a per-record loop.

        Returns ``None`` once folded, or the :data:`REPAIR_REASONS` key
        of the first process whose frames fail the matched-frame check;
        then nothing has been committed, and the chunk goes to
        :meth:`_repair`.  ``late`` says the chunk holds records below
        what earlier chunks reached (see :meth:`_commit_union`).
        """
        f_mask = kind != REC_TEMP
        s_mask = ~f_mask
        s_sidx = code[s_mask]
        s_t = times[s_mask]
        s_val = value[s_mask].astype(np.float64)

        f_fid = f_t = f_enter = None
        have_funcs = bool(f_mask.any())
        per_pid: list[tuple] = []
        seg_fids: list[np.ndarray] = []
        seg_dts: list[np.ndarray] = []
        seg_pos: list[np.ndarray] = []
        arc_code_parts: list[np.ndarray] = []
        tree = self._tree
        # (pid, src) per exclusive-segment part: ``src`` holds the ext
        # indices of each segment's top ENTER, or None for the carried
        # top-of-stack segment — resolved to context ids at commit time.
        seg_ctx_parts: list[tuple[int, Optional[np.ndarray]]] = []
        f_gpos_all = np.nonzero(f_mask)[0] if tree is not None else None
        if have_funcs:
            f_fid = code[f_mask]
            f_pid = pids[f_mask].astype(np.int64)
            f_enter = kind[f_mask] == REC_ENTER
            f_t = times[f_mask]
            n_names = len(self._fnames)

            # ---- per-process frame matching (pure: nothing committed
            #      until every pid validates) ----
            for pid in np.unique(f_pid).tolist():
                sel = f_pid == pid
                gpos = np.nonzero(sel)[0]
                is_en = f_enter[sel]
                ni = f_fid[sel]
                t = f_t[sel]
                carry = self._stacks.get(pid) or []
                base = len(carry)
                if base:
                    # Thread the carry-over stack in as a virtual ENTER
                    # prefix: the matched-frame pairing, parent lookups
                    # and survivor extraction then treat carried frames
                    # and chunk frames uniformly.
                    ext_en = np.concatenate(
                        (np.ones(base, dtype=bool), is_en))
                    ext_ni = np.concatenate((
                        np.fromiter((f for f, _ in carry), dtype=np.int64,
                                    count=base),
                        ni,
                    ))
                else:
                    ext_en = is_en
                    ext_ni = ni
                depth_after, frame_depth = frame_depths(ext_en)
                if int(depth_after.min()) < 0:
                    return _R_UNBALANCED
                enters = np.nonzero(ext_en)[0]
                exits = np.nonzero(~ext_en)[0]
                ed = frame_depth[enters]
                xd = frame_depth[exits]
                eo = np.argsort(ed, kind="stable")
                xo = np.argsort(xd, kind="stable")
                pe = enters[eo]
                px = exits[xo]
                eds = ed[eo]
                xds = xd[xo]
                if len(px):
                    e_lo = np.searchsorted(eds, xds, side="left")
                    e_hi = np.searchsorted(eds, xds, side="right")
                    ranks = (np.arange(len(xds))
                             - np.searchsorted(xds, xds, side="left"))
                    mate = e_lo + ranks
                    if np.any(mate >= e_hi):
                        return _R_UNBALANCED
                    if not np.array_equal(ext_ni[pe[mate]], ext_ni[px]):
                        return _R_MISMATCH
                # Surviving frames: per depth, enters beyond the exit
                # count stay open (at most one per depth, in depth order
                # — i.e. bottom-to-top stack order).
                if len(pe):
                    e_rank = (np.arange(len(eds))
                              - np.searchsorted(eds, eds, side="left"))
                    n_x = (np.searchsorted(xds, eds, side="right")
                           - np.searchsorted(xds, eds, side="left"))
                    open_pos = pe[e_rank >= n_x]
                else:
                    open_pos = pe
                new_stack = [
                    carry[p] if p < base
                    else (int(ext_ni[p]), float(t[p - base]))
                    for p in open_pos.tolist()
                ]

                # Top-of-stack after each event, as the ext index of the
                # ENTER whose frame is on top (-1 = stack empty): an
                # ENTER is its own top; an EXIT leaves the most recent
                # still-open frame one level up on top.  The fid view
                # derives from it; the tree commit reuses the indices to
                # map segments and samples onto context ids.
                m_ext = len(ext_en)
                top_src = np.full(m_ext, -1, dtype=np.int64)
                top_src[enters] = enters
                exit_da = depth_after[exits]
                live = exit_da > 0
                if live.any():
                    lx = exits[live]
                    ld = exit_da[live]
                    for d in np.unique(ld).tolist():
                        q = lx[ld == d]
                        open_enters = enters[ed == d]
                        parent = open_enters[
                            np.searchsorted(open_enters, q) - 1]
                        top_src[q] = parent
                top = np.where(top_src >= 0,
                               ext_ni[np.maximum(top_src, 0)],
                               np.int64(-1))

                # Caller arcs for chunk enters ("<root>" coded -1); the
                # parent ENTER's ext index doubles as the context-tree
                # interning order.
                ce_mask = enters >= base
                ce = enters[ce_mask]
                parent_ext = np.empty(0, dtype=np.int64)
                if len(ce):
                    ced = ed[ce_mask]
                    caller = np.full(len(ce), -1, dtype=np.int64)
                    parent_ext = np.full(len(ce), -1, dtype=np.int64)
                    deep = ced > 1
                    if deep.any():
                        for d in np.unique(ced[deep]).tolist():
                            at_d = ced == d
                            q = ce[at_d]
                            open_enters = enters[ed == d - 1]
                            parent = open_enters[
                                np.searchsorted(open_enters, q) - 1]
                            caller[at_d] = ext_ni[parent]
                            parent_ext[at_d] = parent
                    arc_code_parts.append(
                        (caller + 1) * np.int64(n_names) + ext_ni[ce])

                # Exclusive-time segments between consecutive chunk
                # events while the stack is non-empty; the carried
                # top-of-stack segment closes at the first chunk event.
                if len(t) > 1:
                    da = depth_after[base:][:-1]
                    dt = t[1:] - t[:-1]
                    tops = top[base:][:-1]
                    valid = (da > 0) & (dt > 0)
                    if valid.any():
                        seg_fids.append(tops[valid])
                        seg_dts.append(dt[valid])
                        seg_pos.append(gpos[1:][valid])
                        if tree is not None:
                            seg_ctx_parts.append(
                                (pid, top_src[base:][:-1][valid]))
                carry_top = self._top_since.get(pid)
                if carry_top is not None:
                    tfid, since = carry_top
                    t0 = float(t[0])
                    if t0 > since:
                        seg_fids.append(np.array([tfid], dtype=np.int64))
                        seg_dts.append(np.array([t0 - since]))
                        seg_pos.append(gpos[:1])
                        if tree is not None:
                            seg_ctx_parts.append((pid, None))
                treeinfo = None
                if tree is not None:
                    treeinfo = (base, open_pos, ce, parent_ext, top_src,
                                f_gpos_all[sel], ext_ni)
                per_pid.append((pid, new_stack, float(t[-1]), treeinfo))

        # ---- the chunk is well-formed: commit ----
        spans_for: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        first_opens: dict[int, float] = {}
        if have_funcs:
            enters_fid = f_fid[f_enter]
            if len(enters_fid):
                self._calls_arr[:n_names] += np.bincount(
                    enters_fid, minlength=n_names)
                lo = float(f_t[f_enter][0])     # time order: first is min
                if lo < self._span_lo:
                    self._span_lo = lo
            exit_t = f_t[~f_enter]
            if len(exit_t):
                hi = float(exit_t[-1])
                if hi > self._span_hi:
                    self._span_hi = hi
            if arc_code_parts:
                arcs = self._arcs
                codes = (arc_code_parts[0] if len(arc_code_parts) == 1
                         else np.concatenate(arc_code_parts))
                for code, cnt in zip(*np.unique(codes, return_counts=True)):
                    code = int(code)
                    key = (code // n_names - 1, code % n_names)
                    arcs[key] = arcs.get(key, 0) + int(cnt)
            for pid, new_stack, t_last, _ti in per_pid:
                self._stacks[pid] = new_stack
                self._last_time[pid] = t_last
                if new_stack:
                    self._top_since[pid] = (new_stack[-1][0], t_last)
                else:
                    self._top_since.pop(pid, None)
            if seg_fids:
                sf = np.concatenate(seg_fids)
                sd = np.concatenate(seg_dts)
                sp = np.concatenate(seg_pos)
                # np.add.at applies adds sequentially in index order, so
                # sorting segments by their closing event's position
                # sums each function's segments in time order, whatever
                # the chunking.
                order = np.argsort(sp, kind="stable")
                np.add.at(self._excl, sf[order], sd[order])

            self._commit_union(f_fid, f_enter, f_t, spans_for, first_opens,
                               late=late)

        if tree is not None:
            self._commit_tree(per_pid, seg_ctx_parts, seg_dts, seg_pos,
                              s_t, s_sidx, s_val, np.nonzero(s_mask)[0])

        # Retroactive attribution of carried samples to union spans that
        # (re)open at exactly the carried sample timestamp.
        rt0, rsamples = self._recent
        if rsamples and first_opens:
            for fid, t_open in first_opens.items():
                if t_open == rt0:
                    for seq, sidx, value in rsamples:
                        self._attribute(fid, sidx, value, seq)

        n_s = len(s_t)
        if n_s:
            base_seq = self._seq
            self._seq = base_seq + n_s
            for sidx in np.unique(s_sidx).tolist():
                self._summary[sidx].push_many(s_val[s_sidx == sidx])
            self._attribute_chunk(spans_for, s_t, s_sidx, s_val, base_seq)
            t_last = float(s_t[-1])
            tie = np.nonzero(s_t == t_last)[0]
            self._recent = (t_last, [
                (base_seq + 1 + int(i), int(s_sidx[i]), float(s_val[i]))
                for i in tie.tolist()
            ])
        return None

    def _commit_tree(self, per_pid, seg_ctx_parts, seg_dts, seg_pos,
                     s_t, s_sidx, s_val, s_gpos) -> None:
        """Fold one validated chunk into the calling-context tree.

        Context ids derive from the per-pid matched-frame machinery the
        flat commit already ran: each chunk ENTER interns under its
        parent ENTER's context (``parent_ext``), a depth level at a time
        with one ``intern`` per distinct context, and the chunk's calls
        count in one ``bincount``; carried frames keep the
        context-stack prefix, exclusive segments map their top ENTER's
        ext index (``top_src``) onto context ids and reduce with the
        same time-ordered ``np.add.at`` as the flat profile — so the
        tree's per-context times do not depend on the chunking.  Samples
        attribute point-in-time: each lands once on
        every distinct context topping some process's stack at that
        stream position, pushed per (context, sensor) in stream order.
        """
        tree = self._tree
        fnames = self._fnames
        ctx_stacks = self._ctx_stacks
        # Pre-chunk tops: processes without events keep their context.
        pids_in_chunk = {pid for pid, _ns, _tl, _ti in per_pid}
        const_cids = sorted({st[-1] for pid, st in ctx_stacks.items()
                             if st and pid not in pids_in_chunk})
        # One context-id column over every pid's ext indices; each pid's
        # ``ecid`` is a view into it, so scattering cids into the column
        # fills the per-pid views too.
        offs = np.cumsum([0] + [len(ti[4]) for _p, _ns, _tl, ti in per_pid])
        ecid_all = np.full(int(offs[-1]), -1, dtype=np.int64)
        ecid_by_pid: dict[int, np.ndarray] = {}
        carry_by_pid: dict[int, list[int]] = {}
        e_at, e_par, e_fid = [], [], []
        for (pid, _ns, _tl, ti), off in zip(per_pid, offs.tolist()):
            base, _open_pos, ce, parent_ext, top_src, _gg, ext_ni = ti
            cstack = ctx_stacks.get(pid) or []
            carry_by_pid[pid] = cstack
            ecid = ecid_by_pid[pid] = ecid_all[off:off + len(top_src)]
            if base:
                ecid[:base] = cstack
            e_at.append(ce + off)
            e_par.append(np.where(parent_ext >= 0, parent_ext + off, -1))
            e_fid.append(ext_ni[ce])
        if e_at:
            # Intern in rounds, one per depth level: a round takes the
            # ENTERs whose parent context is known (carried, the root,
            # or interned by an earlier round — ``parent_ext`` always
            # points earlier), and interns each distinct (parent, name)
            # once.
            e_at = np.concatenate(e_at)
            e_par = np.concatenate(e_par)
            e_fid = np.concatenate(e_fid)
            n_names = len(fnames)
            pending = np.arange(len(e_at))
            while len(pending):
                par = e_par[pending]
                pcid = np.where(par >= 0, ecid_all[np.maximum(par, 0)], 0)
                ready = pcid >= 0
                now = pending[ready]
                uniq, inv = np.unique(pcid[ready] * n_names + e_fid[now],
                                      return_inverse=True)
                cids = np.fromiter(
                    (tree.intern(p, fnames[f]) for p, f in zip(
                        (uniq // n_names).tolist(),
                        (uniq % n_names).tolist())),
                    dtype=np.int64, count=len(uniq))
                ecid_all[e_at[now]] = cids[inv]
                pending = pending[~ready]
            calls = np.bincount(ecid_all[e_at])
            tree._calls[:len(calls)] += calls
        if seg_ctx_parts:
            parts = []
            for pid, src in seg_ctx_parts:
                if src is None:        # the carried top-of-stack segment
                    parts.append(np.array([carry_by_pid[pid][-1]],
                                          dtype=np.int64))
                else:
                    parts.append(ecid_by_pid[pid][src])
            sc = parts[0] if len(parts) == 1 else np.concatenate(parts)
            sd = np.concatenate(seg_dts)
            sp = np.concatenate(seg_pos)
            order = np.argsort(sp, kind="stable")
            tree.add_excl_at(sc[order], sd[order])
        n_s = len(s_t)
        if n_s:
            cap = np.int64(len(tree._names) + 1)
            samp_idx = np.arange(n_s, dtype=np.int64)
            code_parts = [samp_idx * cap + cid for cid in const_cids]
            for pid, _ns, _tl, ti in per_pid:
                base, _op, _ce, _pe, top_src, gpos_g, _ni = ti
                ecid = ecid_by_pid[pid]
                idx = np.searchsorted(gpos_g, s_gpos, side="left") - 1
                cids = np.full(n_s, np.int64(-1))
                has = idx >= 0
                if has.any():
                    src = top_src[base + idx[has]]
                    cids[has] = np.where(src >= 0,
                                         ecid[np.maximum(src, 0)],
                                         np.int64(-1))
                carry = carry_by_pid[pid]
                if carry and not has.all():
                    cids[~has] = carry[-1]
                ok = cids >= 0
                if ok.any():
                    code_parts.append(samp_idx[ok] * cap + cids[ok])
            if code_parts:
                codes = np.unique(np.concatenate(code_parts)
                                  if len(code_parts) > 1
                                  else code_parts[0])
                samp = codes // cap
                cid_arr = codes % cap
                for c in np.unique(cid_arr).tolist():
                    sel_s = samp[cid_arr == c]
                    for sidx in range(len(self.sensor_names)):
                        m = s_sidx[sel_s] == sidx
                        if m.any():
                            tree.push_samples(int(c), sidx,
                                              s_val[sel_s[m]])
        # Commit the post-chunk context stacks (mirrors ``_stacks``).
        for pid, _ns, _tl, ti in per_pid:
            base, open_pos, _ce, _pe, _ts, _gg, _ni = ti
            carry = carry_by_pid[pid]
            ecid = ecid_by_pid[pid]
            ctx_stacks[pid] = [
                carry[p] if p < base else int(ecid[p])
                for p in open_pos.tolist()
            ]

    def _commit_union(self, f_fid, f_enter, f_t, spans_for, first_opens,
                      *, late: bool) -> None:
        """Per-function inclusive-time union over one time-ordered chunk.

        A segmented cumulative sum of ±1 activation deltas finds the
        0→1 opens and 1→0 closes per function; each close pairs with its
        same-rank open (rank shifted by one when the function carried an
        open span into the chunk), and raw spans merge into runs when
        they touch, like the one-span pending buffer carried between
        chunks.  All fully-retired runs reduce with one ``np.add.at``
        (per-slot order preserved, so sums do not depend on the
        chunking); only each function's *last* run needs its own
        disposition (kept pending, resumed into the open span, or
        flushed).

        In a ``late`` chunk a function's union times are first raised
        to what its union already holds (pending end, or open start and
        max-close carry): a late record can extend a span forward but
        cannot reopen one already retired.  On every other chunk that
        raise changes nothing, so it is skipped.
        """
        delta = np.where(f_enter, 1, -1).astype(np.int64)
        order = np.argsort(f_fid, kind="stable")
        g_f = f_fid[order]
        g_d = delta[order]
        g_t = f_t[order]
        if late:
            held = np.where(
                self._pend_mask, self._pend_end,
                np.where(self._active_arr > 0,
                         np.maximum(self._open_start_arr,
                                    self._maxclose_arr), -math.inf))
            g_t = np.maximum(g_t, held[g_f])
        cs = np.cumsum(g_d)
        first = np.concatenate(([True], g_f[1:] != g_f[:-1]))
        grp_start = np.nonzero(first)[0]
        grp_sizes = np.diff(np.append(grp_start, len(g_f)))
        grp_fids = g_f[grp_start]
        carry0 = self._active_arr[grp_fids]
        base_cs = cs[grp_start] - g_d[grp_start]
        c = cs - np.repeat(base_cs, grp_sizes) + np.repeat(carry0, grp_sizes)
        opens = (g_d == 1) & (c == 1)
        closes = (g_d == -1) & (c == 0)
        o_idx = np.nonzero(opens)[0]
        c_idx = np.nonzero(closes)[0]
        of = g_f[o_idx]
        ot = g_t[o_idx]
        cf = g_f[c_idx]
        ctm = g_t[c_idx]
        n_close = len(cf)
        if n_close:
            # Span start per close: the same-rank open, or the carried
            # open-span start for a function entering the chunk active.
            b_close = (self._active_arr[cf] > 0).astype(np.int64)
            c_rank = np.arange(n_close) - np.searchsorted(cf, cf,
                                                          side="left")
            s_rank = c_rank - b_close
            span_start = np.empty(n_close)
            carried = s_rank < 0
            if carried.any():
                span_start[carried] = self._open_start_arr[cf[carried]]
            norm = np.nonzero(~carried)[0]
            if len(norm):
                o_grp = np.searchsorted(of, cf[norm], side="left")
                span_start[norm] = ot[o_grp + s_rank[norm]]
            # Merge touching raw spans into runs (start == previous end).
            new_run = np.concatenate(([True], cf[1:] != cf[:-1]))
            if n_close > 1:
                new_run[1:] |= span_start[1:] > ctm[:-1]
            r_idx = np.nonzero(new_run)[0]
            run_fid = cf[r_idx]
            run_start = span_start[r_idx]
            run_end = ctm[np.append(r_idx[1:] - 1, n_close - 1)]
            add_run = np.ones(len(r_idx), dtype=bool)
        else:
            run_fid = np.empty(0, dtype=np.int64)
            run_start = np.empty(0)
            run_end = np.empty(0)
            add_run = np.empty(0, dtype=bool)

        count_end = carry0 + np.add.reduceat(g_d, grp_start)
        # All closes (not only the 0-reaching ones), for carrying the
        # per-span max-close time: nested closes inside a span that stays
        # open past the chunk can outlast a later lenient finalize close.
        x_all = np.nonzero(g_d == -1)[0]
        xf_all = g_f[x_all]
        incl = self._incl
        inf = math.inf
        for k in range(len(grp_fids)):
            fid = int(grp_fids[k])
            cend = int(count_end[k])
            r_lo = int(np.searchsorted(run_fid, fid, side="left"))
            r_hi = int(np.searchsorted(run_fid, fid, side="right"))
            nruns = r_hi - r_lo
            o_lo = int(np.searchsorted(of, fid, side="left"))
            o_hi = int(np.searchsorted(of, fid, side="right"))
            pend0 = None
            if self._pend_mask[fid]:
                pend0 = (float(self._pend_start[fid]),
                         float(self._pend_end[fid]))
            if o_hi > o_lo:
                t_open = float(ot[o_lo])
                first_opens[fid] = t_open
                if pend0 is not None:
                    # The carried pending span resolves at the reopen:
                    # touching resumes the merged span, a gap flushes it.
                    self._pend_mask[fid] = False
                    ps, pe_ = pend0
                    if t_open <= pe_:
                        if nruns:
                            run_start[r_lo] = ps
                    else:
                        incl[fid] += pe_ - ps
                        self._incl_touched[fid] = True
            resumed = (pend0 is not None and o_hi > o_lo
                       and float(ot[o_lo]) <= pend0[1])
            open_final = None
            floor = -inf        # how far a still-open span already reaches
            if cend > 0:
                if nruns:
                    o_last = float(ot[o_hi - 1])
                    last_end = float(run_end[r_hi - 1])
                    if o_last <= last_end:
                        # Trailing open touches the last run: the run is
                        # not retired, it extends into the open span.
                        add_run[r_hi - 1] = False
                        open_final = float(run_start[r_hi - 1])
                        floor = last_end
                    else:
                        open_final = o_last
                elif o_hi > o_lo:
                    # Opened in-chunk, never closed.
                    if resumed:
                        open_final, floor = pend0
                    else:
                        open_final = float(ot[o_lo])
                else:
                    # Carried in active and stayed active: unchanged.
                    open_final = float(self._open_start_arr[fid])
                self._open_start_arr[fid] = open_final
            elif nruns:
                # Closed at chunk end: the last run becomes the pending
                # span (it may still merge with a future reopen).
                add_run[r_hi - 1] = False
                self._pend_start[fid] = run_start[r_hi - 1]
                self._pend_end[fid] = run_end[r_hi - 1]
                self._pend_mask[fid] = True
            # Max-close carry, for a span left open past the chunk: the
            # latest time it is known to reach (a nested close, or the
            # end of the run it resumed), so that a late or end-of-trace
            # close cannot end it earlier.  In time order every retiring
            # close already ends its run at the in-chunk maximum.
            if cend == 0:
                self._maxclose_arr[fid] = -inf
            else:
                xa_lo = int(np.searchsorted(xf_all, fid, side="left"))
                xa_hi = int(np.searchsorted(xf_all, fid, side="right"))
                if xa_hi > xa_lo:
                    c_lo_f = int(np.searchsorted(cf, fid, side="left"))
                    c_hi_f = int(np.searchsorted(cf, fid, side="right"))
                    last_close = int(x_all[xa_hi - 1])
                    last_retire = (int(c_idx[c_hi_f - 1])
                                   if c_hi_f > c_lo_f else -1)
                    # A close after the last 0-reaching close belongs to
                    # the still-open span; otherwise the carry was reset
                    # at that retire.
                    self._maxclose_arr[fid] = (
                        float(g_t[last_close])
                        if last_close > last_retire else -inf)
                if floor > self._maxclose_arr[fid]:
                    self._maxclose_arr[fid] = floor
            # Attribution spans: carried pending (boundary-tie samples),
            # this chunk's runs, and the still-open span.
            n_spans = (1 if pend0 is not None else 0) + nruns \
                + (1 if open_final is not None else 0)
            starts = np.empty(n_spans)
            ends = np.empty(n_spans)
            w = 0
            if pend0 is not None:
                starts[0], ends[0] = pend0
                w = 1
            starts[w:w + nruns] = run_start[r_lo:r_hi]
            ends[w:w + nruns] = run_end[r_lo:r_hi]
            if open_final is not None:
                starts[-1] = open_final
                ends[-1] = inf
            spans_for[fid] = (starts, ends)
        self._active_arr[grp_fids] += count_end - carry0
        keep = np.nonzero(add_run)[0]
        if len(keep):
            np.add.at(incl, run_fid[keep],
                      run_end[keep] - run_start[keep])
            self._incl_touched[run_fid[keep]] = True

    def _attribute_chunk(self, spans_for, s_t, s_sidx, s_val, base_seq
                         ) -> None:
        """Closed-interval containment attribution for one chunk's
        samples, pushed per (function, sensor) group in stream order."""
        n_s = len(s_t)
        candidates = set(spans_for)
        candidates.update(np.nonzero(self._active_arr)[0].tolist())
        candidates.update(np.nonzero(self._pend_mask)[0].tolist())
        n_sensors = len(self.sensor_names)
        stats = self._stats
        attr_seq = self._attr_seq
        for fid in candidates:
            item = spans_for.get(fid)
            if item is not None:
                starts, ends = item
            elif self._active_arr[fid] > 0:
                # Active with no events this chunk: covers everything.
                starts = np.array([-math.inf])
                ends = np.array([math.inf])
            elif self._pend_mask[fid]:
                starts = self._pend_start[fid:fid + 1]
                ends = self._pend_end[fid:fid + 1]
            else:
                continue
            if not len(starts):
                continue
            idx = np.searchsorted(starts, s_t, side="right") - 1
            ok = np.nonzero(idx >= 0)[0]
            hit = np.zeros(n_s, dtype=bool)
            hit[ok] = s_t[ok] <= ends[idx[ok]]
            if not hit.any():
                continue
            for sidx in range(n_sensors):
                m = hit & (s_sidx == sidx)
                if not m.any():
                    continue
                key = (fid, sidx)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = OnlineStats()
                st.push_many(s_val[m])
                last = int(np.nonzero(m)[0][-1])
                attr_seq[key] = base_seq + 1 + last

    # ------------------------------------------------------------------
    # Profile construction

    def innermost(self) -> Optional[tuple[str, float]]:
        """The frame executing now, as ``(function, entered at)``: of
        every process's top frame, the one entered last — ``None`` while
        every stack is empty."""
        top = None
        for stack in self._stacks.values():
            if stack and (top is None or stack[-1][1] > top[1]):
                top = stack[-1]
        return None if top is None else (self._fnames[top[0]], top[1])

    def snapshot(self) -> NodeProfile:
        """A valid profile of everything consumed so far (non-destructive).

        Open activations and the open top-of-stack segment are credited
        provisionally up to the latest event seen; the accumulation
        continues unaffected afterwards.
        """
        totals, exclusive, span_hi = self._provisional_state()
        return self._build_profile(totals, exclusive, span_hi,
                                   tree=self._provisional_tree())

    def _provisional_state(self):
        """(totals, exclusive, span_hi) with open frames credited to now.

        "Now" is the latest record seen — function event *or* sensor
        sample — so a snapshot taken while a long function is still open
        keeps accruing its time between ENTER and EXIT.
        """
        now = self._now
        totals = self._totals_with_pending()
        span_hi = self._span_hi
        for fid in np.nonzero(self._active_arr)[0].tolist():
            start = float(self._open_start_arr[fid])
            if now > start:
                totals[fid] = totals.get(fid, 0.0) + (now - start)
            span_hi = max(span_hi, now)
        exclusive = {
            fid: float(self._excl[fid])
            for fid in np.nonzero(self._excl)[0].tolist()
        }
        for pid, (fid, since) in self._top_since.items():
            if now > since:
                exclusive[fid] = exclusive.get(fid, 0.0) + (now - since)
        return totals, exclusive, span_hi

    def _provisional_tree(self):
        """An independent tree view with open tops credited to now.

        Mirrors the flat provisional crediting, then re-prunes without
        pins — exposed trees always respect the budget even while the
        engine's own tree carries pinned open contexts past it.
        """
        if self._tree is None:
            return None
        tree = self._tree.clone()
        now = self._now
        for pid, (_fid, since) in self._top_since.items():
            if now > since:
                cstack = self._ctx_stacks.get(pid)
                if cstack:
                    tree.add_excl(cstack[-1], now - since)
        tree.prune_to_budget()
        return tree

    def finalize(self) -> NodeProfile:
        """Apply end-of-trace semantics and return the final profile.

        Strict mode raises on frames still open; lenient mode closes them
        at their process's last event time.  The accumulator rejects
        further ``consume`` calls afterwards.
        """
        if not self._finalized:
            self._close_open_frames()
            self._finalized = True
        totals = self._totals_with_pending()
        exclusive = {
            fid: float(self._excl[fid])
            for fid in np.nonzero(self._excl)[0].tolist()
        }
        return self._build_profile(totals, exclusive, self._span_hi,
                                   tree=self._tree)

    def _close_open_frames(self) -> None:
        """End of trace: every open frame closes at its process's clock,
        folded as one time-ordered chunk of EXITs (late where a process
        stopped before others did)."""
        rows = [(fid, self._last_time[pid], pid)
                for pid, stack in self._stacks.items()
                for fid, _t0 in reversed(stack)]
        if rows and self.strict:
            pid = min((pid for _f, _t, pid in rows),
                      key=self._last_time.__getitem__)
            raise TraceError(
                f"pid {pid}: trace ended with open frames "
                f"{[self._fnames[f] for f, _ in self._stacks[pid]]}"
            )
        if rows:
            fid, t, pid = (np.array(col) for col in zip(*rows))
            order = np.argsort(t, kind="stable")
            self._reduce(np.full(len(rows), REC_EXIT), fid[order], t[order],
                         pid[order], np.zeros(len(rows)),
                         late=float(t.min()) < self._now)
        if self._tree is not None:
            # Every context is unpinned now: restore the budget exactly.
            self._tree.end_chunk()

    def summary(self, *, final: bool = False):
        """The node's mergeable :class:`~repro.core.summary.NodeSummary`.

        With ``final=False`` (the periodic fan-in snapshot) the summary
        credits open frames provisionally up to the latest event, clones
        every estimator, and leaves the accumulation untouched — callers
        may merge or mutate it freely while records keep flowing.  With
        ``final=True`` end-of-trace semantics apply first (open frames
        close at their process's last event time; strict mode raises),
        the accumulator stops accepting records, and the summary is
        exact: :meth:`NodeSummary.to_node_profile` on it reproduces
        :meth:`finalize`'s profile identically.
        """
        if final:
            if not self._finalized:
                self._close_open_frames()
                self._finalized = True
            totals = self._totals_with_pending()
            exclusive = {
                fid: float(self._excl[fid])
                for fid in np.nonzero(self._excl)[0].tolist()
            }
            return self._build_summary(totals, exclusive, self._span_hi,
                                       copy_stats=False, tree=self._tree)
        totals, exclusive, span_hi = self._provisional_state()
        return self._build_summary(totals, exclusive, span_hi,
                                   copy_stats=True,
                                   tree=self._provisional_tree())

    def _totals_with_pending(self) -> dict[int, float]:
        totals = {
            fid: float(self._incl[fid])
            for fid in np.nonzero(self._incl_touched)[0].tolist()
        }
        for fid in np.nonzero(self._pend_mask)[0].tolist():
            totals[fid] = totals.get(fid, 0.0) + float(
                self._pend_end[fid] - self._pend_start[fid])
        return totals

    def _build_profile(self, totals: dict[int, float],
                       exclusive: dict[int, float],
                       span_hi: float, tree=None) -> NodeProfile:
        # Profile construction is the summary algebra's: build the
        # mergeable NodeSummary, then render it.  One code path means the
        # fan-in tier's "profile from merged summaries" and the local
        # "profile from accumulator" cannot drift apart.
        node = self._build_summary(totals, exclusive, span_hi,
                                   copy_stats=False, tree=tree)
        return node.to_node_profile(sampling_hz=self.sampling_hz)

    def _build_summary(self, totals: dict[int, float],
                       exclusive: dict[int, float], span_hi: float,
                       *, copy_stats: bool, tree=None):
        """Project the fid-keyed aggregate state onto a name-keyed
        :class:`~repro.core.summary.NodeSummary`.

        ``copy_stats=False`` hands out the live estimator objects (only
        safe when the accumulator is done or the summary is consumed
        before the next ``consume``); ``copy_stats=True`` clones them so
        the summary is independent of further accumulation.
        """
        from repro.core.summary import NodeSummary

        fnames = self._fnames
        called = np.nonzero(self._calls_arr)[0].tolist()
        stats: dict[str, dict[str, OnlineStats]] = {}
        for (fid, sidx), st in self._stats.items():
            per = stats.setdefault(fnames[fid], {})
            per[self.sensor_names[sidx]] = st.clone() if copy_stats else st
        if math.isinf(self._span_lo) or math.isinf(span_hi):
            span = None
        else:
            span = (self._span_lo, span_hi)
        return NodeSummary(
            node_name=self.node_name,
            sensor_names=list(self.sensor_names),
            n_records=self.n_records,
            total_s={fnames[f]: float(v) for f, v in totals.items()},
            exclusive_s={fnames[f]: float(v) for f, v in exclusive.items()},
            calls={fnames[f]: int(self._calls_arr[f]) for f in called},
            arcs={
                (("<root>" if c < 0 else fnames[c]), fnames[f]): n
                for (c, f), n in self._arcs.items()
            },
            span=span,
            stats=stats,
            sensor_summary={
                name: (self._summary[i].clone() if copy_stats
                       else self._summary[i])
                for i, name in enumerate(self.sensor_names)
            },
            context_tree=tree,
        )


# ----------------------------------------------------------------------
# Cluster-level driver

class StreamingRunProfiler:
    """One :class:`ProfileAccumulator` per node, one `RunProfile` out.

    The live-profiling front end: :meth:`add_node` registers a node as its
    trace appears, :meth:`consume` folds that node's new chunks, and
    :meth:`snapshot` / :meth:`finalize` assemble the cluster-wide profile.
    """

    def __init__(self, symtab: SymbolTable, *, sampling_hz: float = 4.0,
                 strict: bool = False, meta: Optional[dict] = None,
                 hcct_budget: Optional[int] = None):
        self.symtab = symtab
        self.sampling_hz = float(sampling_hz)
        self.strict = strict
        self.meta = dict(meta or {})
        #: per-node hot calling-context tree budget (None = no trees)
        self.hcct_budget = hcct_budget
        self.accumulators: dict[str, ProfileAccumulator] = {}

    def add_node(self, node_name: str, tsc_hz: float,
                 sensor_names: list[str]) -> ProfileAccumulator:
        """Register a node (idempotent); returns its accumulator.

        ``tsc_hz`` must be finite and positive (:class:`TraceError`
        otherwise), as for :class:`~repro.core.trace.NodeTrace`.
        """
        hz = check_tsc_hz(tsc_hz, f"node {node_name!r}")
        acc = self.accumulators.get(node_name)
        if acc is None:
            acc = ProfileAccumulator(
                node_name,
                self.symtab,
                lambda tsc, hz=hz: tsc / hz,
                sensor_names,
                sampling_hz=self.sampling_hz,
                strict=self.strict,
                hcct_budget=self.hcct_budget,
            )
            self.accumulators[node_name] = acc
        return acc

    def consume(self, node_name: str, chunk: np.ndarray) -> None:
        try:
            acc = self.accumulators[node_name]
        except KeyError:
            raise TraceError(
                f"no accumulator for node {node_name!r}; "
                f"have {list(self.accumulators)}"
            )
        acc.consume(chunk)

    def snapshot(self) -> RunProfile:
        return RunProfile(
            nodes={name: acc.snapshot()
                   for name, acc in self.accumulators.items()},
            sampling_hz=self.sampling_hz,
            meta=dict(self.meta),
        )

    def finalize(self) -> RunProfile:
        return RunProfile(
            nodes={name: acc.finalize()
                   for name, acc in self.accumulators.items()},
            sampling_hz=self.sampling_hz,
            meta=dict(self.meta),
        )

    def summary(self, *, final: bool = False):
        """The run's mergeable :class:`~repro.core.summary.RunSummary`.

        The leaf aggregator's SUMMARY-frame payload: non-final summaries
        are independent provisional snapshots; a final summary applies
        end-of-trace semantics per node and is exact (its
        ``to_profile`` equals :meth:`finalize`'s result).
        """
        from repro.core.summary import RunSummary

        return RunSummary(
            nodes={name: acc.summary(final=final)
                   for name, acc in self.accumulators.items()},
            sampling_hz=self.sampling_hz,
            meta=dict(self.meta),
        )


def stream_spool_profile(directory, *, chunk_records: Optional[int] = None,
                         strict: bool = False,
                         hcct_budget: Optional[int] = None) -> RunProfile:
    """Constant-memory profile of a trace directory (usually a spool).

    Reads the header (:func:`~repro.core.trace.read_trace_header`) plus
    each node's record file in fixed-size record chunks and folds them
    straight into streaming accumulators — the whole trace is never
    resident, so peak memory is O(chunk + functions × sensors) however
    long the run was.  Each chunk is put in time order as it is
    consumed, so a spool profiles like the bundle loaded from it unless
    a record arrives a whole chunk late (counted as ``late-records``).
    The default chunk size is :data:`repro.core.spool.STREAM_CHUNK_RECORDS`
    — larger than the spool write granularity, because the reduction
    amortizes per-chunk overhead over more records at ~11 MB of peak
    residency.  A closed directory's record files must hold the counts
    its header declares (:meth:`~repro.core.trace.NodeHeader.iter_chunks`);
    without ``strict`` a short one is read as far as it goes, as
    ``parse --lenient`` does.
    """
    from repro.core.spool import STREAM_CHUNK_RECORDS

    header = read_trace_header(directory)
    profiler = StreamingRunProfiler(
        header.symtab,
        sampling_hz=float(header.meta.get("sampling_hz", 4.0)),
        strict=strict,
        meta=header.meta,
        hcct_budget=hcct_budget,
    )
    size = chunk_records or STREAM_CHUNK_RECORDS
    for node in header.nodes.values():
        acc = profiler.add_node(node.name, node.tsc_hz, node.sensor_names)
        for chunk in node.iter_chunks(size, tolerate_truncation=not strict):
            acc.consume(chunk)
    return profiler.finalize()


def stream_bundle_profile(bundle, *, chunk_records: Optional[int] = None,
                          strict: bool = True,
                          hcct_budget: Optional[int] = None) -> RunProfile:
    """Profile an in-memory :class:`~repro.core.trace.TraceBundle`.

    The same engine and feed as :class:`~repro.core.parser.TempestParser`
    (:func:`feed_node`), minus the parser's raw sensor series; this is
    how a bundle grows a hot calling-context tree (``hcct_budget``).
    Chunked so the HCCT's chunk-boundary eviction engages on long traces.
    """
    profiler = StreamingRunProfiler(
        bundle.symtab,
        sampling_hz=float(bundle.meta.get("sampling_hz", 4.0)),
        strict=strict,
        meta=dict(bundle.meta),
        hcct_budget=hcct_budget,
    )
    for name, trace in bundle.nodes.items():
        acc = profiler.add_node(name, trace.tsc_hz, trace.sensor_names)
        feed_node(acc, trace.columns.array, chunk_records)
    return profiler.finalize()


def in_time_order(arr: np.ndarray) -> np.ndarray:
    """One node's resident records in the order the engine folds them.

    A node's trace is only time-ordered per process: tempd's sweeps and
    a rank's buffered records reach it in bursts.  When the ``tsc``
    column is not non-decreasing, the records are stable-sorted once by
    time, a function record's time being its process's clock
    (:func:`process_clock`) — every process keeps its own order, and a
    regressed record sorts where the lenient clamp puts it.
    """
    tsc = arr["tsc"]
    if _monotone(tsc):
        return arr
    kinds = arr["kind"]
    is_f = (kinds == REC_ENTER) | (kinds == REC_EXIT)
    f_tsc = tsc[is_f]
    clock = process_clock(f_tsc, arr["pid"][is_f])
    key = tsc
    if clock is not f_tsc:
        key = tsc.copy()
        key[is_f] = clock
    # np.take: fancy indexing is far slower on the packed record dtype.
    return np.take(arr, np.argsort(key, kind="stable"))


def feed_node(acc: ProfileAccumulator, arr: np.ndarray,
              chunk_records: Optional[int] = None) -> None:
    """Fold one node's resident records into *acc*: in time order
    (:func:`in_time_order`), in slices of ``chunk_records`` (default
    :data:`repro.core.spool.STREAM_CHUNK_RECORDS`)."""
    from repro.core.spool import STREAM_CHUNK_RECORDS

    arr = in_time_order(arr)
    size = chunk_records or STREAM_CHUNK_RECORDS
    for lo in range(0, len(arr), size):
        acc.consume(arr[lo:lo + size])
