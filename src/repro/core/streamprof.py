"""The profile engine: single-pass, constant-memory profiling.

The paper's parser is post-mortem: collect the full trace plus the tempd
sample log, then merge them offline.  Here every profile of a whole
run comes from one driver, :func:`fold_profile`, over per-node chunk
sources of two kinds: a trace directory's record files
(:func:`stream_spool_profile`) and a resident bundle's columns
(:func:`stream_bundle_profile`, which
:class:`~repro.core.parser.TempestParser` and the wire aggregator's
served profile run).  Live snapshots mid-run feed the same
:class:`ProfileAccumulator`.  It consumes columnar record chunks
(``TraceSpool`` writes them, :func:`repro.core.spool.iter_spool_chunks`
reads them) *incrementally*,
keeping per-function/per-sensor online statistics and an incremental
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
from typing import Callable, NamedTuple, Optional

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
    "fold_profile",
    "stream_bundle_profile",
    "stream_spool_profile",
]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# Online per-sensor statistics

def _value_counts(arr: np.ndarray) -> tuple[list, list]:
    """``np.unique(arr, return_counts=True)`` as lists, without its
    per-call wrapper layers: the same sort, so equal values (``-0.0``
    and ``0.0``) keep the same representative, and every NaN counts in
    one bin, as ``np.unique`` counts them."""
    s = np.sort(arr)
    k = len(s)
    edge = np.empty(k, dtype=bool)
    edge[0] = True
    np.not_equal(s[1:], s[:-1], out=edge[1:])
    if s[-1] != s[-1]:                  # NaNs sort last
        first_nan = s.searchsorted(s[-1])
        edge[first_nan] = True
        edge[first_nan + 1:] = False
    at = edge.nonzero()[0]
    counts = np.empty(len(at), dtype=np.int64)
    counts[:-1] = at[1:] - at[:-1]
    counts[-1] = k - at[-1]
    return s[at].tolist(), counts.tolist()


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
        # (the ufunc reductions behind arr.min()/max()/mean(), without
        # their per-call wrappers)
        lo = float(np.minimum.reduce(arr))
        hi = float(np.maximum.reduce(arr))
        if lo < self.min:
            self.min = lo
        if hi > self.max:
            self.max = hi
        # Chan's parallel merge: two-pass block moments, then one fold.
        b_mean = float(np.add.reduce(arr)) / k
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
        for v, c in zip(*_value_counts(arr)):
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


def frame_depths(is_enter: np.ndarray, rank: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The matched-frame trick's depth arrays for every process at once.

    The events are grouped by process — ``rank`` numbers the processes
    0, 1, ... and does not decrease — each process's in stream order.
    ``depth_after[i]`` is the call depth of event *i*'s process after
    it (one segmented cumulative sum); ``frame_depth[i]`` is the depth
    of the frame the event belongs to — an ENTER's own depth, or for an
    EXIT the depth of the frame it closes.  Within one process the
    *i*-th ENTER reaching depth *d* always matches the *i*-th EXIT
    leaving depth *d* (a second depth-*d* frame cannot open before the
    first closes), so inside a ``(rank, frame_depth)`` group ENTERs and
    EXITs alternate, and one stable sort by that pair lines every frame
    up with its mate without a per-process or per-event loop.
    """
    step = np.where(is_enter, 1, -1)
    run = step.cumsum()
    head = np.ones(len(rank), dtype=bool)
    head[1:] = rank[1:] != rank[:-1]
    depth_after = run - (run - step)[head][rank]
    frame_depth = np.where(is_enter, depth_after, depth_after + 1)
    return depth_after, frame_depth


def _narrow(key: np.ndarray, top: int) -> np.ndarray:
    """*key* (values in ``0..top``) in the narrowest integer dtype that
    holds *top*: numpy's stable sort is a radix sort on 8- and 16-bit
    keys, several times faster than its merge sort on int64."""
    for dtype, bits in ((np.int8, 7), (np.int16, 15), (np.int32, 31)):
        if top < 1 << bits:
            return key.astype(dtype)
    return key


class _Frames(NamedTuple):
    """One chunk's frames, paired for every process at once.

    The events are each process's carried open frames (as virtual
    ENTERs) followed by its chunk ENTERs/EXITs in stream order, grouped
    by process rank; every index below points into that order.
    """

    rank: np.ndarray      # process rank (ascending pid)
    pid: np.ndarray
    fid: np.ndarray
    t: np.ndarray         # event time; a carried frame's is its process's
    #                       latest event, where its top segment starts
    t_enter: np.ndarray   # event time; a carried frame's is its ENTER's
    pos: np.ndarray       # position in the chunk, -1 for a carried frame
    cid: Optional[np.ndarray]  # carried context ids, -1 elsewhere (tree)
    top: np.ndarray       # the ENTER on top after each event, -1 = none
    enters: np.ndarray    # the chunk's ENTERs
    parent: np.ndarray    # each chunk ENTER's caller ENTER, -1 = root
    seg: np.ndarray       # exclusive segments: the event opening each,
    seg_dt: np.ndarray    # its length and its closing chunk position,
    seg_pos: np.ndarray   # in chunk (stream) order
    last: np.ndarray      # each process's last event
    open: np.ndarray      # every process's open frames, bottom to top
    n_proc: int


class _Carry(NamedTuple):
    """Every process's open frames between chunks, grouped by pid in
    ascending order, each process's bottom to top."""

    pid: np.ndarray
    fid: np.ndarray
    t_enter: np.ndarray   # when the frame was entered
    since: np.ndarray     # its process's latest function-record time
    cid: Optional[np.ndarray]  # context ids, with a tree


def _group_tails(key: np.ndarray) -> np.ndarray:
    """The last index of each run of equal values in *key*."""
    tail = np.ones(len(key), dtype=bool)
    tail[:-1] = key[1:] != key[:-1]
    return tail.nonzero()[0]


def _hit_groups(keys: np.ndarray, samp: np.ndarray, s_sidx: np.ndarray,
                n_sensors: int):
    """Distinct ``(key, sample)`` hits grouped by (key, sensor).

    Returns the hits' samples, sorted, and ``(key, sensor, lo, hi)``
    per group in ascending order: the group's samples are
    ``samples[lo:hi]``, in stream order.
    """
    n_s = len(s_sidx)
    code = np.unique((keys * n_sensors + s_sidx[samp]) * n_s + samp)
    group, samp = np.divmod(code, n_s)
    if not len(code):
        return samp, ()
    cut = np.flatnonzero(group[1:] != group[:-1]) + 1
    lo = np.concatenate(([0], cut))
    hi = np.concatenate((cut, [len(code)]))
    key, sidx = np.divmod(group[lo], n_sensors)
    return samp, zip(key.tolist(), sidx.tolist(), lo.tolist(), hi.tolist())


def _monotone(a: np.ndarray) -> bool:
    return len(a) < 2 or bool((a[1:] >= a[:-1]).all())


def process_clock(key: np.ndarray, pids: np.ndarray,
                  seed: Optional[dict] = None) -> np.ndarray:
    """Each function record's time under the lenient clamp.

    A node's trace is only time-ordered per process, and within one
    process a timestamp that regresses (cross-core TSC skew, corruption)
    takes its process's clock instead: the running maximum of the
    process's keys so far, starting from ``seed[pid]`` (the clock
    carried over from earlier records).  *key* is any time column —
    TSC ticks or seconds.  Returns *key* itself when nothing is clamped.
    :meth:`ProfileAccumulator.consume` applies this rule to each chunk,
    :func:`in_time_order` to a whole resident node.
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
      of every process pair at once with the matched-frame trick
      (:meth:`_pair_frames`, :func:`frame_depths`: one sort groups the
      carried frames, as virtual ENTERs, and the chunk's frames by
      process, one more by frame depth), exclusive time reduces with
      one ``np.add.at`` over time-ordered top-of-stack segments,
      inclusive time reduces per function from a segmented cumulative
      sum of activation counts (union spans merge when their endpoints
      touch), and samples are attributed by closed-interval span
      containment and pushed per (function, sensor) group with one
      :meth:`OnlineStats.push_many` each.  The number of numpy calls
      per chunk does not grow with its processes, depths or functions.
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
        # every address seen, sorted, and its fid (one lookup per chunk)
        self._addr_keys = np.empty(0, dtype=np.int64)
        self._addr_fids = np.empty(0, dtype=np.int64)
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
        # -- per-process state carried from chunk to chunk: the clock
        #    (latest function-record time) and, while its stack is not
        #    empty, the top frame's function and the time its top
        #    segment started
        self._last_time: dict[int, float] = {}
        self._now = -math.inf                # latest time seen in any record
        self._top_since: dict[int, tuple[int, float]] = {}
        # -- caller arcs, sparse: sorted ``(caller + 1) << 32 | callee``
        #    codes (caller -1 = "<root>") and their call counts
        self._arc_codes = np.empty(0, dtype=np.int64)
        self._arc_calls = np.empty(0, dtype=np.int64)
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
        #: every process's open frames (with their context ids when
        #: there is a tree)
        self._carry = _Carry(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            np.empty(0), np.empty(0),
            None if self._tree is None else np.empty(0, dtype=np.int64))

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

    def _fids_of(self, addrs: np.ndarray) -> np.ndarray:
        """The fids of function-record addresses: one ``searchsorted``
        in the sorted address table.  Addresses not seen before
        register first, in ascending order; aliases of one name share
        its fid."""
        keys = self._addr_keys
        at = keys.searchsorted(addrs)
        if not len(keys) or (keys.take(at, mode="clip") != addrs).any():
            new = np.setdiff1d(addrs, keys)
            fids = []
            for addr in new.tolist():
                name = self.symtab.name_of(addr)
                fid = self._fid_by_name.get(name)
                if fid is None:
                    fid = len(self._fnames)
                    self._fnames.append(name)
                    self._fid_by_name[name] = fid
                    if fid >= len(self._excl):
                        self._grow(fid + 1)
                fids.append(fid)
            keys = np.concatenate((keys, new))
            order = keys.argsort(kind="stable")
            self._addr_keys = keys = keys[order]
            self._addr_fids = np.concatenate((self._addr_fids, fids))[order]
            at = keys.searchsorted(addrs)
        return self._addr_fids[at]

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
            self._tree.end_chunk(pinned=set(self._carry.cid.tolist()))

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
        # the profile's record kinds are ENTER, EXIT and TEMP: 1, 2, 3
        keep = (kinds >= REC_ENTER) & (kinds <= REC_TEMP)
        n_keep = np.count_nonzero(keep)
        if not n_keep:
            return None, []
        if n_keep < len(arr):
            # np.take: fancy indexing is far slower on the packed dtype.
            arr = np.take(arr, keep.nonzero()[0])
        kind, addr, pid, value = (
            arr["kind"], arr["addr"], arr["pid"], arr["value"])
        is_f = kind != REC_TEMP
        f_addr = addr[is_f]
        code = addr.astype(np.int64)
        if len(f_addr) < n_keep:
            n_sensors = len(self.sensor_names)
            sidx = addr[~is_f]
            if sidx.min() < 0 or sidx.max() >= n_sensors:
                bad = sidx[(sidx < 0) | (sidx >= n_sensors)]
                raise TraceError(
                    f"{self.node_name}: TEMP record for sensor index "
                    f"{int(bad[0])} but only {n_sensors} sensors declared"
                )
        if len(f_addr):
            code[is_f] = self._fids_of(f_addr)
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
                    f"{self.node_name}: pid {int(f_pid[i])}: timestamps "
                    "regressed "
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
                stack = stacks[p] = self._carry.fid[
                    self._carry.pid == p].tolist()
            if k == REC_ENTER:
                stack.append(fid)
            elif stack and stack[-1] == fid:
                stack.pop()
            elif not stack:
                if self.strict:
                    raise TraceError(
                        f"{self.node_name}: pid {p}: EXIT {fnames[fid]!r} "
                        "with empty stack")
                continue
            else:
                if self.strict:
                    raise TraceError(
                        f"{self.node_name}: pid {p}: EXIT {fnames[fid]!r} "
                        f"but top of stack is {fnames[stack[-1]]!r}"
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

        The number of numpy calls is the same for every chunk, however
        many processes, call depths or functions it holds: frames pair
        for every process at once (:meth:`_pair_frames`), exclusive
        time reduces with one ``np.add.at`` over stream-ordered
        top-of-stack segments, caller arcs merge into one sorted code
        table, and the union (:meth:`_commit_union`) and the sample
        attribution (:meth:`_attribute_chunk`) are segment operations
        keyed by function id.

        Returns ``None`` once folded, or the :data:`REPAIR_REASONS` key
        of the lowest pid whose frames fail the matched-frame check;
        then nothing has been committed, and the chunk goes to
        :meth:`_repair`.  ``late`` says the chunk holds records below
        what earlier chunks reached (see :meth:`_commit_union`).
        """
        f_mask = kind != REC_TEMP
        f_at = f_mask.nonzero()[0]
        s_at = (~f_mask).nonzero()[0]
        s_sidx = code[s_at]
        s_t = times[s_at]
        s_val = value[s_at]
        f_fid = code[f_at]
        f_enter = kind[f_at] == REC_ENTER
        f_t = times[f_at]
        fr = self._pair_frames(f_fid, pids[f_at], f_enter, f_t, f_at)
        if isinstance(fr, str):
            return fr

        # ---- the chunk is well-formed: commit ----
        spans = (np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))
        opened = spans[:2]
        if len(f_at):
            n_names = len(self._fnames)
            enters_fid = f_fid[f_enter]
            if len(enters_fid):
                self._calls_arr[:n_names] += np.bincount(
                    enters_fid, minlength=n_names)
                lo = float(f_t[f_enter][0])     # time order: first is min
                if lo < self._span_lo:
                    self._span_lo = lo
                # Caller arcs count into the sorted code table; arcs not
                # seen before merge in first.
                caller = np.where(fr.parent >= 0, fr.fid[fr.parent], -1)
                arcs = ((caller + 1) << 32) | fr.fid[fr.enters]
                known = self._arc_codes
                at = known.searchsorted(arcs)
                if not len(known) or (
                        known.take(at, mode="clip") != arcs).any():
                    new = np.setdiff1d(arcs, known)
                    at = known.searchsorted(new)
                    self._arc_codes = known = np.insert(known, at, new)
                    self._arc_calls = np.insert(self._arc_calls, at, 0)
                    at = known.searchsorted(arcs)
                self._arc_calls += np.bincount(at, minlength=len(known))
            exit_t = f_t[~f_enter]
            if len(exit_t):
                hi = float(exit_t[-1])
                if hi > self._span_hi:
                    self._span_hi = hi
            # The open frames carry to the next chunk; a process's top
            # segment starts at its latest event.
            o = fr.open
            self._carry = _Carry(fr.pid[o], fr.fid[o], fr.t_enter[o],
                                 fr.t[fr.last[fr.rank[o]]], None)
            # The post-chunk clocks and tops of the chunk's processes.
            top = np.full(fr.n_proc, -1, dtype=np.int64)
            tops = _group_tails(fr.rank[o])
            top[fr.rank[o[tops]]] = fr.fid[o[tops]]
            busy = fr.last[fr.pos[fr.last] >= 0]
            for pid, t_last, f in zip(fr.pid[busy].tolist(),
                                      fr.t[busy].tolist(),
                                      top[fr.rank[busy]].tolist()):
                self._last_time[pid] = t_last
                if f >= 0:
                    self._top_since[pid] = (f, t_last)
                else:
                    self._top_since.pop(pid, None)
            # np.add.at applies adds sequentially in index order, and the
            # segments are in stream order, so each function's segments
            # sum in time order, whatever the chunking.
            np.add.at(self._excl, fr.fid[fr.top[fr.seg]], fr.seg_dt)
            spans, opened = self._commit_union(f_fid, f_enter, f_t,
                                               late=late)

        if self._tree is not None and fr is not None:
            self._commit_tree(fr, s_sidx, s_val, s_at, len(kind))

        # Retroactive attribution of carried samples to union spans that
        # (re)open at exactly the carried sample timestamp.
        rt0, rsamples = self._recent
        if rsamples:
            o_fid, o_t = opened
            for fid in o_fid[o_t == rt0].tolist():
                for seq, sidx, val in rsamples:
                    self._attribute(fid, sidx, val, seq)

        n_s = len(s_t)
        if n_s:
            base_seq = self._seq
            self._seq = base_seq + n_s
            per_sensor = np.bincount(s_sidx)
            for sidx in per_sensor.nonzero()[0].tolist():
                self._summary[sidx].push_many(s_val[s_sidx == sidx])
            self._attribute_chunk(spans, s_t, s_sidx, s_val, base_seq)
            t_last = float(s_t[-1])
            tie = int(s_t.searchsorted(t_last))
            self._recent = (t_last, [
                (base_seq + 1 + i, sidx, val) for i, sidx, val in zip(
                    range(tie, n_s), s_sidx[tie:].tolist(),
                    s_val[tie:].tolist())
            ])
        return None

    def _pair_frames(self, fid, pid, enter, t, pos):
        """Pair the chunk's frames for every process at once.

        Each process's carried stack goes ahead of its chunk events as
        virtual ENTERs.  One stable sort groups the events by process
        rank, one segmented cumulative sum gives their depths
        (:func:`frame_depths`), and one stable sort by (rank, frame
        depth) pairs every frame: inside such a group ENTER and EXIT
        alternate, so an EXIT's mate is its predecessor, and a group
        that ends in an ENTER is an open frame.  The top of stack after
        an EXIT and the caller of a chunk ENTER are each one
        ``searchsorted`` on a (rank, depth, position) key over every
        ENTER.  Sort keys take the narrowest integer dtype that holds
        them (:func:`_narrow`).

        Returns ``None`` when there is nothing to pair; the
        :data:`REPAIR_REASONS` key of the lowest pid whose frames fail
        (``unbalanced-frames`` before ``frame-mismatch`` for one pid);
        or the paired :class:`_Frames`.  Nothing is committed.
        """
        carry = self._carry
        n_v = len(carry.pid)
        if not n_v and not len(fid):
            return None
        pid = pid.astype(np.int64)
        t_enter = t
        if n_v:
            pid = np.concatenate((carry.pid, pid))
            fid = np.concatenate((carry.fid, fid))
            enter = np.concatenate((np.ones(n_v, dtype=bool), enter))
            t_enter = np.concatenate((carry.t_enter, t))
            t = np.concatenate((carry.since, t))
            pos = np.concatenate((np.full(n_v, -1), pos))
        cid = None
        if carry.cid is not None:
            cid = np.full(len(pid), -1, dtype=np.int64)
            cid[:n_v] = carry.cid

        # Group by process: each keeps its carried frames first, then
        # its chunk events in stream order.
        lo = int(pid.min())
        order = np.argsort(_narrow(pid - lo, int(pid.max()) - lo),
                           kind="stable")
        pid, fid, enter, t, t_enter, pos = (
            a[order] for a in (pid, fid, enter, t, t_enter, pos))
        if cid is not None:
            cid = cid[order]
        n = len(pid)
        head = np.ones(n, dtype=bool)
        head[1:] = pid[1:] != pid[:-1]
        rank = head.cumsum() - 1
        n_proc = int(rank[-1]) + 1
        depth_after, depth = frame_depths(enter, rank)

        # Pair: one stable sort by (rank, frame depth).
        d_lo = int(depth.min())
        d_span = int(depth.max()) - d_lo + 1
        frame_key = rank * d_span + (depth - d_lo)
        by_depth = np.argsort(_narrow(frame_key, n_proc * d_span - 1),
                              kind="stable")
        key = frame_key[by_depth]
        en_d = enter[by_depth]
        x_d = (~en_d).nonzero()[0]
        exits = by_depth[x_d]
        mates = by_depth[x_d - 1]
        unbalanced = rank[depth_after < 0]
        mismatched = rank[exits[fid[mates] != fid[exits]]]
        if len(unbalanced) or len(mismatched):
            # The lowest failing pid decides, as a per-process walk in
            # pid order would; a negative depth breaks the alternation,
            # so that process's pairing says nothing.
            first_u = int(unbalanced.min()) if len(unbalanced) else n_proc
            first_m = int(mismatched.min()) if len(mismatched) else n_proc
            return _R_UNBALANCED if first_u <= first_m else _R_MISMATCH
        last = np.ones(n, dtype=bool)
        last[:-1] = key[1:] != key[:-1]
        open_ = by_depth[last & en_d]
        e_d = en_d.nonzero()[0]
        ent = by_depth[e_d]

        # Top of stack after each event, as the index of the ENTER whose
        # frame is on top (-1 = stack empty): an ENTER is its own top;
        # an EXIT leaves the latest ENTER one level up on top.  A chunk
        # ENTER's caller is the latest ENTER one level up, too.
        # (one level up is the frame key minus one)
        top = np.full(n, -1, dtype=np.int64)
        top[ent] = ent
        live = exits[depth_after[exits] > 0]
        enters = (enter & (pos >= 0)).nonzero()[0]
        nested = depth[enters] > 1
        ask = np.concatenate((live, enters[nested]))
        found = ent[(key[e_d] * n + ent).searchsorted(
            (frame_key[ask] - 1) * n + ask) - 1]
        top[live] = found[:len(live)]
        parent = np.full(len(enters), -1, dtype=np.int64)
        parent[nested] = found[len(live):]

        # Exclusive-time segments between consecutive events of one
        # process while its stack is non-empty, closed by a chunk event;
        # a carried frame's time is its process's latest event, so the
        # carried top-of-stack segment closes at the first chunk event.
        dt = t[1:] - t[:-1]
        seg = (~head[1:] & (pos[1:] >= 0) & (depth_after[:-1] > 0)
               & (dt > 0)).nonzero()[0]
        seg_pos = pos[seg + 1]
        in_time = np.argsort(seg_pos, kind="stable")
        seg = seg[in_time]

        tail = np.ones(n, dtype=bool)
        tail[:-1] = head[1:]
        return _Frames(rank, pid, fid, t, t_enter, pos, cid, top, enters,
                       parent, seg, dt[seg], seg_pos[in_time],
                       tail.nonzero()[0], open_, n_proc)

    def _commit_tree(self, fr: _Frames, s_sidx, s_val, s_pos,
                     n_pos: int) -> None:
        """Fold one validated chunk into the calling-context tree.

        Context ids derive from the chunk-wide pairing the flat commit
        already used (:meth:`_pair_frames`): each chunk ENTER interns
        under its caller ENTER's context, a depth level at a time with
        one ``intern`` per distinct context, and the chunk's calls count
        in one ``bincount``; carried frames keep their context ids,
        exclusive segments map their top ENTER onto context ids and
        reduce with the same stream-ordered ``np.add.at`` as the flat
        profile — so the tree's per-context times do not depend on the
        chunking.  Samples attribute point-in-time: each lands once on
        every distinct context topping some process's stack at that
        stream position (one keyed ``searchsorted`` over every
        process's events), pushed per (context, sensor) in stream order.
        """
        tree = self._tree
        fnames = self._fnames
        ecid = fr.cid
        ce = fr.enters
        if len(ce):
            # Intern in rounds, one per depth level: a round takes the
            # ENTERs whose caller's context is known (carried, the root,
            # or interned by an earlier round — a caller always comes
            # earlier), and interns each distinct (parent, name) once.
            n_names = len(fnames)
            e_fid = fr.fid[ce]
            pending = np.arange(len(ce))
            while len(pending):
                par = fr.parent[pending]
                pcid = np.where(par >= 0, ecid[np.maximum(par, 0)], 0)
                ready = pcid >= 0
                now = pending[ready]
                uniq, inv = np.unique(pcid[ready] * n_names + e_fid[now],
                                      return_inverse=True)
                cids = np.fromiter(
                    (tree.intern(p, fnames[f]) for p, f in zip(
                        (uniq // n_names).tolist(),
                        (uniq % n_names).tolist())),
                    dtype=np.int64, count=len(uniq))
                ecid[ce[now]] = cids[inv]
                pending = pending[~ready]
            calls = np.bincount(ecid[ce])
            tree._calls[:len(calls)] += calls
        if len(fr.seg):
            tree.add_excl_at(ecid[fr.top[fr.seg]], fr.seg_dt)
        n_s = len(s_pos)
        if n_s:
            # Each process's latest event before each sample: events
            # keyed by (rank, chunk position), carried frames first.
            width = n_pos + 1
            procs = np.arange(fr.n_proc)
            ev = np.searchsorted(
                fr.rank * width + fr.pos + 1,
                (procs[:, None] * width + s_pos + 1).ravel()) - 1
            src = fr.top[ev]
            hit = ((ev >= 0) & (fr.rank[ev] == np.repeat(procs, n_s))
                   & (src >= 0))
            samp, groups = _hit_groups(
                ecid[src[hit]], np.tile(np.arange(n_s), fr.n_proc)[hit],
                s_sidx, len(self.sensor_names))
            for c, sidx, a, b in groups:
                tree.push_samples(c, sidx, s_val[samp[a:b]])
        # The carried frames keep their context ids.
        self._carry = self._carry._replace(cid=ecid[fr.open])

    def _commit_union(self, f_fid, f_enter, f_t, *, late: bool):
        """Per-function inclusive-time union over one time-ordered chunk.

        The union state a function carries into the chunk goes ahead of
        its events as virtual ones: its pending span as an open and a
        close, its open span as one open that carries its activation
        count.  One stable sort by function id and one segmented
        cumulative sum of the activation deltas then find every 0→1
        open and 1→0 close; each close's span starts at its function's
        latest open, and spans merge into runs when they touch (a reopen
        at the pending span's end resumes it, a later one retires it).
        Every run but each function's last one retires, reduced with one
        ``np.add.at`` (per-slot order preserved, so sums do not depend
        on the chunking); the last run is kept pending when the function
        ends the chunk inactive, or extended by its open span when the
        trailing open touches it — masks over the chunk's functions.

        In a ``late`` chunk a function's union times are first raised
        to what its union already holds (pending end, or open start and
        max-close carry): a late record can extend a span forward but
        cannot reopen one already retired.  On every other chunk that
        raise changes nothing, so it is skipped.

        Returns the chunk's attribution spans as a ``(fid, start, end)``
        table — each function's runs, the carried pending span among
        them (for boundary-tie samples), and its still-open span — and
        its first opens, ``(fid, time)``.
        """
        inf = math.inf
        if late:
            held = np.where(
                self._pend_mask, self._pend_end,
                np.where(self._active_arr > 0,
                         np.maximum(self._open_start_arr,
                                    self._maxclose_arr), -inf))
            f_t = np.maximum(f_t, held[f_fid])
        present = np.zeros(len(self._active_arr), dtype=bool)
        present[f_fid] = True
        pend = (present & self._pend_mask).nonzero()[0]
        held_open = (present & (self._active_arr > 0)).nonzero()[0]
        n_v = 2 * len(pend) + len(held_open)
        g_f = np.concatenate((pend, pend, held_open, f_fid))
        order = np.argsort(_narrow(g_f, len(self._fnames) - 1),
                           kind="stable")
        g_f = g_f[order]
        g_d = np.concatenate((
            np.ones(len(pend), dtype=np.int64),
            np.full(len(pend), -1), self._active_arr[held_open],
            np.where(f_enter, 1, -1)))[order]
        g_t = np.concatenate((
            self._pend_start[pend], self._pend_end[pend],
            self._open_start_arr[held_open], f_t))[order]
        real = order >= n_v
        n = len(g_f)
        first = np.ones(n, dtype=bool)
        first[1:] = g_f[1:] != g_f[:-1]
        grp_start = first.nonzero()[0]
        grp_last = np.concatenate((grp_start[1:], [n])) - 1
        grp_fids = g_f[grp_start]
        # Each function's activation count after each of its events.
        cs = g_d.cumsum()
        c = cs - (cs - g_d)[grp_start][first.cumsum() - 1]
        opens = (g_d > 0) & (c == g_d)
        closes = (g_d < 0) & (c == 0)
        count_end = c[grp_last]
        live = count_end > 0
        at = np.arange(n)
        latest_open = np.maximum.accumulate(np.where(opens, at, -1))
        last_open = latest_open[grp_last]
        last_close = np.maximum.reduceat(np.where(closes, at, -1), grp_start)
        has_run = last_close >= 0
        first_open = np.minimum.reduceat(np.where(opens & real, at, n),
                                         grp_start)
        has_open = first_open < n
        t_open = g_t[first_open[has_open]]
        # Each close's span starts at its function's latest open; spans
        # merge into runs when they touch (start == previous end).
        c_idx = closes.nonzero()[0]
        cf = g_f[c_idx]
        ctm = g_t[c_idx]
        span_start = g_t[latest_open[c_idx]]
        new_run = np.ones(len(cf), dtype=bool)
        new_run[1:] = (cf[1:] != cf[:-1]) | (span_start[1:] > ctm[:-1])
        run_last = np.ones(len(cf), dtype=bool)
        run_last[:-1] = new_run[1:]
        run_fid = cf[new_run]
        run_start = span_start[new_run]
        run_end = ctm[run_last]
        # Each function's last run: kept pending when the function ends
        # the chunk inactive; extended into the open span when the
        # trailing open touches it.  (a trailing NaN: no run)
        last_run = run_fid.searchsorted(grp_fids, side="right") - 1
        last_start = np.concatenate((run_start, [np.nan]))[last_run]
        last_end = g_t[last_close]
        extend = live & has_run & (g_t[last_open] <= last_end)
        self._open_start_arr[grp_fids[live]] = np.where(
            extend, last_start, g_t[last_open])[live]
        park = ~live & has_run
        self._pend_mask[grp_fids] = park
        parked = grp_fids[park]
        self._pend_start[parked] = last_start[park]
        self._pend_end[parked] = last_end[park]
        add_run = np.ones(len(run_fid), dtype=bool)
        add_run[last_run[extend | park]] = False
        # Max-close carry, for a span left open past the chunk: the
        # latest time it is known to reach (a nested close, or the end
        # of the run it extends), so that a late or end-of-trace close
        # cannot end it earlier.  A close after the last 0-reaching
        # close belongs to the still-open span; otherwise the carry was
        # reset at that retire.  A function without closes keeps its
        # carry.  In time order every retiring close already ends its
        # run at the in-chunk maximum.
        last_x = np.maximum.reduceat(np.where(g_d < 0, at, -1), grp_start)
        reach = np.where(last_x < 0, self._maxclose_arr[grp_fids],
                         np.where(last_x > last_close, g_t[last_x], -inf))
        reach = np.where(extend & (last_end > reach), last_end, reach)
        self._maxclose_arr[grp_fids] = np.where(live, reach, -inf)

        self._active_arr[grp_fids] = count_end
        retired = run_fid[add_run]
        np.add.at(self._incl, retired, (run_end - run_start)[add_run])
        self._incl_touched[retired] = True
        spans = (
            np.concatenate((run_fid, grp_fids[live])),
            np.concatenate((run_start, self._open_start_arr[grp_fids[live]])),
            np.concatenate((run_end, np.full(np.count_nonzero(live), inf))),
        )
        return spans, (grp_fids[has_open], t_open)

    def _attribute_chunk(self, spans, s_t, s_sidx, s_val, base_seq
                         ) -> None:
        """Closed-interval containment attribution for one chunk's
        samples, pushed per (function, sensor) group in stream order.

        *spans* is the chunk's ``(fid, start, end)`` table from
        :meth:`_commit_union`; a function without events in the chunk
        adds its whole-chunk span while active, or its pending span.
        The samples are in time order, so each span's samples are one
        ``searchsorted`` range of them; where a function's spans
        overlap (one extends another), its hits deduplicate as they
        group.
        """
        fid, start, end = spans
        quiet = np.ones(len(self._active_arr), dtype=bool)
        quiet[fid] = False
        active = np.flatnonzero((self._active_arr > 0) & quiet)
        pending = np.flatnonzero(self._pend_mask & quiet)
        fid = np.concatenate((fid, active, pending))
        start = np.concatenate((start, np.full(len(active), -math.inf),
                                self._pend_start[pending]))
        end = np.concatenate((end, np.full(len(active), math.inf),
                              self._pend_end[pending]))
        lo = np.searchsorted(s_t, start, side="left")
        n_hit = np.searchsorted(s_t, end, side="right") - lo
        total = int(n_hit.sum())
        if not total:
            return
        samp = np.arange(total) + np.repeat(lo - (np.cumsum(n_hit) - n_hit),
                                            n_hit)
        samp, groups = _hit_groups(np.repeat(fid, n_hit), samp, s_sidx,
                                   len(self.sensor_names))
        stats = self._stats
        attr_seq = self._attr_seq
        for f, sidx, a, b in groups:
            key = (f, sidx)
            st = stats.get(key)
            if st is None:
                st = stats[key] = OnlineStats()
            st.push_many(s_val[samp[a:b]])
            attr_seq[key] = base_seq + 1 + int(samp[b - 1])

    # ------------------------------------------------------------------
    # Profile construction

    def innermost(self) -> Optional[tuple[str, float]]:
        """The frame executing now, as ``(function, entered at)``: of
        every process's top frame, the one entered last — ``None`` while
        every stack is empty."""
        carry = self._carry
        tops = _group_tails(carry.pid)
        entered = dict(zip(carry.pid[tops].tolist(),
                           zip(carry.fid[tops].tolist(),
                               carry.t_enter[tops].tolist())))
        top = None
        for pid in self._last_time:
            frame = entered.get(pid)
            if frame and (top is None or frame[1] > top[1]):
                top = frame
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
        carry = self._carry
        tops = _group_tails(carry.pid)
        top_cid = dict(zip(carry.pid[tops].tolist(), carry.cid[tops].tolist()))
        for pid, (_fid, since) in self._top_since.items():
            if now > since:
                tree.add_excl(top_cid[pid], now - since)
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
        stacks: dict[int, list[int]] = {}
        for pid, fid in zip(self._carry.pid.tolist(),
                            self._carry.fid.tolist()):
            stacks.setdefault(pid, []).append(fid)
        rows = [(fid, self._last_time[pid], pid)
                for pid in self._last_time if pid in stacks
                for fid in reversed(stacks[pid])]
        if rows and self.strict:
            pid = min((pid for _f, _t, pid in rows),
                      key=self._last_time.__getitem__)
            raise TraceError(
                f"{self.node_name}: pid {pid}: trace ended with open frames "
                f"{[self._fnames[f] for f in stacks[pid]]}"
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
                (("<root>" if code >> 32 == 0 else fnames[(code >> 32) - 1]),
                 fnames[code & 0xFFFFFFFF]): n
                for code, n in zip(self._arc_codes.tolist(),
                                   self._arc_calls.tolist())
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


def fold_profile(symtab: SymbolTable, meta: dict, sources, *,
                 strict: bool = False, hcct_budget: Optional[int] = None,
                 map: Callable = map) -> RunProfile:
    """The run profile of per-node chunk sources: each node's chunks,
    in stream order, fold into one :class:`ProfileAccumulator`.

    A source is ``(name, tsc_hz, sensor_names, chunks)``; the profile's
    nodes keep the sources' order.  This is the one driver behind every
    profile of a whole run — a trace directory
    (:func:`stream_spool_profile`), a resident bundle
    (:func:`stream_bundle_profile`) and the served profile
    (:meth:`~repro.cluster.aggregator.Aggregator.merged_profile`, which
    passes its thread pool's ``map`` to fold a node per worker).
    """
    profiler = StreamingRunProfiler(
        symtab,
        sampling_hz=float(meta.get("sampling_hz", 4.0)),
        strict=strict,
        meta=meta,
        hcct_budget=hcct_budget,
    )

    def fold(source):
        name, tsc_hz, sensor_names, chunks = source
        acc = profiler.add_node(name, tsc_hz, sensor_names)
        for chunk in chunks:
            acc.consume(chunk)
        return name, acc.finalize()

    return RunProfile(nodes=dict(map(fold, sources)),
                      sampling_hz=profiler.sampling_hz,
                      meta=dict(profiler.meta))


def stream_spool_profile(directory, *, chunk_records: Optional[int] = None,
                         strict: bool = False,
                         hcct_budget: Optional[int] = None) -> RunProfile:
    """Constant-memory profile of a trace directory, closed or live
    (``parse``, ``compare``, ``hotpaths --bundle``, ``check``).

    Reads the header (:func:`~repro.core.trace.read_trace_header`) plus
    each node's record file in fixed-size record chunks and folds them
    straight into streaming accumulators — the whole trace is never
    resident, so peak memory is O(chunk + functions × sensors) however
    long the run was; no raw sensor series are kept.  Each chunk is put
    in time order as it is consumed, so a directory profiles like the
    bundle loaded from it (:func:`stream_bundle_profile` folds the same
    chunks); a record a whole chunk late is folded at its own time and
    counted as ``late-records``.  The default chunk size is
    :data:`repro.core.spool.STREAM_CHUNK_RECORDS` — larger than the
    spool write granularity, because the reduction amortizes per-chunk
    overhead over more records at ~11 MB of peak residency.  A closed
    directory's record files must hold the counts its header declares
    (:meth:`~repro.core.trace.NodeHeader.iter_chunks`); without
    ``strict`` a short one is read as far as it goes.
    """
    from repro.core.spool import STREAM_CHUNK_RECORDS

    header = read_trace_header(directory)
    size = chunk_records or STREAM_CHUNK_RECORDS
    return fold_profile(
        header.symtab, header.meta,
        ((node.name, node.tsc_hz, node.sensor_names,
          node.iter_chunks(size, tolerate_truncation=not strict))
         for node in header.nodes.values()),
        strict=strict, hcct_budget=hcct_budget)


def bundle_sources(bundle) -> list[tuple]:
    """A resident :class:`~repro.core.trace.TraceBundle`'s nodes as
    :func:`fold_profile` sources: views of each node's records in
    :data:`repro.core.spool.STREAM_CHUNK_RECORDS` chunks, the chunks a
    trace directory saved from the bundle is read in."""
    from repro.core.spool import STREAM_CHUNK_RECORDS

    return [(name, trace.tsc_hz, trace.sensor_names,
             trace.iter_column_chunks(STREAM_CHUNK_RECORDS))
            for name, trace in bundle.nodes.items()]


def stream_bundle_profile(bundle, *, strict: bool = True,
                          hcct_budget: Optional[int] = None) -> RunProfile:
    """Profile an in-memory :class:`~repro.core.trace.TraceBundle`
    exactly as its saved directory is profiled
    (:func:`stream_spool_profile`): the same chunks through the same
    fold.  :class:`~repro.core.parser.TempestParser` adds the raw sensor
    series; this is how a bundle grows a hot calling-context tree
    (``hcct_budget``).
    """
    return fold_profile(bundle.symtab, bundle.meta, bundle_sources(bundle),
                        strict=strict, hcct_budget=hcct_budget)


def in_time_order(arr: np.ndarray) -> np.ndarray:
    """One node's resident records, stable-sorted whole by time.

    Only the ASCII plot's function band wants this
    (:func:`repro.core.ascii_plot._function_band`): it cuts a whole node
    by time with ``searchsorted``, so the whole node must be in order —
    the profile engine needs only each chunk in order.  A node's trace
    is only time-ordered per process: tempd's sweeps and a rank's
    buffered records reach it in bursts.  When the ``tsc`` column is
    not non-decreasing, a function record's time is its process's clock
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
