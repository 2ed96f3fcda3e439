"""The post-mortem reference the profile engine is tested against.

The paper's parser (§3.1-3.2) holds the whole node trace: it replays
each process's ENTER/EXIT stream through a call stack, keeps every
dynamic call as an interval, merges each function's intervals into
disjoint union spans, and attributes a temperature sample at time *t*
to every function whose union contains *t* (closed on both ends).
Statistics are computed exactly over the attributed samples.

That is the semantics :class:`repro.core.streamprof.ProfileAccumulator`
reproduces in one pass and constant memory.  This module keeps the
straightforward event-at-a-time version — nothing vectorized, nothing
incremental — so the differential suite has something independent to
compare the engine with.  It lives under ``tests/`` because nothing in
the runtime needs it.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Iterable, NamedTuple

import numpy as np

from repro.core.profilemodel import FunctionProfile, NodeProfile
from repro.core.stats import SensorStats
from repro.core.streamprof import _coverage
from repro.core.symtab import SymbolTable
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP, NodeTrace
from repro.util.errors import ConfigError, TraceError


class FunctionInterval(NamedTuple):
    """One dynamic activation of a function."""

    name: str
    start_s: float
    end_s: float
    depth: int
    pid: int

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class TopSegment(NamedTuple):
    """A stretch of time during which *name* was the innermost active
    function of process *pid*."""

    name: str
    start_s: float
    end_s: float
    pid: int


def merge_spans(spans: Iterable[tuple[float, float]]
                ) -> list[tuple[float, float]]:
    """Merge possibly-overlapping spans into a disjoint sorted list."""
    out: list[tuple[float, float]] = []
    for s, e in sorted(spans):
        if out and s <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], e))
        else:
            out.append((s, e))
    return out


def spans_contain(spans: list[tuple[float, float]], t: float) -> bool:
    """Closed-interval membership in a disjoint sorted span list."""
    i = bisect.bisect_right(spans, (t, float("inf"))) - 1
    if i < 0:
        return False
    s, e = spans[i]
    return s <= t <= e


class OracleTimeline:
    """A node's full call timeline: every interval and top-of-stack
    segment, plus the aggregates derived from them."""

    def __init__(self, intervals, top_segments, exclusive_s, calls, arcs):
        self.intervals = [FunctionInterval(*row) for row in intervals]
        self.top_segments = [TopSegment(*row) for row in top_segments]
        self.arcs: dict[tuple[str, str], int] = arcs
        self._exclusive = exclusive_s
        self._calls = calls
        by_name: dict[str, list[tuple[float, float]]] = {}
        for iv in self.intervals:
            by_name.setdefault(iv.name, []).append((iv.start_s, iv.end_s))
        self._unions = {name: merge_spans(spans)
                        for name, spans in by_name.items()}

    def function_names(self) -> list[str]:
        return sorted(self._unions, key=self.inclusive_time, reverse=True)

    def inclusive_time(self, name: str) -> float:
        return sum(e - s for s, e in self._unions.get(name, []))

    def exclusive_time(self, name: str) -> float:
        return self._exclusive.get(name, 0.0)

    def call_count(self, name: str) -> int:
        return self._calls.get(name, 0)

    def union_spans(self, name: str) -> list[tuple[float, float]]:
        return list(self._unions.get(name, []))

    def active_at(self, t: float) -> list[str]:
        return [name for name, spans in self._unions.items()
                if spans_contain(spans, t)]

    def contains(self, name: str, t: float) -> bool:
        return spans_contain(self._unions.get(name, []), t)

    def callers_of(self, name: str) -> dict[str, int]:
        return {c: n for (c, callee), n in self.arcs.items() if callee == name}

    def callees_of(self, name: str) -> dict[str, int]:
        return {k: n for (caller, k), n in self.arcs.items() if caller == name}

    @property
    def span(self) -> tuple[float, float]:
        if not self.intervals:
            return (0.0, 0.0)
        return (min(iv.start_s for iv in self.intervals),
                max(iv.end_s for iv in self.intervals))


def replay_timeline(ev_kinds, ev_names, ev_times, ev_pids, *,
                    strict: bool) -> OracleTimeline:
    """Event-at-a-time stack replay over parallel event lists.

    Strict mode raises :class:`TraceError` on a timestamp regression, an
    EXIT that does not match the top of its stack, or frames left open
    at the end.  Lenient mode repairs the way a post-processor must:
    regressions clamp to the process's last time, a mismatched EXIT
    unwinds the frames above its match (or is dropped when nothing
    matches), and open frames close at the process's last event time.
    """
    stacks: dict[int, list[tuple[str, float]]] = {}
    last_time: dict[int, float] = {}
    intervals: list[tuple] = []          # (name, start, end, depth, pid)
    segments: list[tuple] = []           # (name, start, end, pid)
    exclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    arcs: dict[tuple[str, str], int] = {}
    top_since: dict[int, tuple[str, float]] = {}

    def credit_top(pid: int, until: float) -> None:
        cur = top_since.get(pid)
        if cur is not None:
            name, since = cur
            if until > since:
                exclusive[name] = exclusive.get(name, 0.0) + (until - since)
                segments.append((name, since, until, pid))

    for kind, name, t, pid in zip(ev_kinds, ev_names, ev_times, ev_pids):
        stack = stacks.setdefault(pid, [])
        prev = last_time.get(pid)
        if prev is not None and t < prev - 1e-12:
            if strict:
                raise TraceError(
                    f"pid {pid}: timestamps regressed ({t} after {prev}); "
                    "was the process bound to one core?"
                )
            t = prev
        last_time[pid] = t
        if kind == REC_ENTER:
            credit_top(pid, t)
            caller = stack[-1][0] if stack else "<root>"
            arcs[(caller, name)] = arcs.get((caller, name), 0) + 1
            stack.append((name, t))
            top_since[pid] = (name, t)
            calls[name] = calls.get(name, 0) + 1
            continue
        if not stack:
            if strict:
                raise TraceError(f"pid {pid}: EXIT {name!r} with empty stack")
            continue
        if stack[-1][0] != name:
            if strict:
                raise TraceError(
                    f"pid {pid}: EXIT {name!r} but top of stack is "
                    f"{stack[-1][0]!r}"
                )
            # Close the current top segment before unwinding: the
            # crossed frames are about to be popped.
            credit_top(pid, t)
            while stack and stack[-1][0] != name:
                crossed, t0 = stack.pop()
                intervals.append((crossed, t0, t, len(stack), pid))
            if not stack:
                top_since.pop(pid, None)
                continue
            top_since[pid] = (stack[-1][0], t)
        credit_top(pid, t)
        _, t0 = stack.pop()
        intervals.append((name, t0, t, len(stack), pid))
        if stack:
            top_since[pid] = (stack[-1][0], t)
        else:
            top_since.pop(pid, None)

    for pid, stack in stacks.items():
        if not stack:
            continue
        if strict:
            raise TraceError(
                f"pid {pid}: trace ended with open frames "
                f"{[n for n, _ in stack]}"
            )
        t_end = last_time.get(pid, stack[-1][1])
        credit_top(pid, t_end)
        while stack:
            name, t0 = stack.pop()
            intervals.append((name, t0, t_end, len(stack), pid))

    return OracleTimeline(intervals, segments, exclusive, calls, arcs)


def build_timeline(records: np.ndarray, symtab: SymbolTable, seconds_fn, *,
                   strict: bool = True) -> OracleTimeline:
    """Replay a structured record array into an :class:`OracleTimeline`;
    ``seconds_fn`` converts a column of TSC ticks to seconds."""
    arr = records[(records["kind"] == REC_ENTER)
                  | (records["kind"] == REC_EXIT)]
    kinds = arr["kind"].tolist()
    names = [symtab.name_of(a) for a in arr["addr"].tolist()]
    times = np.asarray(seconds_fn(arr["tsc"]), dtype=float).tolist()
    pids = arr["pid"].tolist()
    return replay_timeline(kinds, names, times, pids, strict=strict)


def oracle_tree(trace: NodeTrace, symtab: SymbolTable, *, budget: int,
                chunk_records=None):
    """One node's calling-context tree, replayed event at a time.

    The same lenient rules as :func:`replay_timeline` drive a
    :class:`~repro.core.cct.ContextTree`: an ENTER interns its context
    under the caller's and counts a call, each process's top context
    collects exclusive time between that process's events, and a sample
    lands once on every distinct context topping some process's stack.
    ``end_chunk`` prunes after every ``chunk_records`` records, pinning
    the open contexts, like the engine's chunk boundaries — so budgeted
    trees compare too.  Records are replayed in the order given: feed a
    time-ordered trace.  ``budget`` 0 keeps the exact tree.
    """
    from repro.core.cct import ContextTree

    tree = ContextTree(trace.sensor_names,
                       budget=None if budget == 0 else int(budget))
    arr = trace.columns.array
    times = np.asarray(trace.seconds(arr["tsc"]), dtype=float).tolist()
    stacks: dict[int, list[tuple[str, int]]] = {}
    last_time: dict[int, float] = {}

    def credit_top(pid: int, until: float) -> None:
        stack = stacks[pid]
        if stack and until > last_time[pid]:
            tree.add_excl(stack[-1][1], until - last_time[pid])

    def pinned() -> set[int]:
        return {cid for st in stacks.values() for _, cid in st}

    size = chunk_records or max(len(arr), 1)
    rows = list(zip(arr["kind"].tolist(), arr["addr"].tolist(), times,
                    arr["pid"].tolist(), arr["value"].tolist()))
    for lo in range(0, len(rows), size):
        for kind, addr, t, pid, value in rows[lo:lo + size]:
            if kind == REC_TEMP:
                for cid in sorted({st[-1][1] for st in stacks.values()
                                   if st}):
                    tree.push_sample(cid, addr, value)
                continue
            if kind not in (REC_ENTER, REC_EXIT):
                continue
            stack = stacks.setdefault(pid, [])
            t = max(t, last_time.get(pid, t))
            name = symtab.name_of(addr)
            if kind == REC_ENTER:
                if stack:
                    credit_top(pid, t)
                cid = tree.intern(stack[-1][1] if stack else 0, name)
                tree.record_call(cid)
                stack.append((name, cid))
            elif stack:
                credit_top(pid, t)
                if any(n == name for n, _ in stack):
                    while stack[-1][0] != name:
                        stack.pop()
                    stack.pop()
                else:
                    stack.clear()
            last_time[pid] = t
        tree.end_chunk(pinned=pinned())
    for pid, stack in stacks.items():
        if stack:
            credit_top(pid, last_time[pid])
            stack.clear()
    tree.end_chunk()
    return tree


def oracle_prune(tree, *, pinned=None, budget=None) -> int:
    """Evict a tree's coldest unpinned leaves, one heap over every leaf.

    The straightforward space-saving prune: every live unpinned leaf
    goes on a heap keyed ``(excl + error, path)``, and contexts are
    evicted one at a time, each with its full bookkeeping, pushing a
    parent the moment it becomes a leaf.
    :meth:`~repro.core.cct.ContextTree.prune_to_budget` must make the
    same evictions in the same order.  Returns the eviction count.
    """
    import heapq

    def evict(cid: int) -> None:
        w = float(tree._excl[cid] + tree._error[cid])
        if w > tree.epsilon_s:
            tree.epsilon_s = w
        parent = tree._parents[cid]
        tree._children[parent].pop(tree._names[cid], None)
        tree._names[cid] = None
        tree._parents[cid] = -1
        tree._children[cid] = None
        tree._excl[cid] = 0.0
        tree._calls[cid] = 0
        tree._error[cid] = 0.0
        for sidx in range(len(tree.sensor_names)):
            tree.stats.pop((cid, sidx), None)
        tree._free.append(cid)
        tree._n_live -= 1
        tree.n_evicted += 1

    limit = tree.budget if budget is None else budget
    if limit is None or tree._n_live <= limit:
        return 0
    pinned = pinned or set()
    heap = []
    for cid in range(1, len(tree._names)):
        if (tree._names[cid] is not None and not tree._children[cid]
                and cid not in pinned):
            heapq.heappush(heap, (
                float(tree._excl[cid] + tree._error[cid]),
                tree.path_of(cid), cid,
            ))
    evicted = 0
    while tree._n_live > limit and heap:
        w, path, cid = heapq.heappop(heap)
        if tree._names[cid] is None or tree._children[cid]:
            continue        # stale entry: already evicted or grew kids
        parent = tree._parents[cid]
        evict(cid)
        evicted += 1
        if (parent > 0 and not tree._children[parent]
                and parent not in pinned):
            heapq.heappush(heap, (
                float(tree._excl[parent] + tree._error[parent]),
                tree.path_of(parent), parent,
            ))
    return evicted


def compute_sensor_stats(values) -> SensorStats:
    """The Figure 2(a) statistic set over one sensor's samples, exactly:
    numpy two-pass moments, ``np.median``, and a Counter mode (ties to
    the smaller reading)."""
    if len(values) == 0:
        raise ConfigError("cannot compute statistics over zero samples")
    arr = np.asarray(values, dtype=float)
    counts = Counter(arr.tolist())
    best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
    lo, hi = float(arr.min()), float(arr.max())
    return SensorStats(
        n=int(arr.size),
        min=lo,
        avg=min(max(float(arr.mean()), lo), hi),
        max=hi,
        sdv=float(arr.std()),
        var=float(arr.var()),
        med=float(np.median(arr)),
        mod=float(best[0]),
    )


def samples_in_spans(times: np.ndarray, values: np.ndarray,
                     spans: list[tuple[float, float]]) -> np.ndarray:
    """Values whose timestamps fall inside any of the (disjoint, sorted)
    spans."""
    if len(times) == 0 or not spans:
        return np.empty(0)
    starts = np.array([s for s, _ in spans])
    ends = np.array([e for _, e in spans])
    # For each time, the candidate span is the last with start <= t.
    idx = np.searchsorted(starts, times, side="right") - 1
    hit = np.zeros(len(times), dtype=bool)
    ok = np.nonzero(idx >= 0)[0]
    hit[ok] = times[ok] <= ends[idx[ok]]
    return values[hit]


def oracle_profile(trace: NodeTrace, symtab: SymbolTable, *,
                   strict: bool = False, sampling_hz: float = 4.0) -> NodeProfile:
    """One node's profile the post-mortem way: replay, union-span
    attribution, exact statistics."""
    arr = trace.columns.array
    timeline = build_timeline(arr, symtab, trace.seconds, strict=strict)
    temp = arr[arr["kind"] == REC_TEMP]
    series = {}
    for idx, name in enumerate(trace.sensor_names):
        mine = temp[temp["addr"] == idx]
        series[name] = (np.asarray(trace.seconds(mine["tsc"]), dtype=float),
                        mine["value"].astype(float))
    interval_s = 1.0 / sampling_hz
    functions: dict[str, FunctionProfile] = {}
    for name in timeline.function_names():
        total = timeline.inclusive_time(name)
        significant = total >= interval_s
        stats: dict[str, SensorStats] = {}
        n_hits = 0
        if significant:
            spans = timeline.union_spans(name)
            for sensor, (times, values) in series.items():
                hit = samples_in_spans(times, values, spans)
                if len(hit):
                    stats[sensor] = compute_sensor_stats(hit)
                    n_hits = max(n_hits, len(hit))
            if not stats:
                significant = False
                stats = {}
        functions[name] = FunctionProfile(
            name=name,
            total_time_s=total,
            exclusive_time_s=timeline.exclusive_time(name),
            n_calls=timeline.call_count(name),
            significant=significant,
            sensor_stats=stats,
            n_samples=n_hits,
            coverage=_coverage(total, n_hits, sampling_hz),
        )
    t0, t1 = timeline.span
    return NodeProfile(
        node_name=trace.node_name,
        duration_s=t1 - t0,
        functions=functions,
        sensor_series=series,
        timeline=timeline,
    )

