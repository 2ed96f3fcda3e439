"""Communication sanitizer: vector-clock happens-before analysis.

``tempest race`` reconstructs the causal structure of a recorded MPI
execution from the comm records PR 9 added to the trace format
(:mod:`repro.core.commrec`) and reports CM0xx diagnostics:

* **CM001 message-race** — a wildcard (``ANY_SOURCE``) receive for which a
  second compatible send, *concurrent* with the one that matched, was
  available.  Concurrency is decided by reconstructed vector clocks, so a
  send that causally depends on the receive having completed (a reply) is
  never a false positive.
* **CM002 wait-for-cycle** — the wait-for graph over ranks at finalize
  (blocked specific-source receives, unmatched rendezvous sends) has a
  cycle: the classic mutual-blocking deadlock.
* **CM003 collective-mismatch** — ranks entered different collective
  sequences, or the same collective with different roots/tag blocks.
* **CM004 unmatched-at-finalize** — sends never received, receive posts
  never completed.
* **CM005 causal-skew-violation** — a receive completion timestamped
  *before* its matching send once per-node ``tsc_hz`` calibration is
  applied, by more than the bounded clock error of honest-but-
  unsynchronized TSCs (:attr:`CausalAnalyzer.SKEW_TOLERANCE_S`).
  Physically impossible on a common clock, so the inversion bounds the
  inter-node TSC skew from below — the paper's §3.3 hazard turned into
  a measurement.
* **CM006 comm-stream-malformed** — internal incoherence (clock
  regressions, malformed completion pairings, dangling references,
  causal cycles in the clock-reference graph, unbalanced collective
  brackets); verdicts degrade to best-effort.

The analyzer is streaming: feed it per-node record chunks in file order
(:meth:`CausalAnalyzer.consume`); only comm events are retained, so memory
is proportional to communication volume and independent of how many
function/temperature records surround it — the same constant-memory
contract as ``streamprof``.  They are retained as per-rank numpy columns
(kind, clock, tsc, value, peer, tag, flags), never as per-event Python
objects; finalize concatenates them in ascending rank order, which makes
every ``(rank, clock)`` key column already sorted, so pairing sends,
posts and completions is a ``searchsorted`` join.

Vector clocks are stored as per-rank *join rows*: between receive
completions a rank's knowledge of other ranks is constant and its own
component is just the Lamport clock, so only completions materialize a
row.  ``happens_before`` is then a binary search — O(log completions) per
query — and rows are built with a cross-rank worklist that doubles as a
causal-cycle detector.  Every row lives in one int32 matrix; the
worklist finds each *ready run* (a stretch of one rank's completions
whose senders' rows are all known) with a plain-int scan.  A long run
folds at once: gather the base rows, lift the sender columns, take the
prefix max down the run.  A short one folds row by row, which costs
fewer numpy calls.  Each sweep visits a rank after the rank it waits on,
so runs are long when ranks wait one on the next (a ring, whichever way
round) and a row or two long when they wait on both neighbours (a halo
exchange).
"""

from __future__ import annotations

from bisect import bisect_right
from pathlib import Path
from typing import Optional

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.core.commrec import (
    FLAG_COMPLETE,
    FLAG_RENDEZVOUS,
    FLAG_WILD_SOURCE,
    FLAG_WILD_TAG,
    MAX_RANK,
    OP_NAMES,
    PAIR_LIMIT,
    decode_comm_addrs,
)
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.trace import (
    REC_COLL_ENTER,
    REC_COLL_EXIT,
    REC_MSG_RECV,
    REC_MSG_SEND,
    read_trace_header,
)
from repro.util.errors import ConfigError

#: one rank's kept columns, in ``_RankState.chunks`` tuple order — kind,
#: clock, tsc, value, peer, tag, flags — empty and typed as ``consume``
#: produces them, so finalize never concatenates an empty list
_EMPTY = (np.empty(0, np.uint8), np.empty(0, np.int32),
          np.empty(0, np.int64), np.empty(0, np.float64),
          np.empty(0, np.int64), np.empty(0, np.int64),
          np.empty(0, np.int64))
#: (rank, clock) keys pack as ``rank << 32 | clock``; clocks are int32
_KEY_SHIFT = 32
#: rank slots for dense per-rank lookup arrays
_RANK_SLOTS = MAX_RANK + 1
#: shortest ready run the join-row fold folds in bulk.  A bulk step is
#: four numpy calls whatever the run's length, one row folded alone is
#: one call (about 7 us against 2 us with 16 ranks, numpy 2.4 on a 2-core
#: Xeon VM), so runs of one to three rows — ranks that wait on both
#: neighbours — fold faster row by row.
_BULK_RUN = 4


def _keys(rank: np.ndarray, clock: np.ndarray) -> np.ndarray:
    return (rank.astype(np.int64) << _KEY_SHIFT) + clock


def _lookup(sorted_keys: np.ndarray,
            keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(found, index)`` of each key in an ascending key column."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), int)
    idx = np.minimum(np.searchsorted(sorted_keys, keys),
                     len(sorted_keys) - 1)
    return sorted_keys[idx] == keys, idx


def _pairing_ok(value: np.ndarray) -> np.ndarray:
    """Completion values that unpack to ``(post_clock, send_clock)`` with
    both halves in ``(0, PAIR_LIMIT)`` — the band ``pack_recv_value``
    enforces.  NaN, infinities and fractions all fail."""
    ok = ((value >= PAIR_LIMIT) & (value < float(PAIR_LIMIT) ** 2)
          & (value == np.floor(value)))
    packed = np.where(ok, value, 0.0).astype(np.int64)
    return ok & (packed % PAIR_LIMIT != 0)


def _bytes_txt(nbytes: float) -> str:
    return f"{int(nbytes) if np.isfinite(nbytes) else nbytes} bytes"


class _RankState:
    """Everything the analyzer retains about one rank's comm stream: the
    node that owns it, the highest clock seen, and its kept events as
    column tuples (``_EMPTY`` order) in stream order."""

    __slots__ = ("node", "last_clock", "chunks")

    def __init__(self, node: str):
        self.node = node
        self.last_clock = 0
        self.chunks: list[tuple[np.ndarray, ...]] = []


class CausalAnalyzer:
    """Streaming vector-clock reconstruction over a bundle's comm records.

    Usage: ``add_node`` for every node in the header, ``consume`` each of
    that node's record chunks in file order, then ``finalize`` for the
    list of CM diagnostics.  ``live=True`` marks a still-growing stream
    (a spool): finalize-dependent rules (CM002/CM004) downgrade to
    warnings because the matching tail may simply not exist yet.
    """

    #: default CM005 slack: unsynchronized TSCs legitimately disagree by a
    #: bounded offset + drift (the machine model draws per-core offsets
    #: with sd ~2e5 cycles ≈ 83 us and ~3 ppm drift — the §3.3 hazard in
    #: its benign form).  Only a reversal *larger* than this bound cannot
    #: be explained by clock error and is reported as a causal violation.
    SKEW_TOLERANCE_S = 1e-3

    def __init__(self, *, path: str = "", live: bool = False,
                 skew_tolerance_s: Optional[float] = None):
        self.path = path
        self.live = live
        tol = (self.SKEW_TOLERANCE_S if skew_tolerance_s is None
               else float(skew_tolerance_s))
        if not (np.isfinite(tol) and tol >= 0):
            raise ConfigError(f"skew tolerance {skew_tolerance_s!r} must be "
                              "a finite, non-negative number of seconds")
        self.skew_tolerance_s = tol
        self.n_comm_events = 0
        self._ranks: dict[int, _RankState] = {}
        self._node_hz: dict[str, float] = {}
        self._node_truncated: dict[str, bool] = {}
        self._stream_diags: list[Diagnostic] = []
        self._malformed_seen: set[tuple] = set()
        self._finalized = False

    # -- ingest ----------------------------------------------------------

    def add_node(self, node: str, tsc_hz: float, *,
                 truncated: bool = False) -> None:
        if tsc_hz <= 0 or not np.isfinite(tsc_hz):
            raise ConfigError(f"node {node}: tsc_hz {tsc_hz!r} must be a "
                              "finite positive calibration")
        self._node_hz[node] = float(tsc_hz)
        self._node_truncated[node] = bool(truncated)

    def consume(self, node: str, arr: np.ndarray) -> None:
        """Fold one chunk of *node*'s record stream (comm kinds only).

        The chunk's comm events are split by rank with one stable sort, so
        ranks are visited in ascending order and each rank's rows stay in
        stream order; every rank slice then takes the same masked checks.
        """
        if node not in self._node_hz:
            raise ConfigError(f"consume() for undeclared node {node!r}; "
                              "call add_node first")
        kinds = arr["kind"]
        mask = (kinds >= REC_MSG_SEND) & (kinds <= REC_COLL_EXIT)
        if not mask.any():
            return
        sub = arr[mask]
        self.n_comm_events += len(sub)
        dec = decode_comm_addrs(sub["addr"])
        order = np.argsort(dec["rank"], kind="stable")
        rank = dec["rank"][order]
        cols = (sub["kind"][order], sub["core"][order], sub["tsc"][order],
                sub["value"][order], dec["peer"][order], dec["tag"][order],
                dec["flags"][order])
        comp = (cols[0] == REC_MSG_RECV) & (cols[6] & FLAG_COMPLETE != 0)
        bad_pair = comp & ~_pairing_ok(cols[3])
        bounds = np.flatnonzero(np.diff(rank)) + 1
        for lo, hi in zip([0, *bounds.tolist()],
                          [*bounds.tolist(), len(rank)]):
            self._consume_rank(node, int(rank[lo]),
                               tuple(c[lo:hi] for c in cols),
                               bad_pair[lo:hi])

    def _consume_rank(self, node: str, rank: int,
                      cols: tuple[np.ndarray, ...],
                      bad_pair: np.ndarray) -> None:
        """Fold one rank's slice of a chunk.

        The first node to show a rank owns it; rows from any other node
        are dropped.  A row is kept only if its clock is above every
        earlier clock of the rank (a dropped row is never above that
        maximum, so it cannot raise it), and a completion only if its
        pairing value is well-formed.  Each problem is one CM006 on its
        first hit per rank, in stream order.
        """
        st = self._ranks.get(rank)
        if st is None:
            st = self._ranks[rank] = _RankState(node)
        elif st.node != node:
            self._malformed(("split-rank", rank),
                            f"rank {rank} appears on nodes "
                            f"{st.node!r} and {node!r}", node)
            return
        clock = cols[1]
        prior = np.maximum.accumulate(
            np.concatenate(([st.last_clock], clock[:-1])))
        clock_ok = clock > prior
        bad_pair = bad_pair & clock_ok
        first_bad = {}
        if not clock_ok.all():
            i = int(np.argmin(clock_ok))
            first_bad[i] = (("clock", rank),
                            f"rank {rank} clock {int(clock[i])} does not "
                            f"advance past {int(prior[i])} (duplicate or "
                            "reordered record)")
        if bad_pair.any():
            i = int(np.argmax(bad_pair))
            first_bad[i] = (("pairing", rank),
                            f"rank {rank} completion at clock "
                            f"{int(clock[i])} has malformed completion "
                            f"pairing {float(cols[3][i])!r} (post and send "
                            f"clocks must both be in (0, {PAIR_LIMIT}))")
        for i in sorted(first_bad):
            self._malformed(*first_bad[i], node)
        st.last_clock = max(st.last_clock, int(clock.max()))
        keep = clock_ok & ~bad_pair
        if keep.all():
            st.chunks.append(cols)
        elif keep.any():
            st.chunks.append(tuple(c[keep] for c in cols))

    def _malformed(self, key: tuple, detail: str, node: str) -> None:
        if key not in self._malformed_seen:
            self._malformed_seen.add(key)
            self._stream_diags.append(self._diag("CM006", detail,
                                                 node=node))

    def _diag(self, rule_id: str, message: str, *, node: str = "",
              location: str = "",
              severity: Optional[str] = None) -> Diagnostic:
        from repro.check.tracelint import _diag
        return _diag(rule_id, message, path=self.path, node=node,
                     location=location, severity=severity)

    def _node_of(self, rank: int) -> str:
        return self._ranks[rank].node

    # -- finalize --------------------------------------------------------

    def finalize(self) -> list[Diagnostic]:
        if self._finalized:
            raise ConfigError("finalize() called twice")
        self._finalized = True
        if not self._ranks:
            return []
        # every pass visits ranks in ascending order, whatever order the
        # chunks introduced them in
        self._ranks = dict(sorted(self._ranks.items()))
        sends, posts, comps, colls = self._tables()
        comps = self._reference_maps(sends, posts, comps)
        diags: list[Diagnostic] = []
        diags.extend(self._check_skew(sends, comps))
        vcs = self._build_join_rows(comps)
        diags.extend(self._check_races(sends, comps, vcs))
        diags.extend(self._check_collectives(colls))
        diags.extend(self._check_unmatched(sends, posts))
        diags.extend(self._check_wait_cycles(sends, posts))
        # stream-coherence findings (CM006) accumulate in _stream_diags
        # through every pass above; surface them first so a reader sees
        # "the stream itself is suspect" before the causal verdicts.
        return self._stream_diags + diags

    def _tables(self):
        """Concatenate every rank's kept columns once (ascending rank,
        then clock) and split them into the send, receive-post, completion
        and collective tables: dicts of equal-length columns, rows in
        (rank, clock) order, so the send and post ``key`` columns —
        ``(rank, clock)`` packed — are ascending.
        """
        pieces = [_EMPTY]
        counts = []
        for st in self._ranks.values():
            pieces.extend(st.chunks)
            counts.append(sum(len(c[0]) for c in st.chunks))
            st.chunks = []
        kind, clock, tsc, value, peer, tag, flags = (
            np.concatenate([p[j] for p in pieces])
            for j in range(len(_EMPTY)))
        del pieces  # the kept chunks go before the tables are cut
        rank = np.repeat(np.fromiter(self._ranks, dtype=np.int64,
                                     count=len(self._ranks)), counts)
        comp = (kind == REC_MSG_RECV) & (flags & FLAG_COMPLETE != 0)
        # table of every row — 0 send, 1 receive post, 2 completion, 3
        # collective — and one stable partition by it, which keeps each
        # table's rows in (rank, clock) order
        cls = np.where(kind > REC_MSG_RECV, np.uint8(3),
                       kind - REC_MSG_SEND + comp)
        sel_send, sel_post, sel_comp, sel_coll = np.split(
            np.argsort(cls, kind="stable"),
            np.cumsum(np.bincount(cls, minlength=4)[:3]))

        def table(sel, **extra):
            cols = {"rank": rank[sel], "clock": clock[sel],
                    "peer": peer[sel], "tag": tag[sel], "flags": flags[sel]}
            cols.update((k, v[sel]) for k, v in extra.items())
            return cols

        sends = table(sel_send, tsc=tsc, nbytes=value)
        sends["key"] = _keys(sends["rank"], sends["clock"])
        # receiver (rank, clock) of the completion that consumed each
        # send; -1 while unconsumed
        sends["to_rank"] = np.full(len(sends["key"]), -1, dtype=np.int64)
        sends["at_clock"] = np.full(len(sends["key"]), -1, dtype=np.int64)
        posts = table(sel_post)
        posts["key"] = _keys(posts["rank"], posts["clock"])
        posts["done"] = np.zeros(len(posts["key"]), dtype=bool)
        comps = table(sel_comp, tsc=tsc)
        packed = value[sel_comp].astype(np.int64)
        comps["post_clock"] = packed // PAIR_LIMIT
        comps["src_clock"] = packed % PAIR_LIMIT
        colls = table(sel_coll, kind=kind)
        with np.errstate(invalid="ignore"):
            colls["op"] = value[sel_coll].astype(np.int64)
        return sends, posts, comps, colls

    @staticmethod
    def _rank_bounds(table: dict, ranks) -> list[tuple[int, int]]:
        """Row range of each rank in a table sorted by rank."""
        r = np.asarray(ranks, dtype=np.int64)
        lo = np.searchsorted(table["rank"], r, side="left").tolist()
        hi = np.searchsorted(table["rank"], r, side="right").tolist()
        return list(zip(lo, hi))

    # Pair every completion with the send and the receive post it names.
    # A dangling reference becomes CM006 and the completion is dropped
    # from causal reasoning; when two completions consume one send, the
    # first in (rank, clock) order keeps it.  Marks the consumed sends
    # (``to_rank``/``at_clock``) and completed posts (``done``) and returns
    # the kept completions with their send's row (``send_idx``).
    def _reference_maps(self, sends: dict, posts: dict,
                        comps: dict) -> dict:
        send_found, send_idx = _lookup(
            sends["key"], _keys(comps["peer"], comps["src_clock"]))
        post_found, post_idx = _lookup(
            posts["key"], _keys(comps["rank"], comps["post_clock"]))
        ok = send_found & post_found
        ok_rows = np.flatnonzero(ok)
        _, first = np.unique(send_idx[ok_rows], return_index=True)
        dup = ok.copy()
        dup[ok_rows[first]] = False
        # 0 kept, 1 dangling send, 2 dangling post, 3 double consume
        code = np.where(~send_found, 1, np.where(~post_found, 2,
                                                 np.where(dup, 3, 0)))
        bad = np.flatnonzero(code)
        if len(bad):
            _, first = np.unique(code[bad] * _RANK_SLOTS
                                 + comps["rank"][bad], return_index=True)
            for i in np.sort(bad[first]).tolist():
                self._dangling(comps, i, int(code[i]))
            kept = code == 0
            comps = {k: v[kept] for k, v in comps.items()}
            send_idx, post_idx = send_idx[kept], post_idx[kept]
        else:
            # a clean stream keeps every column as it is: no copy, and no
            # freed table whose return to the OS would depend on the heap
            comps = dict(comps)
        comps["send_idx"] = send_idx
        sends["to_rank"][send_idx] = comps["rank"]
        sends["at_clock"][send_idx] = comps["clock"]
        posts["done"][post_idx] = True
        return comps

    def _dangling(self, comps: dict, i: int, code: int) -> None:
        r = int(comps["rank"][i])
        clock = int(comps["clock"][i])
        src = int(comps["peer"][i])
        src_clock = int(comps["src_clock"][i])
        node = self._node_of(r)
        if code == 1:
            self._malformed(("dangling-send", r),
                            f"rank {r} completion at clock {clock} "
                            f"references unknown send "
                            f"(rank {src}, clock {src_clock})", node)
        elif code == 2:
            self._malformed(("dangling-post", r),
                            f"rank {r} completion at clock {clock} "
                            f"references unknown receive post "
                            f"clock {int(comps['post_clock'][i])}", node)
        else:
            self._malformed(("double-consume", r),
                            f"send (rank {src}, clock {src_clock}) "
                            "is consumed by two completions", node)

    # -- CM005 -----------------------------------------------------------

    def _check_skew(self, sends: dict, comps: dict) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        names = sorted(self._node_hz)
        hz = np.array([self._node_hz[n] for n in names])
        node_ix = np.full(_RANK_SLOTS, -1, dtype=np.int64)
        for r, st in self._ranks.items():
            node_ix[r] = names.index(st.node)
        recv_node = node_ix[comps["rank"]]
        send_node = node_ix[comps["peer"]]
        t_recv = comps["tsc"] / hz[recv_node]
        t_send = sends["tsc"][comps["send_idx"]] / hz[send_node]
        skew = t_send - t_recv
        # same clock domain: skew impossible
        late = (recv_node != send_node) & (skew > self.skew_tolerance_s)
        for k in np.unique(recv_node[late]).tolist():
            rows = np.flatnonzero(late & (recv_node == k))
            i = int(rows[np.argmax(skew[rows])])
            n = len(rows)
            s = float(skew[i])
            r, src = int(comps["rank"][i]), int(comps["peer"][i])
            node = names[k]
            more = f" (+{n - 1} more)" if n > 1 else ""
            out.append(self._diag(
                "CM005",
                f"receive on rank {r} completes {s * 1e6:.1f} us before "
                f"its matching send on rank {src} was posted; inter-node "
                f"TSC skew between {self._node_of(src)!r} and {node!r} is "
                f"at least {s * 1e6:.1f} us, beyond the "
                f"{self.skew_tolerance_s * 1e6:.0f} us clock-error "
                f"tolerance{more}",
                node=node, location=f"clock[{int(comps['clock'][i])}]"))
        return out

    # -- vector clocks ---------------------------------------------------

    def _build_join_rows(self, comps: dict):
        """Fold completions into per-rank join rows, one ready run at a
        time, in worklist order.

        Returns ``(index_of, clocks, rows)`` where ``clocks[i]`` is the
        sorted completion clocks of dense rank i and ``rows[i][j]`` the
        full vector clock at that completion (``rows[i]`` is a view into
        the one row matrix).  ``None`` when no wildcard completions exist
        — every downstream consumer of happens-before is race detection,
        so the (possibly large) fold is skipped.
        """
        if not (comps["flags"] & FLAG_WILD_SOURCE).any():
            return None
        order = list(self._ranks)
        index_of = {r: i for i, r in enumerate(order)}
        n = len(order)
        m = len(comps["clock"])
        dense = np.zeros(_RANK_SLOTS, dtype=np.int64)
        dense[order] = np.arange(n)
        bounds = self._rank_bounds(comps, order)
        first = np.zeros(_RANK_SLOTS, dtype=np.int64)
        first[order] = [lo for lo, _ in bounds]
        # Every completion's row lives in one matrix, in the (rank, clock)
        # order of comps; row m stays zero and stands for "no base row".
        # A rank's rows are a view into it.  int32 holds every entry:
        # clocks are int32 and src_clock is below PAIR_LIMIT.
        matrix = np.zeros((m + 1, n), dtype=np.int32)
        flat = matrix.reshape(-1)
        clock = comps["clock"]
        src = dense[comps["peer"]]
        src_clock = comps["src_clock"]
        # the sender's row at src_clock: its last completion at or before
        # src_clock, one searchsorted over the (rank, clock) keys of all
        # completions.  No such row, or a row of the completion's own rank,
        # reads the zero row: a rank's rows never decrease, so its previous
        # row already dominates any own row the base could name (and an own
        # row not yet folded is zero).
        base = np.searchsorted(_keys(comps["rank"], clock),
                               _keys(comps["peer"], src_clock),
                               side="right") - 1
        base[(base < first[comps["peer"]])
             | (comps["peer"] == comps["rank"])] = m
        # flat index of each completion's sender column
        lift = np.arange(m, dtype=np.int64) * n + src
        # the frontier scan reads sender dense indices as a plain int list
        # (small ints, so only the list is new memory) and clocks and
        # sender clocks through memoryviews (bisect-friendly too): a list
        # of clocks would hold one int object per completion, new memory
        # the freed heap cannot serve, which would raise the peak
        clocks = [memoryview(clock[lo:hi]) for lo, hi in bounds]
        srcs = [src[lo:hi].tolist() for lo, hi in bounds]
        src_clocks = [memoryview(src_clock[lo:hi]) for lo, hi in bounds]
        counts = [hi - lo for lo, hi in bounds]
        rows = [matrix[lo:hi] for lo, hi in bounds]
        zero = matrix[m]
        frontier = [0] * n
        # nxt[s]: clock of rank s's first unfolded completion (inf: none).
        # A completion waits while its sender's nxt is at or before
        # src_clock: the sender's row at src_clock is not known yet.
        inf = float("inf")
        nxt = [c[0] if c else inf for c in clocks]

        # waits[i]: the rank that rank i's first unfolded completion waits
        # on (-1: none).  Each sweep visits a rank after the rank it waits
        # on, so a chain of waiting ranks advances in one sweep and its
        # runs stay long whichever way the messages flow.  Traffic settles
        # into a few wait patterns (a ring into one, a halo exchange into
        # two), so each pattern's visit order is worked out once; at most
        # n orders are kept.
        waits = [-1] * n
        visit = range(n)
        orders = {}
        progress = True
        while progress:
            progress = False
            for i in visit:
                lo = bounds[i][0]
                f0 = fi = frontier[i]
                cnt = counts[i]
                my_srcs = srcs[i]
                my_src_clocks = src_clocks[i]
                nxt[i] = inf    # a rank never waits on itself
                while fi < cnt and my_src_clocks[fi] < nxt[my_srcs[fi]]:
                    fi += 1
                if fi < cnt:
                    nxt[i], waits[i] = clocks[i][fi], my_srcs[fi]
                else:
                    nxt[i], waits[i] = inf, -1
                if fi == f0:
                    continue
                my_rows = rows[i]
                if fi - f0 < _BULK_RUN:
                    # a short run folds row by row: the max of the previous
                    # row and the base row, the sender's column lifted to
                    # src_clock, then the own column
                    my_clocks = clocks[i]
                    prev = my_rows[f0 - 1] if f0 else zero
                    for f in range(f0, fi):
                        vc = my_rows[f]
                        np.maximum(prev, matrix[base.item(lo + f)], out=vc)
                        si, sc = my_srcs[f], my_src_clocks[f]
                        if sc > vc.item(si):
                            vc[si] = sc
                        vc[i] = my_clocks[f]
                        prev = vc
                else:
                    # the same fold over the whole run: gather the base
                    # rows, lift each sender's column to src_clock, take the
                    # prefix max down the run from the rank's previous row,
                    # then set the own column.  A base row's sender column
                    # is the sender's clock at that row, at most src_clock,
                    # so the lift is a plain store.
                    a, b = lo + f0, lo + fi
                    matrix.take(base[a:b], axis=0, out=my_rows[f0:fi])
                    flat[lift[a:b]] = src_clock[a:b]
                    span = my_rows[f0 - 1 if f0 else f0:fi]
                    np.maximum.accumulate(span, axis=0, out=span)
                    my_rows[f0:fi, i] = clock[a:b]
                frontier[i] = fi
                progress = True
            key = tuple(waits)
            visit = orders.get(key)
            if visit is None:
                if len(orders) >= n:
                    orders.clear()
                visit = orders[key] = self._after_waited(waits)
        # completions past a stalled frontier were never folded: drop
        # their clocks/rows so happens_before cannot bisect to a zero row
        for i in range(n):
            clocks[i] = clocks[i][:frontier[i]]
            rows[i] = rows[i][:frontier[i]]
        stalled = [order[i] for i in range(n)
                   if frontier[i] < counts[i]]
        if stalled:
            r = stalled[0]
            self._malformed(
                ("clock-cycle",),
                f"clock-reference cycle: completions on rank(s) "
                f"{stalled} reference each other's futures and cannot be "
                "ordered; causal verdicts for them are skipped",
                self._ranks[r].node)
        return index_of, clocks, rows

    @staticmethod
    def _after_waited(waits: list[int]) -> list[int]:
        """Every rank once, each after the rank it waits on (``waits[i]``,
        -1: none).  A waiting cycle is cut where its walk began."""
        seen = [False] * len(waits)
        visit = []
        for start in range(len(waits)):
            chain = []
            i = start
            while i >= 0 and not seen[i]:
                seen[i] = True
                chain.append(i)
                i = waits[i]
            visit += reversed(chain)
        return visit

    @staticmethod
    def _happens_before(vcs, a: int, ca: int, b: int, cb: int) -> bool:
        """(rank a, clock ca) happens-before-or-equals (rank b, clock cb)."""
        index_of, clocks, rows = vcs
        if a == b:
            return ca <= cb
        i, j = index_of[a], index_of[b]
        k = bisect_right(clocks[j], cb) - 1
        return k >= 0 and rows[j][k][i] >= ca

    # -- CM001 -----------------------------------------------------------

    def _inbox(self, sends: dict, wild_dests: np.ndarray) -> dict:
        """Sends addressed to each wildcard-receiving rank, grouped by
        sender: ``inbox[dest][sender] = (clock, tag, delivered_at)``
        columns, delivered_at -1 when the send never reached *dest*.

        Each group is ordered for the retirement sweep — never-delivered
        sends first (clock order), then delivered ones by descending
        delivery clock, so the next send to retire is always last.
        """
        is_dest = np.zeros(_RANK_SLOTS, dtype=bool)
        is_dest[wild_dests] = True
        dest = sends["peer"]
        sel = np.flatnonzero((dest >= 0) & (dest < _RANK_SLOTS)
                             & is_dest[np.clip(dest, 0, MAX_RANK)])
        if not len(sel):
            return {}
        dest = dest[sel]
        cr = np.where(sends["to_rank"][sel] == dest,
                      sends["at_clock"][sel], -1)
        order = np.lexsort((sends["clock"][sel], -cr, cr >= 0,
                            sends["rank"][sel], dest))
        dest, cr, sel = dest[order], cr[order], sel[order]
        q = sends["rank"][sel]
        cq, tag = sends["clock"][sel], sends["tag"][sel]
        cuts = np.flatnonzero((np.diff(dest) != 0) | (np.diff(q) != 0)) + 1
        inbox: dict[int, dict[int, tuple]] = {}
        for lo, hi in zip([0, *cuts.tolist()], [*cuts.tolist(), len(sel)]):
            inbox.setdefault(int(dest[lo]), {})[int(q[lo])] = (
                cq[lo:hi], tag[lo:hi], cr[lo:hi])
        return inbox

    def _check_races(self, sends: dict, comps: dict,
                     vcs) -> list[Diagnostic]:
        if vcs is None:
            return []
        out: list[Diagnostic] = []
        hb = self._happens_before
        per_rank: dict[int, tuple[int, str]] = {}
        wild_rows = np.flatnonzero(comps["flags"] & FLAG_WILD_SOURCE)
        # Grouping by sender matters: every candidate from the *matched*
        # sender is program-ordered against the matched send (same-rank
        # order is total), so whole groups are skipped instead of scanned
        # — and a group is only turned into Python tuples when scanned.
        inbox = self._inbox(sends, np.unique(comps["rank"][wild_rows]))
        for r in self._ranks:
            groups = inbox.get(r)
            mine = wild_rows[comps["rank"][wild_rows] == r]
            if not groups or not len(mine):
                continue
            # Sweep the wildcard completions in receive-post order and
            # *retire* each delivered candidate once the post clock moves
            # past its delivery: a retired send can never race a later
            # post.  Per completion the scan is then the in-flight depth,
            # not the whole trace — race-free 1M-event streams stay
            # linear instead of O(completions x sends).
            mine = mine[np.argsort(comps["post_clock"][mine], kind="stable")]
            scanned: dict[int, list] = {}
            for clock, post_clock, src, src_clock, tag, flags in zip(
                    *(comps[k][mine].tolist() for k in (
                        "clock", "post_clock", "peer", "src_clock", "tag",
                        "flags"))):
                racer = None
                for q in groups:
                    if q == src:
                        continue    # ordered against the matched send
                    g = scanned.get(q)
                    if g is None:
                        cq, qtag, cr = groups[q]
                        g = scanned[q] = [
                            (c, t, d if d >= 0 else None) for c, t, d in
                            zip(cq.tolist(), qtag.tolist(), cr.tolist())]
                    while g and g[-1][2] is not None \
                            and g[-1][2] < post_clock:
                        g.pop()     # delivered before the post
                    for cq, qtag, cr in g:
                        if not flags & FLAG_WILD_TAG and qtag != tag:
                            continue
                        if hb(vcs, q, cq, src, src_clock) \
                                or hb(vcs, src, src_clock, q, cq):
                            continue    # ordered against the matched send
                        if hb(vcs, r, clock, q, cq):
                            continue    # causally after this completion
                        racer = (q, cq)
                        break
                    if racer is not None:
                        break
                if racer is not None:
                    n, first = per_rank.get(r, (0, ""))
                    if n == 0:
                        q, cq = racer
                        tag_txt = ("any tag" if flags & FLAG_WILD_TAG
                                   else f"tag {tag}")
                        first = (
                            f"wildcard receive on rank {r} ({tag_txt}) "
                            f"matched the send from rank {src} but the "
                            f"concurrent send from rank {q} (clock {cq}) "
                            "could equally have matched; the schedule is "
                            "timing-dependent")
                    per_rank[r] = (n + 1, first)
        for r in sorted(per_rank):
            n, first = per_rank[r]
            more = f" (+{n - 1} more)" if n > 1 else ""
            out.append(self._diag("CM001", first + more,
                                  node=self._node_of(r),
                                  location=f"rank[{r}]"))
        return out

    # -- CM003 -----------------------------------------------------------

    def _check_collectives(self, colls: dict) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        enters: dict[int, list[tuple[int, int, int]]] = {}
        bounds = self._rank_bounds(colls, list(self._ranks))
        for (r, st), (lo, hi) in zip(self._ranks.items(), bounds):
            seq: list[tuple[int, int, int]] = []
            stack: list[tuple[int, int, int]] = []
            for kind, op, root, tag in zip(
                    *(colls[k][lo:hi].tolist()
                      for k in ("kind", "op", "peer", "tag"))):
                if kind == REC_COLL_ENTER:
                    seq.append((op, root, tag))
                    stack.append((op, root, tag))
                elif not stack or stack[-1] != (op, root, tag):
                    self._malformed(
                        ("coll-nesting", r),
                        f"rank {r}: COLL_EXIT "
                        f"{OP_NAMES.get(op, op)} does not match the "
                        "innermost COLL_ENTER", st.node)
                else:
                    stack.pop()
            enters[r] = seq
        if len(enters) < 2:
            return out
        ranks = sorted(enters)
        ref_rank = ranks[0]
        ref = enters[ref_rank]
        for r in ranks[1:]:
            seq = enters[r]
            for i, (a, b) in enumerate(zip(ref, seq)):
                if a != b:
                    out.append(self._diag(
                        "CM003",
                        f"collective #{i}: rank {ref_rank} entered "
                        f"{self._coll_txt(a)} but rank {r} entered "
                        f"{self._coll_txt(b)}",
                        node=self._node_of(r), location=f"rank[{r}]"))
                    break
            else:
                if len(seq) != len(ref):
                    out.append(self._diag(
                        "CM003",
                        f"rank {ref_rank} entered {len(ref)} "
                        f"collective(s) but rank {r} entered {len(seq)}",
                        node=self._node_of(r), location=f"rank[{r}]"))
        return out

    @staticmethod
    def _coll_txt(triple: tuple[int, int, int]) -> str:
        op, root, tag = triple
        name = OP_NAMES.get(op, f"op{op}")
        root_txt = f" root={root}" if root >= 0 else ""
        return f"{name}{root_txt} (tag base {tag})"

    # -- CM004 -----------------------------------------------------------

    @staticmethod
    def _first_per_rank(table: dict, sel: np.ndarray) -> dict:
        """``rank -> (first selected row, selected count)``."""
        rows = np.flatnonzero(sel)
        ranks, first, n = np.unique(table["rank"][rows], return_index=True,
                                    return_counts=True)
        return dict(zip(ranks.tolist(),
                        zip(rows[first].tolist(), n.tolist())))

    def _check_unmatched(self, sends: dict,
                         posts: dict) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        loose_sends = self._first_per_rank(sends, sends["to_rank"] < 0)
        loose_posts = self._first_per_rank(posts, ~posts["done"])
        for r, st in self._ranks.items():
            truncated = self._node_truncated.get(st.node, False)
            severity = "warning" if (truncated or self.live) else None
            if r in loose_sends:
                i, n = loose_sends[r]
                more = f" (+{n - 1} more)" if n > 1 else ""
                out.append(self._diag(
                    "CM004",
                    f"send from rank {r} to rank {int(sends['peer'][i])} "
                    f"(tag {int(sends['tag'][i])}, "
                    f"{_bytes_txt(sends['nbytes'][i])}) was never "
                    f"received{more}",
                    node=st.node, location=f"rank[{r}]",
                    severity=severity))
            if r in loose_posts:
                i, n = loose_posts[r]
                peer, tag = int(posts["peer"][i]), int(posts["tag"][i])
                src_txt = "any source" if peer < 0 else f"source {peer}"
                tag_txt = "any tag" if tag < 0 else f"tag {tag}"
                more = f" (+{n - 1} more)" if n > 1 else ""
                out.append(self._diag(
                    "CM004",
                    f"receive posted on rank {r} ({src_txt}, {tag_txt}) "
                    f"never completed{more}",
                    node=st.node, location=f"rank[{r}]",
                    severity=severity))
        return out

    # -- CM002 -----------------------------------------------------------

    def _check_wait_cycles(self, sends: dict,
                           posts: dict) -> list[Diagnostic]:
        # One edge per (rank, peer): a rank's blocked specific-source
        # receives first, then its unmatched rendezvous sends, each in
        # clock order; the first of them names the edge.
        p = np.flatnonzero(~posts["done"] & (posts["peer"] >= 0))
        s = np.flatnonzero((sends["to_rank"] < 0)
                           & (sends["flags"] & FLAG_RENDEZVOUS != 0))
        rank = np.concatenate((posts["rank"][p], sends["rank"][s]))
        peer = np.concatenate((posts["peer"][p], sends["peer"][s]))
        is_send = np.r_[np.zeros(len(p), bool), np.ones(len(s), bool)]
        row = np.concatenate((p, s))
        order = np.lexsort((is_send, rank))
        _, first = np.unique((rank * _RANK_SLOTS + peer + 2)[order],
                             return_index=True)
        edges: dict[int, dict[int, str]] = {}
        for k in order[np.sort(first)].tolist():
            r, v, i = int(rank[k]), int(peer[k]), int(row[k])
            if is_send[k]:
                why = (f"rank {r} blocked in rendezvous send to rank {v} "
                       f"(tag {int(sends['tag'][i])}, "
                       f"{_bytes_txt(sends['nbytes'][i])})")
            else:
                tag = int(posts["tag"][i])
                why = (f"rank {r} blocked receiving from rank {v} "
                       f"(tag {'any' if tag < 0 else tag})")
            edges.setdefault(r, {})[v] = why
        # DFS cycle search over <= n_ranks nodes; ranks with no outgoing
        # edge cannot be on a cycle and are skipped as dead ends
        GREY, BLACK = 1, 2
        state: dict[int, int] = {}
        cycle: list[int] = []

        def visit(u: int, stack: list[int]) -> bool:
            state[u] = GREY
            stack.append(u)
            for v in edges[u]:
                if v not in edges:
                    continue
                s = state.get(v)
                if s == GREY:
                    cycle.extend(stack[stack.index(v):] + [v])
                    return True
                if s is None and visit(v, stack):
                    return True
            stack.pop()
            state[u] = BLACK
            return False

        for r in sorted(edges):
            if r not in state and visit(r, []):
                break
        if not cycle:
            return []
        waits = " -> ".join(str(r) for r in cycle)
        detail = "; ".join(edges[u][v]
                           for u, v in zip(cycle, cycle[1:]))
        severity = "warning" if self.live else None
        return [self._diag(
            "CM002",
            f"wait-for cycle among ranks {waits}: {detail}",
            node=self._node_of(cycle[0]), severity=severity)]


# ----------------------------------------------------------------------
# Streaming driver over trace directories


def causal_check_bundle(path, *, label: str = "",
                        chunk_records: int = STREAM_CHUNK_RECORDS,
                        skew_tolerance_s: Optional[float] = None
                        ) -> list[Diagnostic]:
    """Run the communication sanitizer over a trace directory.

    Each node's record file streams through the analyzer in bounded
    chunks; traces without comm records yield ``[]``.  On a live
    directory (a spool still being written) the analyzer runs in live
    mode: finalize-dependent findings (CM002/CM004) downgrade to
    warnings because the matching tail may not have been written yet.
    A malformed header, or a closed node's record file that is torn or
    does not hold the declared count, raises
    :class:`~repro.util.errors.TraceError`
    (:meth:`~repro.core.trace.NodeHeader.iter_chunks`): the survivors of
    a lost tail look like ranks that stopped early, and every verdict
    on them would be made up.
    """
    path = Path(path)
    header = read_trace_header(path)
    analyzer = CausalAnalyzer(path=label or str(path),
                              live=not header.closed,
                              skew_tolerance_s=skew_tolerance_s)
    for node in header.nodes.values():
        analyzer.add_node(node.name, node.tsc_hz, truncated=node.truncated)
        for chunk in node.iter_chunks(chunk_records):
            analyzer.consume(node.name, chunk)
    return analyzer.finalize()
