"""Reference communication sanitizer for the differential tests.

A tuple-per-event implementation of :class:`repro.check.causal.
CausalAnalyzer`: ``consume`` keeps every comm event as a Python tuple
in per-rank dicts and lists, and each finalize pass walks those tuples
one at a time.  It is the specification the columnar analyzer is
checked against (``tests/check/test_causal_differential.py``) and is
never used at runtime.

It predates the completion-pairing check: a completion ``value`` that
is not a finite packed pair in ``(0, PAIR_LIMIT)`` is outside its
domain (NaN raises), so the differential generator never emits one.
Finalize visits ranks in ascending rank order, as the runtime does.
"""

from __future__ import annotations

import gc
from bisect import bisect_right
from typing import Optional

import numpy as np

from repro.check.diagnostics import Diagnostic
from repro.core.commrec import (
    FLAG_COMPLETE,
    FLAG_RENDEZVOUS,
    FLAG_WILD_SOURCE,
    FLAG_WILD_TAG,
    OP_NAMES,
    PAIR_LIMIT,
    decode_comm_addrs,
    unpack_recv_value,
)
from repro.core.trace import (
    REC_COLL_ENTER,
    REC_COLL_EXIT,
    REC_MSG_RECV,
    REC_MSG_SEND,
)
from repro.util.errors import ConfigError


class _RankState:
    """Everything the analyzer retains about one rank's comm stream."""

    __slots__ = ("rank", "node", "last_clock", "sends", "posts",
                 "completions", "colls", "n_events")

    def __init__(self, rank: int, node: str):
        self.rank = rank
        self.node = node
        self.last_clock = 0
        #: clock -> (peer, tag, flags, nbytes, tsc)
        self.sends: dict[int, tuple] = {}
        #: clock -> (peer, tag, flags)
        self.posts: dict[int, tuple] = {}
        #: (clock, post_clock, src_rank, src_clock, tag, flags, tsc),
        #: in clock order
        self.completions: list[tuple] = []
        #: (kind, op, root, tag) in stream order
        self.colls: list[tuple] = []
        self.n_events = 0


class CausalOracle:
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
        self.skew_tolerance_s = (self.SKEW_TOLERANCE_S
                                 if skew_tolerance_s is None
                                 else float(skew_tolerance_s))
        self.n_comm_events = 0
        self._ranks: dict[int, _RankState] = {}
        self._node_hz: dict[str, float] = {}
        self._node_truncated: dict[str, bool] = {}
        self._stream_diags: list[Diagnostic] = []
        self._malformed_hits: dict[tuple, int] = {}
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
        """Fold one chunk of *node*'s record stream (comm kinds only)."""
        if node not in self._node_hz:
            raise ConfigError(f"consume() for undeclared node {node!r}; "
                              "call add_node first")
        kinds = arr["kind"]
        mask = (kinds >= REC_MSG_SEND) & (kinds <= REC_COLL_EXIT)
        if not mask.any():
            return
        sub = arr[mask]
        dec = decode_comm_addrs(sub["addr"])
        self.n_comm_events += len(sub)
        rank_col = dec["rank"]
        for rank in np.unique(rank_col).tolist():
            sel = rank_col == rank
            self._consume_rank(node, rank, sub[sel],
                               {k: v[sel] for k, v in dec.items()})

    def _consume_rank(self, node: str, rank: int, sub: np.ndarray,
                      dec: dict[str, np.ndarray]) -> None:
        """Fold one rank's slice of a chunk, vectorized when well-formed.

        The fast path requires the slice to already satisfy the stream
        invariants (one node per rank, strictly advancing clocks,
        non-negative completion pairings); any violation drops to the
        per-row loop, which re-checks every row and emits the CM006
        malformed-stream diagnostics.
        """
        st = self._ranks.get(rank)
        if st is None:
            st = self._ranks[rank] = _RankState(rank, node)
        clocks = sub["core"]
        kind = sub["kind"]
        flags = dec["flags"]
        comp = (kind == REC_MSG_RECV) & (flags & FLAG_COMPLETE != 0)
        fast = (st.node == node
                and int(clocks[0]) > st.last_clock
                and bool(np.all(clocks[1:] > clocks[:-1]))
                and (not comp.any()
                     or bool(np.all(sub["value"][comp] >= 1.0))))
        if not fast:
            self._consume_rows(node, sub, dec)
            return
        st.last_clock = int(clocks[-1])
        st.n_events += len(sub)
        sends = kind == REC_MSG_SEND
        if sends.any():
            st.sends.update(zip(
                clocks[sends].tolist(),
                zip(dec["peer"][sends].tolist(), dec["tag"][sends].tolist(),
                    flags[sends].tolist(), sub["value"][sends].tolist(),
                    sub["tsc"][sends].tolist())))
        posts = (kind == REC_MSG_RECV) & ~comp
        if posts.any():
            st.posts.update(zip(
                clocks[posts].tolist(),
                zip(dec["peer"][posts].tolist(), dec["tag"][posts].tolist(),
                    flags[posts].tolist())))
        if comp.any():
            packed = sub["value"][comp].astype(np.int64)
            st.completions.extend(zip(
                clocks[comp].tolist(), (packed // PAIR_LIMIT).tolist(),
                dec["peer"][comp].tolist(), (packed % PAIR_LIMIT).tolist(),
                dec["tag"][comp].tolist(), flags[comp].tolist(),
                sub["tsc"][comp].tolist()))
        colls = kind > REC_MSG_RECV
        if colls.any():
            st.colls.extend(zip(
                kind[colls].tolist(),
                sub["value"][colls].astype(np.int64).tolist(),
                dec["peer"][colls].tolist(), dec["tag"][colls].tolist()))

    def _consume_rows(self, node: str, sub: np.ndarray,
                      dec: dict[str, np.ndarray]) -> None:
        rows = zip(sub["kind"].tolist(), dec["rank"].tolist(),
                   dec["peer"].tolist(), dec["tag"].tolist(),
                   dec["flags"].tolist(), sub["core"].tolist(),
                   sub["value"].tolist(), sub["tsc"].tolist())
        ranks = self._ranks
        for kind, rank, peer, tag, flags, clock, value, tsc in rows:
            st = ranks.get(rank)
            if st is None:
                st = ranks[rank] = _RankState(rank, node)
            elif st.node != node:
                self._malformed(("split-rank", rank),
                                f"rank {rank} appears on nodes "
                                f"{st.node!r} and {node!r}", node)
                continue
            if clock <= st.last_clock:
                self._malformed(("clock", rank),
                                f"rank {rank} clock {clock} does not "
                                f"advance past {st.last_clock} (duplicate "
                                "or reordered record)", node)
                continue
            st.last_clock = clock
            st.n_events += 1
            if kind == REC_MSG_SEND:
                st.sends[clock] = (peer, tag, flags, value, tsc)
            elif kind == REC_MSG_RECV:
                if flags & FLAG_COMPLETE:
                    post_clock, send_clock = unpack_recv_value(value)
                    st.completions.append(
                        (clock, post_clock, peer, send_clock, tag, flags,
                         tsc))
                else:
                    st.posts[clock] = (peer, tag, flags)
            else:   # COLL_ENTER / COLL_EXIT
                st.colls.append((kind, int(value), peer, tag))

    def _malformed(self, key: tuple, detail: str, node: str) -> None:
        n = self._malformed_hits.get(key, 0)
        self._malformed_hits[key] = n + 1
        if n == 0:
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
        # The retained state is acyclic (dicts/tuples/ints/ndarrays), so
        # the cycle collector can reclaim nothing here — but with millions
        # of tracked tuples at 1M-event scale its periodic full scans
        # dominate the analysis.  Pause it for the duration.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            consumed = self._reference_maps()
            diags: list[Diagnostic] = []
            diags.extend(self._check_skew())
            vcs = self._build_join_rows(consumed)
            diags.extend(self._check_races(consumed, vcs))
            diags.extend(self._check_collectives())
            diags.extend(self._check_unmatched(consumed))
            diags.extend(self._check_wait_cycles(consumed))
        finally:
            if gc_was_enabled:
                gc.enable()
        # stream-coherence findings (CM006) accumulate in _stream_diags
        # through every pass above; surface them first so a reader sees
        # "the stream itself is suspect" before the causal verdicts.
        return self._stream_diags + diags

    # The per-rank maps everything downstream shares: which sends were
    # consumed by a completion (and at what receiver clock), keyed
    # ``consumed[sender][send_clock] -> (receiver, receiver_clock)``, and
    # which receive posts completed.  Dangling references become CM006 and
    # the offending completions are dropped from causal reasoning.
    def _reference_maps(self) -> dict[int, dict[int, tuple[int, int]]]:
        consumed: dict[int, dict[int, tuple[int, int]]] = {}
        for r, st in self._ranks.items():
            kept = []
            for comp in st.completions:
                clock, post_clock, src, src_clock, tag, flags, tsc = comp
                src_st = self._ranks.get(src)
                if src_st is None or src_clock not in src_st.sends:
                    self._malformed(("dangling-send", r),
                                    f"rank {r} completion at clock {clock} "
                                    f"references unknown send "
                                    f"(rank {src}, clock {src_clock})",
                                    st.node)
                    continue
                if post_clock not in st.posts:
                    self._malformed(("dangling-post", r),
                                    f"rank {r} completion at clock {clock} "
                                    f"references unknown receive post "
                                    f"clock {post_clock}", st.node)
                    continue
                per_sender = consumed.setdefault(src, {})
                if src_clock in per_sender:
                    self._malformed(("double-consume", r),
                                    f"send (rank {src}, clock {src_clock}) "
                                    "is consumed by two completions",
                                    st.node)
                    continue
                per_sender[src_clock] = (r, clock)
                kept.append(comp)
            st.completions = kept
        return consumed

    # -- CM005 -----------------------------------------------------------

    def _check_skew(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        worst: dict[str, tuple[float, int, int, int]] = {}
        counts: dict[str, int] = {}
        for r, st in self._ranks.items():
            hz_r = self._node_hz[st.node]
            for clock, post_clock, src, src_clock, tag, flags, tsc in \
                    st.completions:
                src_st = self._ranks[src]
                if src_st.node == st.node:
                    continue    # same clock domain: skew impossible
                hz_s = self._node_hz[src_st.node]
                t_recv = tsc / hz_r
                t_send = src_st.sends[src_clock][4] / hz_s
                skew = t_send - t_recv
                if skew > self.skew_tolerance_s:
                    counts[st.node] = counts.get(st.node, 0) + 1
                    prev = worst.get(st.node)
                    if prev is None or skew > prev[0]:
                        worst[st.node] = (skew, r, src, clock)
        for node, (skew, r, src, clock) in sorted(worst.items()):
            n = counts[node]
            more = f" (+{n - 1} more)" if n > 1 else ""
            out.append(self._diag(
                "CM005",
                f"receive on rank {r} completes {skew * 1e6:.1f} us before "
                f"its matching send on rank {src} was posted; inter-node "
                f"TSC skew between {self._node_of(src)!r} and {node!r} is "
                f"at least {skew * 1e6:.1f} us, beyond the "
                f"{self.skew_tolerance_s * 1e6:.0f} us clock-error "
                f"tolerance{more}",
                node=node, location=f"clock[{clock}]"))
        return out

    # -- vector clocks ---------------------------------------------------

    def _build_join_rows(self, consumed):
        """Fold completions into per-rank join rows, worklist order.

        Returns ``(index_of, clocks, rows)`` where ``clocks[i]`` is the
        sorted completion clocks of dense rank i and ``rows[i][j]`` the
        full vector clock at that completion.  ``None`` when no wildcard
        completions exist — every downstream consumer of happens-before
        is race detection, so the (possibly large) fold is skipped.
        """
        if not any(flags & FLAG_WILD_SOURCE
                   for st in self._ranks.values()
                   for (_, _, _, _, _, flags, _) in st.completions):
            return None
        order = sorted(self._ranks)
        index_of = {r: i for i, r in enumerate(order)}
        n = len(order)
        comps_by = [self._ranks[r].completions for r in order]
        counts = [len(c) for c in comps_by]
        # clocks as plain int lists (bisect-friendly), rows as one dense
        # int64 matrix per rank: a row is written in place with
        # np.maximum, so the fold allocates nothing per completion —
        # per-row Python lists fall over at ~1M events (GC tracking plus
        # pointer-chasing through scattered int objects)
        clocks = [[c[0] for c in comps] for comps in comps_by]
        rows = [np.zeros((cnt, n), dtype=np.int64) for cnt in counts]
        frontier = [0] * n
        zeros = np.zeros(n, dtype=np.int64)

        progress = True
        while progress:
            progress = False
            for i in range(n):
                comps = comps_by[i]
                cnt = counts[i]
                my_rows = rows[i]
                fi = frontier[i]
                while fi < cnt:
                    comp = comps[fi]
                    clock, src, src_clock = comp[0], comp[2], comp[3]
                    si = index_of[src]
                    # the sender's VC at src_clock is known once every
                    # sender completion at or before src_clock is folded
                    fsi = frontier[si]
                    if si != i and fsi < counts[si] \
                            and comps_by[si][fsi][0] <= src_clock:
                        break
                    # fused max(prev row, sender row at src_clock) with the
                    # sender's own component lifted to src_clock
                    prev = my_rows[fi - 1] if fi else zeros
                    j = bisect_right(clocks[si], src_clock) - 1
                    base = rows[si][j] if j >= 0 else zeros
                    vc = my_rows[fi]
                    np.maximum(prev, base, out=vc)
                    if src_clock > vc[si]:
                        vc[si] = src_clock
                    vc[i] = clock
                    fi += 1
                    progress = True
                frontier[i] = fi
        # completions past a stalled frontier were never folded: drop
        # their clocks/rows so happens_before cannot bisect to a zero row
        for i in range(n):
            if frontier[i] < counts[i]:
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
    def _happens_before(vcs, a: int, ca: int, b: int, cb: int) -> bool:
        """(rank a, clock ca) happens-before-or-equals (rank b, clock cb)."""
        index_of, clocks, rows = vcs
        if a == b:
            return ca <= cb
        i, j = index_of[a], index_of[b]
        k = bisect_right(clocks[j], cb) - 1
        return k >= 0 and rows[j][k][i] >= ca

    # -- CM001 -----------------------------------------------------------

    def _check_races(self, consumed, vcs) -> list[Diagnostic]:
        if vcs is None:
            return []
        out: list[Diagnostic] = []
        hb = self._happens_before
        per_rank: dict[int, tuple[int, str]] = {}
        # Sends addressed to each rank, grouped by sender and annotated
        # with the receiver-side clock at which the send was delivered
        # (None if never delivered to that rank).  Grouping matters: every
        # candidate from the *matched* sender is program-ordered against
        # the matched send (same-rank order is total), so whole groups are
        # skipped instead of scanned.
        wild_dests = {r for r, st in self._ranks.items()
                      if any(comp[5] & FLAG_WILD_SOURCE
                             for comp in st.completions)}
        inbox: dict[int, dict[int, list[tuple]]] = {}
        for q, st in self._ranks.items():
            delivered = consumed.get(q, {})
            for cq, (dest, tag, flags, nbytes, tsc) in st.sends.items():
                if dest not in wild_dests:
                    continue
                used = delivered.get(cq)
                cr = used[1] if used is not None and used[0] == dest \
                    else None
                inbox.setdefault(dest, {}).setdefault(q, []).append(
                    (cq, tag, cr))
        for r, st in self._ranks.items():
            groups = inbox.get(r)
            wild = [comp for comp in st.completions
                    if comp[5] & FLAG_WILD_SOURCE]
            if not groups or not wild:
                continue
            # Sweep the wildcard completions in receive-post order and
            # *retire* each delivered candidate once the post clock moves
            # past its delivery: a retired send can never race a later
            # post.  Per completion the scan is then the in-flight depth,
            # not the whole trace — race-free 1M-event streams stay
            # linear instead of O(completions x sends).
            wild.sort(key=lambda comp: comp[1])
            # never-delivered candidates first, then delivered ones by
            # descending delivery clock: the next send to retire is
            # always at the end of the list
            for g in groups.values():
                g.sort(key=lambda e: (e[2] is not None, -(e[2] or 0)))
            for clock, post_clock, src, src_clock, tag, flags, tsc in wild:
                racer = None
                for q, g in groups.items():
                    if q == src:
                        continue    # ordered against the matched send
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

    def _check_collectives(self) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        enters: dict[int, list[tuple[int, int, int]]] = {}
        for r, st in self._ranks.items():
            seq: list[tuple[int, int, int]] = []
            stack: list[tuple[int, int, int]] = []
            for kind, op, root, tag in st.colls:
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

    def _check_unmatched(self, consumed) -> list[Diagnostic]:
        out: list[Diagnostic] = []
        for r in sorted(self._ranks):
            st = self._ranks[r]
            truncated = self._node_truncated.get(st.node, False)
            severity = "warning" if (truncated or self.live) else None
            delivered = consumed.get(r, {})
            loose_sends = [(c, s) for c, s in st.sends.items()
                           if c not in delivered]
            done_posts = {pc for (_, pc, *_rest) in st.completions}
            loose_posts = [(c, p) for c, p in st.posts.items()
                           if c not in done_posts]
            if loose_sends:
                c, (dest, tag, flags, nbytes, tsc) = min(loose_sends)
                more = (f" (+{len(loose_sends) - 1} more)"
                        if len(loose_sends) > 1 else "")
                out.append(self._diag(
                    "CM004",
                    f"send from rank {r} to rank {dest} (tag {tag}, "
                    f"{int(nbytes)} bytes) was never received{more}",
                    node=st.node, location=f"rank[{r}]",
                    severity=severity))
            if loose_posts:
                c, (peer, tag, flags) = min(loose_posts)
                src_txt = "any source" if peer < 0 else f"source {peer}"
                tag_txt = "any tag" if tag < 0 else f"tag {tag}"
                more = (f" (+{len(loose_posts) - 1} more)"
                        if len(loose_posts) > 1 else "")
                out.append(self._diag(
                    "CM004",
                    f"receive posted on rank {r} ({src_txt}, {tag_txt}) "
                    f"never completed{more}",
                    node=st.node, location=f"rank[{r}]",
                    severity=severity))
        return out

    # -- CM002 -----------------------------------------------------------

    def _check_wait_cycles(self, consumed) -> list[Diagnostic]:
        edges: dict[int, dict[int, str]] = {}
        for r, st in self._ranks.items():
            done_posts = {pc for (_, pc, *_rest) in st.completions}
            for c, (peer, tag, flags) in st.posts.items():
                if c in done_posts or peer < 0:
                    continue
                edges.setdefault(r, {}).setdefault(
                    peer, f"rank {r} blocked receiving from rank {peer} "
                          f"(tag {'any' if tag < 0 else tag})")
            delivered = consumed.get(r, {})
            for c, (dest, tag, flags, nbytes, tsc) in st.sends.items():
                if c in delivered or not flags & FLAG_RENDEZVOUS:
                    continue
                edges.setdefault(r, {}).setdefault(
                    dest, f"rank {r} blocked in rendezvous send to rank "
                          f"{dest} (tag {tag}, {int(nbytes)} bytes)")
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

