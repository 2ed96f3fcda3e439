"""Differential harness for the communication sanitizer.

A seeded generator builds multi-node comm streams that hit every CM rule:
wildcard receives with 2-4 senders (some racing, some causally ordered
by go-ahead messages), ANY_TAG receives, unmatched rendezvous sends,
wait-for cycles, mismatched and unbalanced collectives, cross-node TSC
skew beyond tolerance, dangling sends and posts, double-consumed sends,
completions of sends addressed to another rank, clock-reference cycles,
and stream defects (duplicate and regressed clocks, a rank split across
nodes).

Two properties are checked over every seed and the chunk sizes 1, 7, 64
and whole:

* the columnar :class:`CausalAnalyzer` returns exactly the
  :class:`CausalOracle`'s diagnostics, in order, from exactly the
  oracle's join rows (the vector clock at every receive completion);
* the diagnostics do not depend on chunking, except for the order of
  CM006 findings, which follows chunk boundaries during ingest.

Hand-built streams then reach each corner of the join-row fold, folded
once with every ready run in bulk and once row by row.

Completion values are always well-formed packed pairs: the oracle has no
pairing check (``test_causal.py`` covers malformed values).
"""

import random
import sys
from collections import Counter

import numpy as np
import pytest

from repro.check import causal
from repro.check.causal import CausalAnalyzer
from repro.core.commrec import (
    FLAG_COMPLETE,
    FLAG_RENDEZVOUS,
    FLAG_WILD_SOURCE,
    FLAG_WILD_TAG,
    NO_PEER,
    OP_NAMES,
    pack_comm_addr,
    pack_recv_value,
)
from repro.core.records import RECORD_DTYPE
from repro.core.trace import (
    REC_COLL_ENTER,
    REC_COLL_EXIT,
    REC_MSG_RECV,
    REC_MSG_SEND,
)

from tests.check.causal_oracle import CausalOracle

SEEDS = range(24)
CHUNKS = (1, 7, 64, None)
NODE_HZ = (2.0e9, 2.4e9, 1.8e9)
TAGS = (3, 5, 9)
GO_TAG = 77
#: node clock offsets (s): within the 1 ms CM005 tolerance, or far past it
OFFSETS = (0.0, 2e-5, -4e-5, -5e-3)
#: a clock no generated rank reaches (streams stay far below it)
FAR_CLOCK = 900_000


class CommStreamGenerator:
    """One seeded multi-node comm stream, built scenario by scenario.

    Every event takes the next tick of a global emission clock, which
    also drives each node's TSC (plus that node's offset), so the node
    streams are in emission order and sends precede their completions
    unless a node's offset says otherwise.
    """

    def __init__(self, seed: int, n_ranks: int = 0, n_nodes: int = 0):
        rng = self.rng = random.Random(seed)
        self.n_ranks = n_ranks or rng.randint(3, 6)
        self.n_nodes = n_nodes or rng.randint(1, 3)
        self.node_of = [rng.randrange(self.n_nodes)
                        for _ in range(self.n_ranks)]
        self.offset = [0.0] + [rng.choice(OFFSETS)
                               for _ in range(self.n_nodes - 1)]
        self.clock = [0] * self.n_ranks
        self.t = 0
        #: [rank, kind, peer, tag, flags, clock, value, t] per event
        self.rows: list[list] = []
        self.coll_tag = 1 << 20

    # -- event emitters ---------------------------------------------------

    def emit(self, rank, kind, peer, tag, flags, value, clock=None):
        self.t += 1
        if clock is None:
            clock = self.clock[rank] + 1 + (self.rng.random() < 0.1)
        self.clock[rank] = max(self.clock[rank], clock)
        self.rows.append([rank, kind, peer, tag, flags, clock, value,
                          self.t])
        return clock

    def send(self, s, d, tag, *, rendezvous=False, clock=None):
        nbytes = self.rng.choice((8.0, 64.0, 4096.0, float(1 << 20)))
        return self.emit(s, REC_MSG_SEND, d, tag,
                         FLAG_RENDEZVOUS if rendezvous else 0, nbytes,
                         clock)

    def post(self, d, src, tag):
        flags = ((FLAG_WILD_SOURCE if src < 0 else 0)
                 | (FLAG_WILD_TAG if tag < 0 else 0))
        return self.emit(d, REC_MSG_RECV, src, tag, flags, 0.0), flags

    def complete(self, d, posted, src, send_clock, tag, clock=None):
        post_clock, flags = posted
        return self.emit(d, REC_MSG_RECV, src, tag, flags | FLAG_COMPLETE,
                         pack_recv_value(post_clock, send_clock), clock)

    def pair(self):
        return self.rng.sample(range(self.n_ranks), 2)

    # -- scenarios --------------------------------------------------------

    def exchange(self):
        """One message; sometimes never received or never completed."""
        rng = self.rng
        s, d = self.pair()
        tag = rng.choice(TAGS)
        src = -1 if rng.random() < 0.3 else s
        ptag = -1 if rng.random() < 0.3 else tag
        fate = rng.random()
        if rng.random() < 0.5:
            cs = self.send(s, d, tag, rendezvous=rng.random() < 0.3)
            if fate < 0.12:
                return
            posted = self.post(d, src, ptag)
        else:
            posted = self.post(d, src, ptag)
            if fate < 0.12:
                return
            cs = self.send(s, d, tag, rendezvous=rng.random() < 0.3)
        if fate < 0.22:
            return
        self.complete(d, posted, s, cs, tag)

    def fanin(self):
        """Wildcard receives from 2-4 senders, racing or go-ahead ordered."""
        rng = self.rng
        d = rng.randrange(self.n_ranks)
        others = [r for r in range(self.n_ranks) if r != d]
        senders = rng.sample(others, min(len(others), rng.randint(2, 4)))
        tag = rng.choice(TAGS)
        any_tag = rng.random() < 0.3
        if rng.random() < 0.4:
            for j, s in enumerate(senders):
                if j:
                    cg = self.send(d, s, GO_TAG)
                    self.complete(s, self.post(s, d, GO_TAG), d, cg, GO_TAG)
                posted = self.post(d, -1, -1 if any_tag else tag)
                self.complete(d, posted, s, self.send(s, d, tag), tag)
            return
        sent = []
        for s in senders:
            stag = tag if rng.random() < 0.8 else rng.choice(TAGS)
            sent.append((s, self.send(s, d, stag), stag))
        rng.shuffle(sent)
        for s, cs, stag in sent[:rng.randint(1, len(sent))]:
            posted = self.post(d, -1, -1 if any_tag else stag)
            self.complete(d, posted, s, cs, stag)

    def deadlock(self):
        """A ring of blocked specific-source receives / rendezvous sends."""
        rng = self.rng
        ring = rng.sample(range(self.n_ranks),
                          rng.randint(2, min(3, self.n_ranks)))
        tag = rng.choice(TAGS)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if rng.random() < 0.5:
                self.post(a, b, tag)
            else:
                self.send(a, b, tag, rendezvous=True)

    def collective(self):
        """A rank-wide collective, sometimes mismatched or unbalanced."""
        rng = self.rng
        op = rng.choice(sorted(OP_NAMES))
        other = rng.choice([o for o in OP_NAMES if o != op])
        root = rng.randrange(self.n_ranks) if rng.random() < 0.5 \
            else NO_PEER
        tag = self.coll_tag
        self.coll_tag += 64
        odd = rng.randrange(self.n_ranks)
        defect = rng.choice(("none", "none", "skip", "op", "exit"))
        for r in range(self.n_ranks):
            if r == odd and defect == "skip":
                continue
            enter_op = other if r == odd and defect == "op" else op
            exit_op = other if r == odd and defect == "exit" else enter_op
            self.emit(r, REC_COLL_ENTER, root, tag, 0, float(enter_op))
            self.emit(r, REC_COLL_EXIT, root, tag, 0, float(exit_op))

    def dangling(self):
        """A completion naming a missing send or post, a send twice, or a
        send addressed to another rank."""
        rng = self.rng
        s, d = self.pair()
        tag = rng.choice(TAGS)
        what = rng.choice(("send", "post", "double", "elsewhere"))
        if what == "send":
            self.complete(d, self.post(d, s, tag), s, FAR_CLOCK, tag)
        elif what == "post":
            cs = self.send(s, d, tag)
            self.complete(d, (FAR_CLOCK, 0), s, cs, tag)
        elif what == "double":
            cs = self.send(s, d, tag)
            self.complete(d, self.post(d, s, tag), s, cs, tag)
            d2 = rng.choice([r for r in range(self.n_ranks) if r != s])
            self.complete(d2, self.post(d2, s, tag), s, cs, tag)
        else:
            cs = self.send(s, d, tag)
            d2 = rng.choice([r for r in range(self.n_ranks)
                             if r not in (s, d)])
            self.complete(d2, self.post(d2, -1, tag), s, cs, tag)

    def clock_cycle(self, pair=None):
        """Two completions that each name the other rank's next send."""
        a, b = pair or self.pair()
        pa, pb = self.post(a, b, GO_TAG), self.post(b, a, GO_TAG)
        ca, cb = self.clock[a], self.clock[b]
        self.complete(a, pa, b, cb + 2, GO_TAG, clock=ca + 1)
        self.complete(b, pb, a, ca + 2, GO_TAG, clock=cb + 1)
        self.send(a, b, GO_TAG, clock=ca + 2)
        self.send(b, a, GO_TAG, clock=cb + 2)

    # -- stream defects ---------------------------------------------------

    def duplicate(self):
        i = self.rng.randrange(len(self.rows))
        self.rows.insert(i + 1, list(self.rows[i]))

    def regress(self):
        i = self.rng.randrange(len(self.rows) // 2, len(self.rows))
        row = list(self.rows[i])
        row[5] = max(1, row[5] - self.rng.randint(1, 5))
        self.rows.insert(i + 1, row)

    # -- assembly ---------------------------------------------------------

    def build(self):
        """A random mix of scenarios and stream defects, as
        :meth:`streams`."""
        rng = self.rng
        scenarios = ([self.exchange] * 4 + [self.fanin] * 3
                     + [self.deadlock, self.collective, self.dangling])
        for _ in range(rng.randint(8, 20)):
            rng.choice(scenarios)()
        if rng.random() < 0.3:
            self.clock_cycle()
        if rng.random() < 0.3:
            self.duplicate()
        if rng.random() < 0.3:
            self.regress()
        node_of_row = [self.node_of[row[0]] for row in self.rows]
        if self.n_nodes > 1 and rng.random() < 0.3:
            # a slice of one rank's events shows up on another node
            r = rng.randrange(self.n_ranks)
            away = (self.node_of[r] + 1) % self.n_nodes
            mine = [i for i, row in enumerate(self.rows) if row[0] == r]
            for i in mine[rng.randrange(len(mine) + 1):]:
                node_of_row[i] = away
        return self.streams(node_of_row)

    def streams(self, node_of_row=None):
        """Per-node record arrays, plus each node's tsc_hz; each event on
        its rank's node unless *node_of_row* says otherwise."""
        if node_of_row is None:
            node_of_row = [self.node_of[row[0]] for row in self.rows]
        streams = {}
        for k in range(self.n_nodes):
            rows = [row for row, n in zip(self.rows, node_of_row) if n == k]
            arr = np.zeros(len(rows), dtype=RECORD_DTYPE)
            for i, (rank, kind, peer, tag, flags, clock, value, t) in \
                    enumerate(rows):
                tsc = round((1.0 + t * 1e-6 + self.offset[k]) * NODE_HZ[k])
                arr[i] = (kind, pack_comm_addr(rank, peer, tag, flags),
                          tsc, clock, rank, value)
            streams[f"node{k + 1}"] = (NODE_HZ[k], arr)
        return streams


def generate(seed):
    return CommStreamGenerator(seed).build()


def run(analyzer_cls, streams, chunk):
    """Feed each node's stream in *chunk*-record pieces, node by node.

    Returns the diagnostics and the join rows the fold built, as
    ``(index_of, clocks, one int64 matrix per rank)`` — ``None`` when
    the fold was skipped.
    """
    folds = []

    class Capture(analyzer_cls):
        def _build_join_rows(self, *args):
            folds.append(super()._build_join_rows(*args))
            return folds[-1]

    a = Capture(path="gen")
    for node, (hz, _) in streams.items():
        a.add_node(node, hz)
    for node, (_, arr) in streams.items():
        step = chunk or max(1, len(arr))
        for lo in range(0, len(arr), step):
            a.consume(node, arr[lo:lo + step])
    diags = a.finalize()
    if not folds or folds[0] is None:
        return diags, None
    index_of, clocks, rows = folds[0]
    return diags, (index_of, [list(c) for c in clocks],
                   [np.asarray(r, dtype=np.int64).reshape(-1, len(index_of))
                    for r in rows])


def assert_same_rows(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got[:2] == want[:2]          # index_of, clocks
        for i, (g, w) in enumerate(zip(got[2], want[2], strict=True)):
            assert np.array_equal(g, w), f"rows of dense rank {i}"


@pytest.mark.parametrize("seed", SEEDS)
def test_finalize_equals_oracle(seed):
    streams = generate(seed)
    for chunk in CHUNKS:
        diags, rows = run(CausalAnalyzer, streams, chunk)
        want_diags, want_rows = run(CausalOracle, streams, chunk)
        assert diags == want_diags, f"chunk {chunk}"
        assert_same_rows(rows, want_rows)


@pytest.mark.parametrize("seed", SEEDS)
def test_diagnostics_are_chunking_invariant(seed):
    streams = generate(seed)
    whole, _ = run(CausalAnalyzer, streams, None)
    for chunk in CHUNKS[:-1]:
        diags, _ = run(CausalAnalyzer, streams, chunk)
        assert [d for d in diags if d.rule != "CM006"] \
            == [d for d in whole if d.rule != "CM006"], f"chunk {chunk}"
        assert Counter(diags) == Counter(whole), f"chunk {chunk}"


def test_generator_reaches_every_rule_and_happens_before(monkeypatch):
    """The harness is only as strong as its streams: over the seeds they
    must raise every CM rule and every CM006 flavour, and make the race
    sweep ask the join rows real happens-before questions."""
    queries = []
    hb = CausalAnalyzer._happens_before

    def counting(vcs, a, ca, b, cb):
        queries.append((a, b))
        return hb(vcs, a, ca, b, cb)

    monkeypatch.setattr(CausalAnalyzer, "_happens_before",
                        staticmethod(counting))
    diags = [d for seed in SEEDS
             for d in run(CausalAnalyzer, generate(seed), None)[0]]
    assert {d.rule for d in diags} == {f"CM00{i}" for i in range(1, 7)}
    cm006 = " | ".join(d.message for d in diags if d.rule == "CM006")
    for flavour in ("appears on nodes", "does not advance",
                    "references unknown send",
                    "references unknown receive post",
                    "consumed by two completions",
                    "clock-reference cycle", "does not match the innermost"):
        assert flavour in cm006, flavour
    assert sum(a != b for a, b in queries) > 100


# -- join-row corner cases ------------------------------------------------


@pytest.fixture(params=["bulk", "row"])
def fold_path(request, monkeypatch):
    """Fold every ready run in bulk, or every run row by row."""
    monkeypatch.setattr(causal, "_BULK_RUN",
                        1 if request.param == "bulk" else sys.maxsize)


def fold(gen):
    """Diagnostics and join rows of *gen*'s stream, which must equal the
    oracle's; the stream must hold a wildcard completion."""
    streams = gen.streams()
    diags, rows = run(CausalAnalyzer, streams, None)
    want_diags, want_rows = run(CausalOracle, streams, None)
    assert diags == want_diags
    assert_same_rows(rows, want_rows)
    assert rows is not None
    return diags, rows


def message(gen, s, d, wild=False):
    """A send from *s* that *d* receives at once."""
    cs = gen.send(s, d, TAGS[0])
    posted = gen.post(d, -1 if wild else s, TAGS[0])
    return gen.complete(d, posted, s, cs, TAGS[0])


def test_self_send_base_row_inside_the_run(fold_path):
    g = CommStreamGenerator(0, n_ranks=2, n_nodes=1)
    message(g, 1, 0, wild=True)
    message(g, 1, 0)
    self_send = g.send(0, 0, TAGS[0])   # base row: the completion above
    message(g, 1, 0)
    g.complete(0, g.post(0, 0, TAGS[0]), 0, self_send, TAGS[0])
    message(g, 1, 0, wild=True)
    _, (_, clocks, _) = fold(g)
    assert len(clocks[0]) == 5          # one run of five folds them all


def test_sender_without_completion_before_the_send(fold_path):
    g = CommStreamGenerator(0, n_ranks=3, n_nodes=1)
    early = g.send(1, 0, TAGS[0])       # rank 1 has completed nothing yet
    message(g, 2, 1)
    message(g, 2, 1)
    g.complete(0, g.post(0, -1, TAGS[0]), 1, early, TAGS[0])
    message(g, 1, 0)
    fold(g)


def test_own_column_override_beats_a_future_self_send(fold_path):
    g = CommStreamGenerator(0, n_ranks=2, n_nodes=1)
    message(g, 1, 0, wild=True)
    future = g.clock[0] + 3             # lifts rank 0's own column past
    g.complete(0, g.post(0, 0, TAGS[0]), 0, future, TAGS[0])
    g.send(0, 0, TAGS[0], clock=future)  # the completion's clock
    message(g, 1, 0)
    message(g, 1, 0)
    _, (_, clocks, rows) = fold(g)
    assert rows[0][:, 0].tolist() == clocks[0]


def test_clock_cycle_stalls_two_ranks_mid_run(fold_path):
    g = CommStreamGenerator(0, n_ranks=3, n_nodes=1)
    for _ in range(3):
        message(g, 0, 1, wild=True)
        message(g, 1, 0, wild=True)
    g.clock_cycle((0, 1))
    for _ in range(3):                  # left unfolded behind the cycle
        message(g, 0, 1, wild=True)
        message(g, 1, 0)
        message(g, 2, 0)
    diags, (_, clocks, _) = fold(g)
    assert [len(c) for c in clocks] == [3, 3, 0]
    cycle = [d.message for d in diags if "clock-reference cycle" in d.message]
    assert cycle == ["clock-reference cycle: completions on rank(s) [0, 1] "
                     "reference each other's futures and cannot be "
                     "ordered; causal verdicts for them are skipped"]


def test_single_rank(fold_path):
    g = CommStreamGenerator(0, n_ranks=1, n_nodes=1)
    for k in range(6):
        message(g, 0, 0, wild=k % 2 == 0)
    _, (index_of, _, rows) = fold(g)
    assert index_of == {0: 0} and len(rows[0]) == 6


def test_after_waited_visits_each_rank_after_the_one_it_waits_on():
    order = CausalAnalyzer._after_waited
    assert order([-1, 0, 1, 2]) == [0, 1, 2, 3]
    assert order([1, 2, 3, -1]) == [3, 2, 1, 0]
    assert order([1, 2, 3, 0]) == [3, 2, 1, 0]  # cycle cut where it began
    assert order([1, 0, 1, -1]) == [1, 0, 2, 3]


@pytest.mark.parametrize("step", [1, -1])
def test_ring_of_sixteen_ranks(fold_path, step):
    """2,000 rounds on 3 nodes: each round every rank sends to one
    neighbour and receives from the other, a fifth of the receives as
    wildcards.  Receiving from the left, the worklist's ready runs are
    16 completions long; receiving from the right, one."""
    n, rounds = 16, 2000
    g = CommStreamGenerator(24, n_ranks=n, n_nodes=3)
    for _ in range(rounds):
        sent = [g.send(r, (r + step) % n, TAGS[0]) for r in range(n)]
        for d in range(n):
            src = (d - step) % n
            wild = g.rng.random() < 0.2
            posted = g.post(d, -1 if wild else src, TAGS[0])
            g.complete(d, posted, src, sent[src], TAGS[0])
    _, (_, clocks, _) = fold(g)
    assert [len(c) for c in clocks] == [rounds] * n


@pytest.mark.parametrize("seed", range(4))
def test_many_senders_with_stalls(fold_path, seed):
    """Random senders over 5 ranks, with a clock-reference cycle at a
    random point, so runs end on every kind of wait."""
    g = CommStreamGenerator(seed, n_ranks=5, n_nodes=2)
    cycle_at = g.rng.randrange(40, 160)
    for k in range(200):
        if k == cycle_at:
            g.clock_cycle()
        message(g, g.rng.randrange(5), g.rng.randrange(5),
                wild=g.rng.random() < 0.5)
    fold(g)
