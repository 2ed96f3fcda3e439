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
  :class:`CausalOracle`'s diagnostics, in order;
* the diagnostics do not depend on chunking, except for the order of
  CM006 findings, which follows chunk boundaries during ingest.

Completion values are always well-formed packed pairs: the oracle has no
pairing check (``test_causal.py`` covers malformed values).
"""

import random
from collections import Counter

import numpy as np
import pytest

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

    def __init__(self, seed: int):
        rng = self.rng = random.Random(seed)
        self.n_ranks = rng.randint(3, 6)
        self.n_nodes = rng.randint(1, 3)
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

    def clock_cycle(self):
        """Two completions that each name the other rank's next send."""
        a, b = self.pair()
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
        """Per-node record arrays, plus each node's tsc_hz."""
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
    """Feed each node's stream in *chunk*-record pieces, node by node."""
    a = analyzer_cls(path="gen")
    for node, (hz, _) in streams.items():
        a.add_node(node, hz)
    for node, (_, arr) in streams.items():
        step = chunk or max(1, len(arr))
        for lo in range(0, len(arr), step):
            a.consume(node, arr[lo:lo + step])
    return a.finalize()


@pytest.mark.parametrize("seed", SEEDS)
def test_finalize_equals_oracle(seed):
    streams = generate(seed)
    for chunk in CHUNKS:
        assert run(CausalAnalyzer, streams, chunk) \
            == run(CausalOracle, streams, chunk), f"chunk {chunk}"


@pytest.mark.parametrize("seed", SEEDS)
def test_diagnostics_are_chunking_invariant(seed):
    streams = generate(seed)
    whole = run(CausalAnalyzer, streams, None)
    for chunk in CHUNKS[:-1]:
        diags = run(CausalAnalyzer, streams, chunk)
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
             for d in run(CausalAnalyzer, generate(seed), None)]
    assert {d.rule for d in diags} == {f"CM00{i}" for i in range(1, 7)}
    cm006 = " | ".join(d.message for d in diags if d.rule == "CM006")
    for flavour in ("appears on nodes", "does not advance",
                    "references unknown send",
                    "references unknown receive post",
                    "consumed by two completions",
                    "clock-reference cycle", "does not match the innermost"):
        assert flavour in cm006, flavour
    assert sum(a != b for a, b in queries) > 100
