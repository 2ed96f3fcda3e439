"""Communication sanitizer tests: commrec packing, the CausalAnalyzer on
hand-built streams, seeded defect bundles end-to-end, and race-freedom of
the clean NPB kernels.

The seeded defect programs themselves live in
:mod:`repro.faults.commfaults`; ``tests/faults/test_commfaults.py`` covers
their builder/CLI contract, while this file asserts the *sanitizer's*
verdicts on their output.
"""

import json
import warnings

import numpy as np
import pytest

from repro.check import RULES
from repro.check.causal import CausalAnalyzer, causal_check_bundle
from repro.check.tracelint import check_path
from repro.core.commrec import (
    FLAG_COMPLETE,
    FLAG_RENDEZVOUS,
    FLAG_WILD_SOURCE,
    FLAG_WILD_TAG,
    MAX_PEER,
    MAX_RANK,
    MAX_TAG,
    NO_PEER,
    OP_NAMES,
    PAIR_LIMIT,
    decode_comm_addrs,
    pack_comm_addr,
    pack_recv_value,
    unpack_comm_addr,
    unpack_recv_value,
)
from repro.core.trace import (
    COMM_KINDS,
    KNOWN_KINDS,
    REC_COLL_ENTER,
    REC_COLL_EXIT,
    REC_ENTER,
    REC_EXIT,
    REC_MSG_RECV,
    REC_MSG_SEND,
    REC_TEMP,
    TraceBundle,
)
from repro.util.errors import ConfigError

from tests.check.fixtures import lint_records, records_array


def rules_of(diags):
    return sorted({d.rule for d in diags})


# ----------------------------------------------------------------------
# commrec: the packed comm-address codec


@pytest.mark.parametrize("rank,peer,tag,flags", [
    (0, 0, 0, 0),
    (MAX_RANK, MAX_PEER, MAX_TAG, 0x7f),
    (7, NO_PEER, -1, FLAG_WILD_SOURCE | FLAG_WILD_TAG),
    (1, -1, -2, FLAG_COMPLETE),
])
def test_comm_addr_round_trip(rank, peer, tag, flags):
    addr = pack_comm_addr(rank, peer, tag, flags)
    assert unpack_comm_addr(addr) == (rank, peer, tag, flags)


def test_comm_addr_vectorized_decode_matches_scalar():
    rows = [(0, 0, 0, 0), (MAX_RANK, MAX_PEER, MAX_TAG, 0x7f),
            (12, NO_PEER, -1, FLAG_WILD_TAG), (3, 2, 1 << 20, FLAG_COMPLETE)]
    addrs = np.array([pack_comm_addr(*r) for r in rows], dtype=np.int64)
    dec = decode_comm_addrs(addrs)
    for i, (rank, peer, tag, flags) in enumerate(rows):
        assert (dec["rank"][i], dec["peer"][i],
                dec["tag"][i], dec["flags"][i]) == (rank, peer, tag, flags)


@pytest.mark.parametrize("rank,peer,tag,flags", [
    (-1, 0, 0, 0), (MAX_RANK + 1, 0, 0, 0),       # rank band
    (0, NO_PEER - 1, 0, 0), (0, MAX_PEER + 1, 0, 0),   # peer band
    (0, 0, -3, 0), (0, 0, MAX_TAG + 1, 0),        # tag band
    (0, 0, 0, -1), (0, 0, 0, 0x80),               # flag band
])
def test_comm_addr_rejects_out_of_band(rank, peer, tag, flags):
    with pytest.raises(ConfigError):
        pack_comm_addr(rank, peer, tag, flags)


def test_recv_value_pairing_is_exact():
    # Lamport components start at 1, so 0 is never a valid clock.
    for post, send in [(1, 1), (1, 2), (123_456, 654_321),
                       ((1 << 26) - 1, (1 << 26) - 1)]:
        v = pack_recv_value(post, send)
        assert unpack_recv_value(v) == (post, send)


@pytest.mark.parametrize("post,send", [
    (0, 1), (1, 0), (1 << 26, 1), (1, 1 << 26),
])
def test_recv_value_rejects_out_of_band_clocks(post, send):
    with pytest.raises(ConfigError):
        pack_recv_value(post, send)


# ----------------------------------------------------------------------
# Hand-built streams through the analyzer


def comm_rec(kind, rank, peer, tag, flags, clock, value, tsc):
    return (kind, pack_comm_addr(rank, peer, tag, flags), tsc, clock, 1,
            value)


def run_analyzer(rows_by_node, hz=2.0e9, **kw):
    a = CausalAnalyzer(**kw)
    for node, rows in rows_by_node.items():
        a.add_node(node, hz)
        a.consume(node, records_array(rows))
    return a.finalize()


def clean_exchange(node="node1"):
    """rank 0 sends (tag 5, clock 1); rank 1 posts, completes."""
    return {node: [
        comm_rec(REC_MSG_SEND, 0, 1, 5, 0, 1, 64.0, 1000),
        comm_rec(REC_MSG_RECV, 1, 0, 5, 0, 1, 0.0, 1100),
        comm_rec(REC_MSG_RECV, 1, 0, 5, FLAG_COMPLETE, 2,
                 pack_recv_value(1, 1), 2000),
    ]}


def test_clean_exchange_is_silent():
    assert run_analyzer(clean_exchange()) == []


def test_analyzer_ignores_non_comm_kinds():
    rows = clean_exchange()["node1"] + [
        (REC_ENTER, 42, 50, 0, 1, 0.0),
        (REC_TEMP, 0, 60, 0, 2, 44.5),
        (REC_EXIT, 42, 70, 0, 1, 0.0),
    ]
    a = CausalAnalyzer()
    a.add_node("node1", 2.0e9)
    a.consume("node1", records_array(rows))
    assert a.n_comm_events == 3
    assert a.finalize() == []


def test_wildcard_race_flagged():
    """Two causally-concurrent sends matching one wildcard receive."""
    rows = {
        "node1": [
            comm_rec(REC_MSG_RECV, 0, NO_PEER, 7, FLAG_WILD_SOURCE, 1,
                     0.0, 100),
            comm_rec(REC_MSG_RECV, 0, 1, 7,
                     FLAG_WILD_SOURCE | FLAG_COMPLETE, 2,
                     pack_recv_value(1, 1), 500),
        ],
        "node2": [comm_rec(REC_MSG_SEND, 1, 0, 7, 0, 1, 32.0, 110)],
        "node3": [comm_rec(REC_MSG_SEND, 2, 0, 7, 0, 1, 32.0, 120)],
    }
    diags = run_analyzer(rows)
    # the unconsumed rank-2 send also reports CM004 — expected
    assert "CM001" in rules_of(diags)


def test_ordered_sends_do_not_race():
    """Sender 2 only sends after observing sender 1's message was
    delivered (via a message from the receiver), so the two sends are
    causally ordered and the wildcard receive is deterministic."""
    rows = {
        "node1": [
            comm_rec(REC_MSG_RECV, 0, NO_PEER, 7, FLAG_WILD_SOURCE, 1,
                     0.0, 100),
            comm_rec(REC_MSG_RECV, 0, 1, 7,
                     FLAG_WILD_SOURCE | FLAG_COMPLETE, 2,
                     pack_recv_value(1, 1), 500),
            comm_rec(REC_MSG_SEND, 0, 2, 9, 0, 3, 8.0, 600),  # go-ahead
            comm_rec(REC_MSG_RECV, 0, NO_PEER, 7, FLAG_WILD_SOURCE, 4,
                     0.0, 700),
            comm_rec(REC_MSG_RECV, 0, 2, 7,
                     FLAG_WILD_SOURCE | FLAG_COMPLETE, 5,
                     pack_recv_value(4, 3), 900),
        ],
        "node2": [comm_rec(REC_MSG_SEND, 1, 0, 7, 0, 1, 32.0, 110)],
        "node3": [
            comm_rec(REC_MSG_RECV, 2, 0, 9, 0, 1, 0.0, 120),
            comm_rec(REC_MSG_RECV, 2, 0, 9, FLAG_COMPLETE, 2,
                     pack_recv_value(1, 3), 650),
            comm_rec(REC_MSG_SEND, 2, 0, 7, 0, 3, 32.0, 660),
        ],
    }
    assert run_analyzer(rows) == []


def test_wildcard_completion_of_a_send_addressed_elsewhere():
    """A wildcard receive on rank 1 consumes a send addressed to rank 2.
    No send names rank 1, so the race sweep has nothing to scan."""
    rows = {"node1": [
        comm_rec(REC_MSG_SEND, 0, 2, 7, 0, 1, 8.0, 100),
        comm_rec(REC_MSG_RECV, 1, -1, 7, FLAG_WILD_SOURCE, 1, 0.0, 110),
        comm_rec(REC_MSG_RECV, 1, 0, 7, FLAG_WILD_SOURCE | FLAG_COMPLETE,
                 2, pack_recv_value(1, 1), 200),
    ]}
    assert run_analyzer(rows) == []


def test_clock_regression_is_cm006():
    rows = clean_exchange()
    rows["node1"].append(
        comm_rec(REC_MSG_SEND, 0, 1, 6, 0, 1, 8.0, 3000))  # clock reused
    diags = run_analyzer(rows)
    # The regressed record is dropped from causal reasoning (keeping it
    # would collide with the consumed clock-1 send), so CM006 is the only
    # finding — no phantom CM004 from a record the analyzer refused.
    assert rules_of(diags) == ["CM006"]
    assert diags[0].severity == "warning"


def test_dangling_send_reference_is_cm006():
    rows = {"node1": [
        comm_rec(REC_MSG_RECV, 1, 0, 5, 0, 1, 0.0, 100),
        comm_rec(REC_MSG_RECV, 1, 0, 5, FLAG_COMPLETE, 2,
                 pack_recv_value(1, 9), 200),   # send clock 9 never seen
    ]}
    assert "CM006" in rules_of(run_analyzer(rows))


def test_skew_violation_beyond_tolerance():
    # move the send 10 ms past the completion (hz=2e9 -> 2e7 cycles/10ms)
    recs = clean_exchange()["node1"]
    send_row = comm_rec(REC_MSG_SEND, 0, 1, 5, 0, 1, 64.0,
                        recs[2][2] + 20_000_000)
    rows = {"node1": [send_row], "node2": recs[1:]}
    diags = run_analyzer(rows)
    assert "CM005" in rules_of(diags)
    # a generous tolerance silences it
    assert "CM005" not in rules_of(
        run_analyzer(rows, skew_tolerance_s=0.1))


def test_same_node_skew_never_fires():
    """One clock domain: timestamp inversions there are TL008's business."""
    recs = clean_exchange()["node1"]
    send_row = comm_rec(REC_MSG_SEND, 0, 1, 5, 0, 1, 64.0,
                        recs[2][2] + 20_000_000)
    diags = run_analyzer({"node1": [send_row] + recs[1:]})
    assert "CM005" not in rules_of(diags)


def test_collective_mismatch_flagged():
    from repro.core.commrec import OP_BCAST, OP_REDUCE
    rows = {"node1": [
        comm_rec(REC_COLL_ENTER, 0, 0, 100, 0, 1, float(OP_BCAST), 10),
        comm_rec(REC_COLL_EXIT, 0, 0, 100, 0, 2, float(OP_BCAST), 20),
        comm_rec(REC_COLL_ENTER, 1, 0, 100, 0, 1, float(OP_REDUCE), 10),
        comm_rec(REC_COLL_EXIT, 1, 0, 100, 0, 2, float(OP_REDUCE), 20),
    ]}
    diags = run_analyzer(rows)
    assert rules_of(diags) == ["CM003"]
    assert "bcast" in diags[0].message and "reduce" in diags[0].message


def test_wait_cycle_flagged():
    rows = {"node1": [
        comm_rec(REC_MSG_RECV, 0, 1, 1, 0, 1, 0.0, 100),
        comm_rec(REC_MSG_RECV, 1, 0, 1, 0, 1, 0.0, 100),
    ]}
    diags = run_analyzer(rows)
    assert "CM002" in rules_of(diags)


def test_live_spool_downgrades_finalize_rules():
    rows = {"node1": [comm_rec(REC_MSG_SEND, 0, 1, 5, 0, 1, 64.0, 100)]}
    diags = run_analyzer(rows, live=True)
    assert rules_of(diags) == ["CM004"]
    assert diags[0].severity == "warning"


def test_double_consume_winner_does_not_depend_on_chunking():
    """Two completions consume one send.  The lower rank keeps it whether
    the node's chunks introduce rank 2 first (one record per chunk) or
    rank 1 first (the whole stream as one chunk, split in rank order)."""
    rows = {
        "node1": [comm_rec(REC_MSG_SEND, 0, 1, 5, 0, 1, 64.0, 100)],
        "node2": [
            comm_rec(REC_MSG_RECV, 2, 0, 5, 0, 1, 0.0, 110),
            comm_rec(REC_MSG_RECV, 2, 0, 5, FLAG_COMPLETE, 2,
                     pack_recv_value(1, 1), 200),
            comm_rec(REC_MSG_RECV, 1, 0, 5, 0, 1, 0.0, 120),
            comm_rec(REC_MSG_RECV, 1, 0, 5, FLAG_COMPLETE, 2,
                     pack_recv_value(1, 1), 210),
        ],
    }
    by_chunk = []
    for chunk in (1, None):
        a = CausalAnalyzer()
        for node, recs in rows.items():
            a.add_node(node, 2.0e9)
            arr = records_array(recs)
            step = chunk or len(arr)
            for lo in range(0, len(arr), step):
                a.consume(node, arr[lo:lo + step])
        by_chunk.append([(d.rule, d.message) for d in a.finalize()])
    assert by_chunk[0] == by_chunk[1] == [
        ("CM006", "send (rank 0, clock 1) is consumed by two completions"),
        ("CM004", "receive posted on rank 2 (source 0, tag 5) never "
                  "completed"),
    ]


# ----------------------------------------------------------------------
# Malformed inputs: completion pairings and the skew tolerance

#: completion values outside the packed (post, send) band: non-finite,
#: too large, negative, fractional, zero, a zero send half, and a post
#: half of exactly PAIR_LIMIT
MALFORMED_PAIRINGS = [float("nan"), float("inf"), float("-inf"), 1e300,
                      -3.0, 2.5, 0.0, float(PAIR_LIMIT),
                      float(PAIR_LIMIT) ** 2]


def malformed_completion(value):
    rows = clean_exchange()
    rows["node1"][2] = comm_rec(REC_MSG_RECV, 1, 0, 5, FLAG_COMPLETE, 2,
                                value, 2000)
    return rows


@pytest.mark.parametrize("value", MALFORMED_PAIRINGS, ids=repr)
def test_malformed_completion_pairing_is_cm006(value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diags = run_analyzer(malformed_completion(value))
    # the completion is dropped, so its send and its post stay unmatched
    assert [d.rule for d in diags] == ["CM006", "CM004", "CM004"]
    assert "malformed completion pairing" in diags[0].message


def test_malformed_completion_pairing_reported_once_per_rank():
    rows = malformed_completion(float("nan"))
    rows["node1"].append(comm_rec(REC_MSG_RECV, 1, 0, 5, FLAG_COMPLETE, 3,
                                  -3.0, 2100))
    diags = run_analyzer(rows)
    assert [d.rule for d in diags].count("CM006") == 1


def save_comm_bundle(path, rows_by_node, hz=2.0e9):
    from repro.core.symtab import SymbolTable
    from repro.core.trace import NodeTrace

    bundle = TraceBundle(SymbolTable())
    for node, rows in rows_by_node.items():
        trace = NodeTrace(node, hz, ["S0"])
        trace.extend_columns(records_array(rows))
        bundle.add_node(trace)
    bundle.save(path)
    return path


@pytest.mark.parametrize("value", MALFORMED_PAIRINGS, ids=repr)
@pytest.mark.parametrize("command", ["race", "check"])
def test_malformed_completion_pairing_cli(tmp_path, capsys, command, value):
    from repro.cli import main

    bundle = save_comm_bundle(tmp_path / "bundle",
                              malformed_completion(value))
    report = tmp_path / "report.json"
    assert main([command, str(bundle), "--json", str(report)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    doc = json.loads(report.read_text())
    assert any(d["rule"] == "CM006"
               and "malformed completion pairing" in d["message"]
               for d in doc["diagnostics"])


def test_non_finite_payload_size_is_reported():
    rows = {"node1": [comm_rec(REC_MSG_SEND, 0, 1, 5, FLAG_RENDEZVOUS, 1,
                               float("nan"), 100),
                      comm_rec(REC_MSG_SEND, 1, 0, 5, FLAG_RENDEZVOUS, 1,
                               64.0, 100)]}
    diags = run_analyzer(rows)
    assert rules_of(diags) == ["CM002", "CM004"]
    assert "nan bytes" in diags[0].message


@pytest.mark.parametrize("tolerance", [float("nan"), -1.0, float("inf"),
                                       float("-inf")], ids=repr)
def test_skew_tolerance_rejects_nonsense(tolerance):
    with pytest.raises(ConfigError):
        CausalAnalyzer(skew_tolerance_s=tolerance)


def test_skew_tolerance_zero_is_accepted():
    assert run_analyzer(clean_exchange(), skew_tolerance_s=0.0) == []


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_race_cli_rejects_bad_skew_tolerance(tmp_path, capsys, tolerance):
    from repro.cli import main

    bundle = save_comm_bundle(tmp_path / "bundle", clean_exchange())
    assert main(["race", str(bundle),
                 f"--skew-tolerance={tolerance}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "skew tolerance" in err
    assert main(["race", str(bundle), "--skew-tolerance=0.1"]) == 0


# ----------------------------------------------------------------------
# TL005 forward-compat: pre-PR-9 readers meet comm records


def comm_augmented_records():
    return records_array([
        (REC_ENTER, 10, 0, 0, 1, 0.0),
        comm_rec(REC_MSG_SEND, 0, 1, 5, 0, 1, 64.0, 10),
        comm_rec(REC_MSG_RECV, 0, 1, 5, 0, 2, 0.0, 20),
        (REC_EXIT, 10, 40, 0, 1, 0.0),
    ])


def test_old_reader_downgrades_comm_kinds_to_warning():
    """A reader built before the comm extension skips the reserved-range
    kinds with a warning instead of declaring the trace corrupt."""
    diags = lint_records(comm_augmented_records(),
                         known_kinds=(REC_ENTER, REC_EXIT, REC_TEMP))
    tl5 = [d for d in diags if d.rule == "TL005"]
    assert tl5 and all(d.severity == "warning" for d in tl5)
    assert "skipping" in tl5[0].message


def test_current_reader_accepts_comm_kinds():
    diags = lint_records(comm_augmented_records())
    assert "TL005" not in rules_of(diags)


def test_truly_unknown_kind_is_still_an_error():
    arr = records_array([(REC_ENTER, 10, 0, 0, 1, 0.0),
                         (9, 10, 5, 0, 1, 0.0),
                         (REC_EXIT, 10, 9, 0, 1, 0.0)])
    diags = lint_records(arr, known_kinds=(REC_ENTER, REC_EXIT, REC_TEMP))
    tl5 = [d for d in diags if d.rule == "TL005"]
    assert tl5 and tl5[0].severity == "error"


def test_known_kinds_registry_covers_comm_extension():
    assert COMM_KINDS <= KNOWN_KINDS
    assert {REC_MSG_SEND, REC_MSG_RECV, REC_COLL_ENTER,
            REC_COLL_EXIT} == COMM_KINDS


# ----------------------------------------------------------------------
# End-to-end: seeded defect bundles get their CM verdicts


def check_defect(tmp_path, name):
    from repro.faults.commfaults import BUILDERS, EXPECTED_RULE
    bundle = BUILDERS[name](seed=0)
    out = tmp_path / name
    bundle.save(out)
    diags = causal_check_bundle(out)
    expected = EXPECTED_RULE[name]
    if expected is None:
        assert rules_of(diags) == []
    else:
        assert expected in rules_of(diags)
        assert any(d.severity == "error" for d in diags
                   if d.rule == expected)
    return out, diags


@pytest.mark.parametrize("defect", ["race", "deadlock", "mismatch",
                                    "unmatched", "skew", "clean"])
def test_seeded_defect_bundles(tmp_path, defect):
    check_defect(tmp_path, defect)


def test_defect_bundle_passes_tracelint_and_reloads(tmp_path):
    """Comm-augmented bundles stay loadable and TraceLint-clean: the new
    record kinds ride the existing container without breaking it."""
    out, _ = check_defect(tmp_path, "race")
    reloaded = TraceBundle.load(out)
    assert set(reloaded.nodes)
    n_comm = sum(
        int(np.isin(t.columns.array["kind"], sorted(COMM_KINDS)).sum())
        for t in reloaded.nodes.values())
    assert n_comm > 0
    diags = [d for d in check_path(out) if d.severity == "error"]
    # causal findings are the *point* of this bundle; the container and
    # stream structure themselves must lint clean
    assert all(d.rule.startswith("CM") for d in diags)


def test_check_bundle_dir_includes_causal_findings(tmp_path):
    """`tempest check` surfaces CM diagnostics without a separate
    `tempest race` invocation."""
    from repro.faults.commfaults import build_race_bundle
    bundle = build_race_bundle(seed=0)
    out = tmp_path / "bundle"
    bundle.save(out)
    assert "CM001" in rules_of(check_path(out))


def test_causal_check_spool_live(tmp_path):
    """Spooled traces stream through the live-mode checker (a finished
    session closes its spools, so a live copy is made)."""
    from repro.core.session import TempestSession
    from repro.mpisim.comm import ANY_SOURCE
    from repro.simmachine.machine import ClusterConfig, Machine
    from tests.legacy import as_spool

    def program(ctx):
        comm = ctx.comm
        if comm.rank == 0:
            yield from comm.recv(source=ANY_SOURCE, tag=7)
            yield from comm.recv(source=ANY_SOURCE, tag=7)
        else:
            yield from comm.send(("x", comm.rank), 0, tag=7)

    machine = Machine(ClusterConfig(n_nodes=3, seed=0, vary_nodes=False))
    spool = tmp_path / "spool"
    session = TempestSession(machine, spool_dir=spool)
    session.run_mpi(program, 3, name="spool-race")
    live = as_spool(spool, tmp_path / "live")
    assert "CM001" in rules_of(causal_check_bundle(live))


# ----------------------------------------------------------------------
# The clean NPB kernels are race-free


def npb_configs():
    from repro.workloads.npb import cg, ep, ft, lu, mg
    return {
        "FT": (ft.ft_benchmark, ft.FTConfig(klass="S", iterations=2), 4),
        "CG": (cg.cg_benchmark, cg.CGConfig(klass="S", niter=2), 4),
        "EP": (ep.ep_benchmark, ep.EPConfig(klass="S"), 4),
        "MG": (mg.mg_benchmark, mg.MGConfig(klass="S", iterations=2), 4),
        "LU": (lu.lu_benchmark, lu.LUConfig(klass="S", iterations=2), 4),
    }


@pytest.mark.parametrize("bench", ["FT", "CG", "EP", "MG", "LU"])
def test_npb_class_s_is_race_free(tmp_path, bench):
    from repro.core.session import TempestSession
    from repro.simmachine.machine import ClusterConfig, Machine

    program, config, n_ranks = npb_configs()[bench]
    machine = Machine(ClusterConfig(n_nodes=4, seed=1234,
                                    vary_nodes=False))
    session = TempestSession(machine)
    session.run_mpi(lambda ctx: program(ctx, config), n_ranks,
                    name=f"npb-{bench}")
    bundle = session.collect()
    out = tmp_path / bench
    bundle.save(out)
    diags = causal_check_bundle(out)
    assert diags == [], f"{bench}: {[d.message for d in diags]}"


# ----------------------------------------------------------------------
# Registry coverage


def test_cm_rules_registered():
    for rid in ("CM001", "CM002", "CM003", "CM004", "CM005", "CM006"):
        assert rid in RULES
        assert RULES[rid].invariant
    assert RULES["CM006"].severity == "warning"
    assert len(OP_NAMES) == 8
