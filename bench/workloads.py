"""The six benchmark workloads.

Each workload builds its inputs in ``__init__`` (the timed set-up), then
repeats one *unit* — its user-facing operation, made only of public
calls — on identical inputs.  ``check`` turns a unit's output into a
list of failures (empty when correct).  ``probe`` runs only in the traced
run: it times public-call variants whose differences isolate layers no
single public call isolates, and returns per-layer metrics.

Units receive a span recorder (``rec``); untraced runs pass
:data:`bench.spans.NULL`.  Span names are ``<module>.<call>``, and
``SPAN_METRICS`` maps the span names of a unit to the per-layer metric
they feed (the runner takes each span's median over traced units).
"""

from __future__ import annotations

import json
import statistics
import threading
from pathlib import Path

import numpy as np

from repro.analysis.hotspots import identify_hot_spots
from repro.check.causal import CausalAnalyzer, causal_check_bundle
from repro.cluster import (
    AsyncAggregatorServer,
    CollectorClient,
    CollectorConfig,
    LoopbackHub,
    SocketTransport,
)
from repro.core import TempestSession
from repro.core.parser import TempestParser
from repro.core.report import render_stdout_report
from repro.core.spool import STREAM_CHUNK_RECORDS, iter_spool_chunks
from repro.core.streamprof import StreamingRunProfiler, stream_bundle_profile
from repro.core.summary import RunSummary
from repro.core.trace import TraceBundle
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.canonjson import canon_dumps
from repro.workloads.npb import bt

from bench import inputs

#: relative tolerance for times two engines compute in different orders
REL_TOL = 1e-9
HCCT_BUDGET = 1024
#: the paper's overhead bound (§3.4): Tempest adds under 7%
PAPER_OVERHEAD_PCT = 7.0


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def compare_profiles(got, want, *, full: bool = False) -> list[str]:
    """Differences between two run profiles, as failure messages.

    Always compares node and function sets, call counts and inclusive
    time (``REL_TOL``).  ``full`` adds the streaming-vs-batch contract:
    significance and samples exact, exclusive time, sensor avg and var
    within ``REL_TOL``, n/min/max/mod exact, and med within the P2
    estimator's documented 0.5 degC band.
    """
    bad: list[str] = []
    if set(got.nodes) != set(want.nodes):
        return [f"nodes differ: {sorted(got.nodes)} vs {sorted(want.nodes)}"]
    for node, wn in want.nodes.items():
        gn = got.nodes[node]
        if set(gn.functions) != set(wn.functions):
            bad.append(f"{node}: function sets differ")
            continue
        for name, wf in wn.functions.items():
            gf = gn.functions[name]
            where = f"{node}/{name}"
            if gf.n_calls != wf.n_calls:
                bad.append(f"{where}: n_calls {gf.n_calls} != {wf.n_calls}")
            if not _close(gf.total_time_s, wf.total_time_s):
                bad.append(f"{where}: total_time_s {gf.total_time_s!r} != "
                           f"{wf.total_time_s!r}")
            if not full:
                continue
            if (gf.significant, gf.n_samples) != (wf.significant, wf.n_samples):
                bad.append(f"{where}: significance/samples differ")
            if not _close(gf.exclusive_time_s, wf.exclusive_time_s):
                bad.append(f"{where}: exclusive_time_s differs")
            for sensor, ws in wf.sensor_stats.items():
                gs = gf.sensor_stats.get(sensor)
                if gs is None:
                    bad.append(f"{where}/{sensor}: missing stats")
                elif ((gs.n, gs.min, gs.max, gs.mod) != (ws.n, ws.min, ws.max, ws.mod)
                      or not _close(gs.avg, ws.avg) or not _close(gs.var, ws.var)
                      or abs(gs.med - ws.med) > 0.5):
                    bad.append(f"{where}/{sensor}: sensor stats differ")
    return bad


def _calls(profile) -> dict[str, int]:
    """Calls per function summed over nodes."""
    out: dict[str, int] = {}
    for node in profile.nodes.values():
        for name, fp in node.functions.items():
            out[name] = out.get(name, 0) + fp.n_calls
    return out


def _stream_profile(bundle, rec, *, strict: bool):
    """``stream_bundle_profile`` without a tree, spelled out so consume and
    finalize get their own spans and the accumulators' fallback counters
    stay readable.  Returns ``(profile, streamprof metrics)``."""
    profiler = StreamingRunProfiler(
        bundle.symtab, sampling_hz=float(bundle.meta.get("sampling_hz", 4.0)),
        strict=strict, meta=dict(bundle.meta))
    n_chunks = 0
    with rec.span("streamprof.consume") as consume:
        for name, trace in bundle.nodes.items():
            acc = profiler.add_node(name, trace.tsc_hz, trace.sensor_names)
            for chunk in trace.iter_column_chunks(STREAM_CHUNK_RECORDS):
                acc.consume(chunk)
                n_chunks += 1
    with rec.span("streamprof.finalize") as finalize:
        profile = profiler.finalize()
    return profile, {
        "streamprof.consume_s": consume.seconds,
        "streamprof.finalize_s": finalize.seconds,
        "streamprof.records_per_s":
            bundle.total_records() / (consume.seconds + finalize.seconds),
        "streamprof.chunks": n_chunks,
        "streamprof.fallback_chunks": sum(
            sum(acc.fallbacks.values())
            for acc in profiler.accumulators.values()),
    }


def _timed(rec, name: str, fn, *args, **kwargs):
    """Run ``fn`` inside a probe span; return ``(seconds, result)``."""
    with rec.span(name) as sp:
        result = fn(*args, **kwargs)
    return sp.seconds, result


def _push_loopback(spool_dir: Path, names, *, live: bool) -> LoopbackHub:
    hub = LoopbackHub(live=live)
    for name in names:
        client = CollectorClient.from_spool_header(
            spool_dir, name, hub.connect,
            config=CollectorConfig(chunk_records=4096))
        try:
            client.push_spool(spool_dir / f"{name}.spool")
        finally:
            client.close()
    return hub


def _two_leaf_summary(rec, spool_dir: Path, names: list[str]) -> dict:
    """Two live loopback "leaves", each fed half the nodes, then the
    summary algebra a fan-in root runs: build, encode, decode, merge,
    to_profile.  Returns the layer times plus the pushes' total time."""
    half = len(names) // 2
    push_s, build_s, encode_s, decode_s = 0.0, 0.0, 0.0, 0.0
    texts = []
    for part in (names[:half], names[half:]):
        dt, hub = _timed(rec, "collector.push_live", _push_loopback,
                         spool_dir, part, live=True)
        push_s += dt
        dt, summary = _timed(rec, "summary.build",
                             hub.aggregator.run_summary, final=True)
        build_s += dt
        dt, text = _timed(rec, "summary.encode", canon_dumps, summary.to_dict())
        encode_s += dt
        texts.append(text)
    leaves = []
    for text in texts:
        dt, leaf = _timed(rec, "summary.decode",
                          lambda t: RunSummary.from_dict(json.loads(t)), text)
        decode_s += dt
        leaves.append(leaf)
    root = RunSummary.empty()
    merge_s, _ = _timed(rec, "summary.merge",
                        lambda: [root.merge(leaf) for leaf in leaves])
    to_profile_s, profile = _timed(rec, "summary.to_profile", root.to_profile)
    return {
        "push_live_s": push_s,
        "summary.build_s": build_s,
        "summary.encode_s": encode_s,
        "summary.decode_s": decode_s,
        "summary.merge_s": merge_s,
        "summary.to_profile_s": to_profile_s,
        "summary.bytes": sum(len(t) for t in texts),
        "profile": profile,
    }


class Workload:
    """Base: set-up in ``__init__``, then ``unit``/``check`` repeated."""

    name = ""
    why = ""
    SPAN_METRICS: dict[str, str] = {}

    def __init__(self, seed: int, scale: float, work: Path):
        self.seed = seed
        self.scale = scale
        self.work = work

    def n(self, full: int, floor: int = inputs.BLOCK) -> int:
        """A record count scaled by ``--scale``."""
        return max(floor, int(round(full * self.scale)))

    def unit(self, rec):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        raise NotImplementedError

    def reset(self) -> None:
        """Between units, untimed: restore whatever a unit consumed."""

    def probe(self, rec, layer: dict, out) -> dict:
        """Traced run only: per-layer metrics from public-call variants.
        *layer* holds the span-derived metrics, *out* the last unit's
        output."""
        return {}

    def close(self) -> None:
        """Release what set-up started (servers); files go with the work dir."""


# ----------------------------------------------------------------------


class NpbBt(Workload):
    name = "npb-bt"
    why = ("the paper's own workflow, instrumented NPB BT class W on 4 ranks "
           "through tempd, spool, wire, summary and report")
    SPAN_METRICS = {
        "parser.parse": "parser.parse_s",
        "summary.build": "summary.build_s",
        "summary.encode": "summary.encode_s",
        "summary.to_profile": "summary.to_profile_s",
        "report.render": "report.render_s",
        "mpisim.run_mpi": "_run_spooled_s",
        "collector.push_live": "_push_live_s",
    }
    N_RANKS = 4

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        # BT class W runs 200 iterations; --scale shortens the run
        self.config = bt.BTConfig(klass="W",
                                  iterations=max(1, round(200 * scale)))
        self.spool = work / "spool"
        # The untraced reference run: the baseline side of the paper's
        # overhead comparison (§3.4), checked against on every unit.
        self.untraced_sim_s = self._run(enabled=False).last_workload_end

    def _run(self, *, enabled: bool = True, spool_dir=None):
        machine = Machine(ClusterConfig(n_nodes=4, seed=self.seed))
        session = TempestSession(machine, enabled=enabled, spool_dir=spool_dir)
        session.run_mpi(lambda ctx: bt.bt_benchmark(ctx, self.config),
                        self.N_RANKS)
        return session

    def unit(self, rec):
        with rec.span("mpisim.run_mpi"):
            session = self._run(spool_dir=self.spool)
        with rec.span("parser.parse"):
            profile = session.profile()
        with rec.span("collector.push_live"):
            hub = _push_loopback(self.spool, list(session.tracers), live=True)
        with rec.span("summary.build"):
            summary = hub.aggregator.run_summary(final=True)
        with rec.span("summary.encode"):
            text = canon_dumps(summary.to_dict())
        with rec.span("summary.to_profile"):
            summary_profile = summary.to_profile()
        with rec.span("report.render"):
            report = render_stdout_report(profile)
            spots = identify_hot_spots(profile)
        return {
            "profile": profile,
            "summary_profile": summary_profile,
            "summary_text": text,
            "records": sum(len(t.trace) for t in session.tracers.values()),
            "wire": hub.aggregator.metrics.to_dict(),
            "sim_s": session.last_workload_end,
            "report": report,
            "spots": spots,
        }

    def sim_overhead_pct(self, sim_s: float) -> float:
        return 100.0 * (sim_s / self.untraced_sim_s - 1.0)

    def check(self, out) -> list[str]:
        bad = compare_profiles(out["summary_profile"], out["profile"])
        if out["wire"]["records_in"] != out["records"]:
            bad.append(f"records_in {out['wire']['records_in']} != "
                       f"{out['records']} instrumented records")
        ov = self.sim_overhead_pct(out["sim_s"])
        if not 0.0 < ov < PAPER_OVERHEAD_PCT:
            bad.append(f"simulated overhead {ov:.3f}% outside (0, 7)%")
        if not out["report"]:
            bad.append("empty report")
        return bad

    def probe(self, rec, layer, out):
        # Untraced and in-memory traced runs alternate, twice, so the
        # difference that isolates the hooks sees the same machine drift.
        plain, inmem = [], []
        for _ in range(2):
            dt, _ = _timed(rec, "mpisim.run_mpi_untraced", self._run,
                           enabled=False)
            plain.append(dt)
            dt, session = _timed(rec, "mpisim.run_mpi_inmem", self._run)
            inmem.append(dt)
        run_s, inmem_s = statistics.median(plain), statistics.median(inmem)
        records = sum(len(t.trace) for t in session.tracers.values())
        names = list(session.tracers)
        hook_s = inmem_s - run_s
        spool_files = [self.spool / f"{n}.spool" for n in names]
        read_s, _ = _timed(rec, "spool.read", lambda: [
            len(c) for p in spool_files
            for c in iter_spool_chunks(p, chunk_records=STREAM_CHUNK_RECORDS)])
        push_s, _ = _timed(rec, "collector.push", _push_loopback,
                           self.spool, names, live=False)
        leaves = _two_leaf_summary(rec, self.spool, names)
        wire = out["wire"]
        return {
            "simmachine.run_s": run_s,
            "instrument.hook_s": hook_s,
            "instrument.records": records,
            "instrument.host_overhead_pct": 100.0 * hook_s / run_s,
            "sim_overhead_pct": self.sim_overhead_pct(session.last_workload_end),
            "spool.write_s": layer["_run_spooled_s"] - inmem_s,
            "spool.bytes": sum(p.stat().st_size for p in spool_files),
            "spool.read_s": read_s,
            "parser.records_per_s": records / layer["parser.parse_s"],
            "summary.decode_s": leaves["summary.decode_s"],
            "summary.merge_s": leaves["summary.merge_s"],
            "summary.bytes": len(out["summary_text"]),
            "collector.push_s": push_s,
            "wire.frames": wire["frames_in"],
            "wire.bytes": wire["bytes_in"],
            "aggregator.accumulate_s": layer["_push_live_s"] - push_s,
            "aggregator.records_in": wire["records_in"],
            "aggregator.dup_records": wire["dup_records"],
            "aggregator.errors": wire["errors"],
        }


class _BundleProfile(Workload):
    """``tempest parse DIR``: load a saved bundle, run the parser.  Each
    unit's calls per function must equal a reference built at set-up."""

    SPAN_METRICS = {"trace.load": "trace.load_s", "parser.parse": "parser.parse_s"}
    STRICT = True
    #: what the reference call counts are, for failure messages
    REFERENCE = ""

    def _inputs(self):
        """``(records, symtab)`` for the bundle."""
        raise NotImplementedError

    def _reference(self, arr, symtab, bundle) -> dict[str, int]:
        raise NotImplementedError

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        arr, symtab = self._inputs()
        self.n_records = len(arr)
        self.bundle_dir = work / "bundle"
        bundle = inputs.save_bundle(self.bundle_dir, {"node1": arr}, symtab,
                                    seed=seed)
        self.reference = self._reference(arr, symtab, bundle)

    def unit(self, rec):
        with rec.span("trace.load", records=self.n_records):
            bundle = TraceBundle.load(self.bundle_dir,
                                      tolerate_truncation=not self.STRICT)
        with rec.span("parser.parse", records=self.n_records):
            return TempestParser(bundle, strict=self.STRICT).parse()

    def check(self, out):
        got = _calls(out)
        if got != self.reference:
            diff = sorted(set(got.items()) ^ set(self.reference.items()))
            return [f"n_calls differ from {self.REFERENCE}: {diff[:4]}"]
        return []

    def probe(self, rec, layer, out):
        bundle = TraceBundle.load(self.bundle_dir,
                                  tolerate_truncation=not self.STRICT)
        profile, metrics = _stream_profile(bundle, rec, strict=self.STRICT)
        spool_dir = self.work / "probe-spool"
        inputs.save_spools(spool_dir, {"node1": bundle.node("node1").columns.array},
                           bundle.symtab, seed=self.seed)
        read_s, _ = _timed(rec, "spool.read", lambda: [
            len(c) for c in iter_spool_chunks(spool_dir / "node1.spool",
                                              chunk_records=STREAM_CHUNK_RECORDS)])
        mismatch = compare_profiles(profile, out, full=self.STRICT)
        if mismatch:
            raise AssertionError(f"stream path != parser: {mismatch[:3]}")
        metrics.update({
            "parser.records_per_s": self.n_records / layer["parser.parse_s"],
            "spool.read_s": read_s,
            "spool.bytes": (spool_dir / "node1.spool").stat().st_size,
        })
        return metrics


class Profile1M(_BundleProfile):
    name = "profile-1m"
    why = ("1M-record clean trace: the profile engine alone on its vectorized "
           "fast path, no tree, no simulator")
    REFERENCE = "the ENTER counts"

    def _inputs(self):
        return inputs.flat_trace(self.seed, self.n(1_000_000))

    def _reference(self, arr, symtab, bundle):
        return inputs.enter_counts(arr, symtab)


class ProfileLenient(_BundleProfile):
    name = "profile-lenient"
    why = ("the same trace with an EXIT deleted in every other 32768-record "
           "block: half the chunks take the lenient repair paths")
    STRICT = False
    REFERENCE = "the stream-path reference"

    def _inputs(self):
        arr, symtab = inputs.flat_trace(self.seed, self.n(1_000_000))
        return inputs.damage(arr), symtab

    def _reference(self, arr, symtab, bundle):
        return _calls(stream_bundle_profile(bundle, strict=False))


class HotpathsZipf(Workload):
    name = "hotpaths-zipf"
    why = ("1M Zipf-skewed records, ~8.8k exact contexts against a 1024 "
           "budget: HCCT eviction pressure")
    SPAN_METRICS = {"trace.load": "trace.load_s",
                    "streamprof.profile": "_budgeted_s"}
    TOP = 10

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        arr, symtab = inputs.zipf_trace(seed, self.n(1_000_000))
        self.n_records = len(arr)
        self.bundle_dir = work / "bundle"
        bundle = inputs.save_bundle(self.bundle_dir, {"node1": arr}, symtab,
                                    seed=seed)
        exact = stream_bundle_profile(bundle, hcct_budget=0).context_tree()
        self.reference = {n.path: n.excl_s for n in self._top(exact)}

    def _top(self, tree):
        return [n for n in tree.hot_paths(self.TOP + 1) if n.path][: self.TOP]

    def unit(self, rec):
        with rec.span("trace.load", records=self.n_records):
            bundle = TraceBundle.load(self.bundle_dir)
        with rec.span("streamprof.profile", records=self.n_records):
            profile = stream_bundle_profile(bundle, hcct_budget=HCCT_BUDGET)
        with rec.span("cct.hot_paths"):
            tree = profile.context_tree()
            paths = tree.hot_paths(self.TOP + 1)
        return tree, paths

    def check(self, out):
        tree, paths = out
        bad = []
        if len(tree) > HCCT_BUDGET:
            bad.append(f"{len(tree)} live contexts > budget {HCCT_BUDGET}")
        top = [n for n in paths if n.path][: self.TOP]
        if [n.path for n in top] != list(self.reference):
            bad.append("top-10 paths differ from the exact tree's")
            return bad
        for n in top:
            true = self.reference[n.path]
            if not n.excl_s - 1e-9 <= true <= n.excl_s + n.error_s + 1e-9:
                bad.append(f"{n.path}: exact {true} outside "
                           f"[{n.excl_s}, {n.excl_s + n.error_s}]")
        return bad

    def probe(self, rec, layer, out):
        bundle = TraceBundle.load(self.bundle_dir)
        _, metrics = _stream_profile(bundle, rec, strict=True)
        flat_s = metrics["streamprof.consume_s"] + metrics["streamprof.finalize_s"]
        exact_s, _ = _timed(rec, "streamprof.profile_exact",
                            stream_bundle_profile, bundle, hcct_budget=0)
        tree = out[0]
        budgeted_s = layer["_budgeted_s"]
        metrics.update({
            "cct.tree_s": budgeted_s - flat_s,
            "cct.exact_tree_s": exact_s - flat_s,
            "cct.overhead_x": budgeted_s / flat_s,
            "cct.evicted": tree.n_evicted,
            "cct.live_contexts": len(tree),
            "hcct_epsilon_s": tree.epsilon_s,
        })
        return metrics


class Collect64(Workload):
    name = "collect-64"
    why = ("64 node streams pushed by 2 collector threads over real sockets "
           "into one selectors server: wire, server and aggregator")
    SPAN_METRICS = {"asyncserver.ingest": "asyncserver.ingest_s",
                    "aggregator.merged_profile": "aggregator.merged_profile_s"}
    N_NODES = 64
    N_THREADS = 2

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        self.n_per = self.n(31_250)
        children = np.random.SeedSequence(seed).spawn(self.N_NODES)
        arrays = {}
        for i, child in enumerate(children):
            arr, symtab = inputs.flat_trace(child, self.n_per)
            arrays[f"node{i:02d}"] = arr
        self.names = list(arrays)
        self.spools = work / "spools"
        inputs.save_spools(self.spools, arrays, symtab, seed=seed)
        self.server = self._start()

    def _start(self) -> AsyncAggregatorServer:
        return AsyncAggregatorServer(expected_nodes=self.N_NODES)

    def _push_share(self, names, acks, errors):
        host, port = self.server.host, self.server.port
        try:
            for name in names:
                client = CollectorClient.from_spool_header(
                    self.spools, name, lambda: SocketTransport(host, port),
                    config=CollectorConfig(chunk_records=4096))
                try:
                    acks[name] = client.push_spool(self.spools / f"{name}.spool")
                finally:
                    client.close()
        except Exception as exc:  # reported by check, never hangs the join
            errors.append(repr(exc))

    def unit(self, rec):
        acks: dict[str, int] = {}
        errors: list[str] = []
        with rec.span("asyncserver.ingest", streams=self.N_NODES,
                      records=self.n_per * self.N_NODES):
            threads = [
                threading.Thread(target=self._push_share,
                                 args=(self.names[i::self.N_THREADS], acks, errors))
                for i in range(self.N_THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            drained = self.server.wait_drained(timeout=60)
        with rec.span("aggregator.merged_profile"):
            profile = self.server.aggregator.merged_profile()
        if any(t.is_alive() for t in threads):
            errors.append("collector thread still running after 120 s")
        return {"profile": profile, "acks": acks, "errors": errors,
                "drained": drained,
                "wire": self.server.aggregator.metrics.to_dict()}

    def check(self, out):
        bad = list(out["errors"])
        wire = out["wire"]
        total = self.n_per * self.N_NODES
        if not out["drained"]:
            bad.append("not every source drained")
        if wire["errors"]:
            bad.append(f"{wire['errors']} wire errors")
        if wire["records_in"] != total:
            bad.append(f"records_in {wire['records_in']} != {total}")
        if sorted(out["acks"]) != self.names or \
                any(a != self.n_per for a in out["acks"].values()):
            bad.append("a collector's EOF receipt is short")
        if len(out["profile"].nodes) != self.N_NODES:
            bad.append(f"merged profile has {len(out['profile'].nodes)} nodes")
        return bad

    def reset(self):
        self.server.shutdown()
        self.server = self._start()

    def probe(self, rec, layer, out):
        push_s, _ = _timed(rec, "collector.push", _push_loopback,
                           self.spools, self.names, live=False)
        leaves = _two_leaf_summary(rec, self.spools, self.names)
        if len(leaves["profile"].nodes) != self.N_NODES:
            raise AssertionError("two-leaf summary lost nodes")
        wire = out["wire"]
        total = self.n_per * self.N_NODES
        ingest_s = layer["asyncserver.ingest_s"]
        metrics = {k: v for k, v in leaves.items() if k.startswith("summary.")}
        metrics.update({
            "collector.push_s": push_s,
            "wire.frames": wire["frames_in"],
            "wire.bytes": wire["bytes_in"],
            "aggregator.accumulate_s": leaves["push_live_s"] - push_s,
            "aggregator.records_in": wire["records_in"],
            "aggregator.dup_records": wire["dup_records"],
            "aggregator.errors": wire["errors"],
            "asyncserver.records_per_s": total / ingest_s,
            "asyncserver.transport_s": ingest_s - push_s,
        })
        return metrics

    def close(self):
        self.server.shutdown()


class Race1M(Workload):
    name = "race-1m"
    why = ("1M comm events from a clean 16-rank ring: the vector-clock "
           "sanitizer, ingest and finalize")

    def __init__(self, seed, scale, work):
        super().__init__(seed, scale, work)
        arrays = inputs.ring_trace(seed, self.n(1_000_000, floor=1000))
        self.n_events = sum(len(a) for a in arrays.values())
        self.bundle_dir = work / "bundle"
        inputs.save_bundle(self.bundle_dir, arrays, inputs.symbols(0)[0],
                           tsc_hz=inputs.RING_TSC_HZ, seed=seed)

    def unit(self, rec):
        with rec.span("causal.check", events=self.n_events):
            return causal_check_bundle(self.bundle_dir)

    def check(self, out):
        return [f"{d.rule}: {d.message}" for d in out[:3]]

    def probe(self, rec, layer, out):
        load_s, bundle = _timed(rec, "trace.load", TraceBundle.load,
                                self.bundle_dir)
        analyzer = CausalAnalyzer(path=str(self.bundle_dir))
        with rec.span("causal.consume") as consume:
            for name, trace in bundle.nodes.items():
                analyzer.add_node(name, trace.tsc_hz)
                for chunk in trace.iter_column_chunks(STREAM_CHUNK_RECORDS):
                    analyzer.consume(name, chunk)
        consume_s = consume.seconds
        finalize_s, diags = _timed(rec, "causal.finalize", analyzer.finalize)
        if analyzer.n_comm_events != self.n_events:
            raise AssertionError(f"analyzer counted {analyzer.n_comm_events} "
                                 f"of {self.n_events} events")
        return {
            "trace.load_s": load_s,
            "causal.consume_s": consume_s,
            "causal.finalize_s": finalize_s,
            "causal.events_per_s": self.n_events / (consume_s + finalize_s),
            "causal.diagnostics": len(diags),
        }


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (NpbBt, Profile1M, ProfileLenient, HotpathsZipf, Collect64, Race1M)
}
