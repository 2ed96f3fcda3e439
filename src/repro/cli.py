"""Command-line interface: the ``tempest`` tool.

Mirrors the paper's workflow from the terminal:

* ``tempest micro --bench D`` — run a Table 1 micro-benchmark on the
  simulated node and print the Figure 2(a) report (and 2(b) plot).
* ``tempest npb --bench FT --klass W --ranks 4`` — run an NPB code on the
  simulated cluster, print per-node reports and the stacked cluster plot.
* ``tempest parse <bundle>`` — post-process a saved trace bundle.
* ``tempest sensors [--root PATH]`` — list hwmon sensors (real Linux or a
  materialized virtual tree).
* ``tempest check <path>...`` — static analysis: TraceLint over bundles
  and spool directories, LabLint over laboratories, the repo lint over
  Python sources.
* ``tempest lab ...`` — the experiment laboratory: manifested runs,
  campaigns, sweeps, rerun/verify/query/diff (see :mod:`repro.lab`).
* ``tempest top --metrics-json FILE`` — live view over a running
  aggregator's metrics snapshots.

Every subcommand follows one exit-code contract: **0** clean, **1**
findings (failed verification, lint/check diagnostics, diff problems,
rerun drift, regressions), **2** usage error or crash (bad arguments,
unreadable inputs, any :class:`ReproError` escaping a command).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.core import TempestParser, TempestSession, render_stdout_report
from repro.core.ascii_plot import render_cluster_profile, render_function_profile
from repro.core.report import dump_csv, dump_json
from repro.core.trace import TraceBundle, is_trace_dir, read_trace_header
from repro.simmachine.machine import ClusterConfig, Machine
from repro.util.canonjson import canon_dumps
from repro.util.errors import ConfigError, ReproError


def _add_inject_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--inject", default=None, metavar="SPEC",
        help="fault-injection spec, e.g. "
             "'sweep_failure_rate=0.2,record_loss_rate=0.05,crashes=1' "
             "(keys are repro.faults.FaultConfig fields; "
             "nodes=node1+node3 limits the blast radius)")
    p.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed for the fault schedule (default: the run seed)")


def _make_injector(args, machine):
    """Build the session's FaultInjector from --inject, or None."""
    if getattr(args, "inject", None) is None:
        return None
    from repro.faults import FaultInjector

    seed = args.fault_seed if args.fault_seed is not None else args.seed
    return FaultInjector.from_spec(args.inject, seed, machine.node_names())


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--celsius", action="store_true",
                   help="report degC instead of degF")
    p.add_argument("--format", choices=["text", "csv", "json"],
                   default="text")
    p.add_argument("--save-trace", type=Path, default=None,
                   help="directory to save the raw trace bundle")
    p.add_argument("--html", type=Path, default=None,
                   help="also write a self-contained HTML report here")


def _add_live_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--live", type=float, default=None, metavar="SECONDS",
        help="print a live hotspot snapshot every SECONDS of simulated "
             "time while the workload runs (streaming engine)")


def _live_session_kwargs(args) -> dict:
    """Progress-callback kwargs for TempestSession when --live is set."""
    if getattr(args, "live", None) is None:
        return {}
    from repro.core.report import render_live_snapshot

    fahrenheit = not args.celsius

    def on_progress(profile, sim_now):
        print(render_live_snapshot(profile, sim_now, fahrenheit=fahrenheit))
        print()

    return {"on_progress": on_progress, "progress_interval_s": args.live}


def _emit(profile, args) -> None:
    fahrenheit = not args.celsius
    if args.format == "csv":
        print(dump_csv(profile, fahrenheit=fahrenheit), end="")
    elif args.format == "json":
        print(dump_json(profile, fahrenheit=fahrenheit))
    else:
        print(render_stdout_report(profile, fahrenheit=fahrenheit))
    if getattr(args, "html", None):
        from repro.core.htmlreport import render_html_report

        args.html.write_text(
            render_html_report(profile, fahrenheit=fahrenheit)
        )
        print(f"HTML report written to {args.html}", file=sys.stderr)


def cmd_micro(args) -> int:
    from repro.workloads.microbench import ALL_MICROS

    machine = Machine(ClusterConfig(n_nodes=1, seed=args.seed,
                                    vary_nodes=False))
    injector = _make_injector(args, machine)
    session = TempestSession(machine, injector=injector,
                             **_live_session_kwargs(args))
    bench = ALL_MICROS[args.bench.upper()]
    session.run_serial(bench, "node1", 0)
    profile = session.profile(strict=injector is None)
    _emit(profile, args)
    if args.plot:
        node = profile.node("node1")
        sensor = node.sensor_names()[0]
        print()
        print(render_function_profile(node, sensor,
                                      bundle=session.collect(),
                                      fahrenheit=not args.celsius))
    if args.save_trace:
        session.collect().save(args.save_trace)
        print(f"\ntrace bundle written to {args.save_trace}", file=sys.stderr)
    return 0


def _npb_setup(args):
    """Shared NPB command plumbing: resolve the benchmark and its config.

    Returns (program, config, name) or None after printing an error.
    """
    from repro.workloads.npb import BENCHMARKS
    from repro.workloads.npb import bt, cg, ep, ft, is_, lu, mg

    configs = {
        "FT": lambda: ft.FTConfig(klass=args.klass, iterations=args.iters),
        "BT": lambda: bt.BTConfig(klass=args.klass, iterations=args.iters),
        "CG": lambda: cg.CGConfig(klass=args.klass, niter=args.iters),
        "EP": lambda: ep.EPConfig(klass=args.klass),
        "MG": lambda: mg.MGConfig(klass=args.klass, iterations=args.iters),
        "IS": lambda: is_.ISConfig(klass=args.klass, iterations=args.iters),
        "LU": lambda: lu.LUConfig(klass=args.klass, iterations=args.iters),
    }
    bench_name = args.bench.upper()
    if bench_name not in BENCHMARKS:
        print(f"unknown benchmark {args.bench!r}; have {sorted(BENCHMARKS)}",
              file=sys.stderr)
        return None
    return (BENCHMARKS[bench_name], configs[bench_name](),
            f"{bench_name}.{args.klass}.{args.ranks}")


def cmd_npb(args) -> int:
    setup = _npb_setup(args)
    if setup is None:
        return 2
    program, config, run_name = setup
    machine = Machine(ClusterConfig(n_nodes=args.nodes, seed=args.seed))
    injector = _make_injector(args, machine)
    session = TempestSession(machine, injector=injector,
                             **_live_session_kwargs(args))
    session.run_mpi(lambda ctx: program(ctx, config), args.ranks,
                    name=run_name)
    profile = session.profile(strict=injector is None)
    _emit(profile, args)
    if args.plot:
        sensor = profile.node(profile.node_names()[0]).sensor_names()[0]
        print()
        print(render_cluster_profile(profile, sensor,
                                     fahrenheit=not args.celsius))
    if args.save_trace:
        session.collect().save(args.save_trace)
        print(f"\ntrace bundle written to {args.save_trace}", file=sys.stderr)
    return 0


def cmd_hotspots(args) -> int:
    """Run an NPB benchmark and print the hot-spot analysis (questions 1-3)."""
    import dataclasses
    from repro.analysis.hotspots import hot_nodes, identify_hot_spots
    from repro.analysis.optimize import recommend

    setup = _npb_setup(args)
    if setup is None:
        return 2
    program, config, run_name = setup
    machine = Machine(ClusterConfig(n_nodes=args.nodes, seed=args.seed))
    injector = _make_injector(args, machine)
    session = TempestSession(machine, injector=injector)
    session.run_mpi(lambda ctx: program(ctx, config), args.ranks,
                    name=run_name)
    profile = session.profile(strict=injector is None)

    nodes = hot_nodes(profile)
    spots = identify_hot_spots(profile, top_n=args.top)
    recs = recommend(profile, top_n=args.top)

    print("Hot nodes (mean CPU temperature, hottest first):")
    for name, mean_c in nodes:
        print(f"  {name:<8} {mean_c:6.1f} C")
    print()
    print(f"Top {args.top} hot spots:")
    for spot in spots:
        print(f"  {spot.describe()}")
    print()
    print("Recommendations:")
    for rec in recs:
        print(f"  {rec.function} on {rec.node}: {rec.reason}")
    if args.json:
        # The machine-readable contract mirrors `tempest check --json`:
        # a versioned format tag, written to a file, noted on stderr.
        args.json.write_text(canon_dumps({
            "format": "tempest-hotspots-v1",
            "bench": run_name,
            "hot_nodes": [
                {"node": name, "mean_c": mean_c} for name, mean_c in nodes
            ],
            "hot_spots": [dataclasses.asdict(s) for s in spots],
            "recommendations": [dataclasses.asdict(r) for r in recs],
        }))
        print(f"hotspot report written to {args.json}", file=sys.stderr)
    return 0


def _path_str(path: tuple) -> str:
    return " > ".join(path) if path else "<root>"


def _sensor_means(node, fahrenheit: bool) -> dict[str, float]:
    """Per-sensor mean along a context, in the report's temperature unit."""
    out = {}
    for sensor, st in node.stats.items():
        if st.n:
            mean = st.avg
            out[sensor] = mean * 9.0 / 5.0 + 32.0 if fahrenheit else mean
    return out


def cmd_hotpaths(args) -> int:
    """Rank hot calling contexts: which *call path* is hot, not just which
    function.  Runs an NPB benchmark (or analyzes ``--bundle``) through
    the streaming engine with an HCCT budget, merges the per-node trees,
    and prints the top-k contexts plus every hot function whose
    exclusive time splits across more than one calling context."""
    from repro.core.streamprof import stream_bundle_profile

    budget = args.hcct_budget
    if args.bundle is not None:
        bundle = TraceBundle.load(args.bundle,
                                  tolerate_truncation=args.lenient)
        profile = stream_bundle_profile(bundle, strict=not args.lenient,
                                        hcct_budget=budget)
        source = str(args.bundle)
    else:
        setup = _npb_setup(args)
        if setup is None:
            return 2
        program, config, run_name = setup
        machine = Machine(ClusterConfig(n_nodes=args.nodes, seed=args.seed))
        injector = _make_injector(args, machine)
        session = TempestSession(machine, injector=injector)
        session.run_mpi(lambda ctx: program(ctx, config), args.ranks,
                        name=run_name)
        profile = stream_bundle_profile(session.collect(),
                                        strict=injector is None,
                                        hcct_budget=budget)
        source = run_name

    tree = profile.context_tree()
    if tree is None or not any(n.path for n in tree.hot_paths(1)):
        print("no calling contexts recorded", file=sys.stderr)
        return 2
    fahrenheit = not args.celsius
    unit = "F" if fahrenheit else "C"

    hot = [n for n in tree.hot_paths(args.top + 1) if n.path][: args.top]
    print(f"Top {len(hot)} hot calling contexts "
          f"(cluster-wide, by exclusive weight; budget "
          f"{'unbounded' if not budget else budget}, "
          f"{tree.n_evicted} contexts evicted):")
    for i, n in enumerate(hot, 1):
        err = f" +/-{n.error_s:.3f}" if n.error_s else ""
        temps = _sensor_means(n, fahrenheit)
        tstr = "  ".join(f"{s} {v:5.1f}{unit}" for s, v in sorted(temps.items()))
        print(f"  {i:>2}. {n.excl_s:8.3f}s{err}  x{n.calls:<5} "
              f"{tstr + '  ' if tstr else ''}{_path_str(n.path)}")

    # The paper's motivating question: a function that is hot only under
    # one caller.  Show every hot-listed function with >= 2 contexts.
    split = []
    for fn in sorted({n.function for n in hot}):
        ctxs = tree.function_contexts(fn)
        if len(ctxs) >= 2:
            split.append((fn, ctxs))
    if split:
        print()
        print("Context-split functions (exclusive time by calling context):")
        for fn, ctxs in split:
            total = sum(c.excl_s for c in ctxs) or 1.0
            print(f"  {fn}: {len(ctxs)} contexts")
            for c in ctxs:
                temps = _sensor_means(c, fahrenheit)
                tstr = "  ".join(f"{s} {v:5.1f}{unit}"
                                 for s, v in sorted(temps.items()))
                print(f"    {c.excl_s:8.3f}s ({100.0 * c.excl_s / total:3.0f}%)"
                      f"  {tstr + '  ' if tstr else ''}{_path_str(c.path)}")

    if args.json:
        # Same machine-readable contract as `tempest check --json`.
        def ctx_obj(n):
            return {
                "path": list(n.path),
                "excl_s": n.excl_s,
                "incl_s": n.incl_s,
                "calls": n.calls,
                "error_s": n.error_s,
                "sensors": {
                    s: {"n": st.n, "avg_c": st.avg, "min_c": st.min,
                        "max_c": st.max}
                    for s, st in sorted(n.stats.items()) if st.n
                },
            }

        args.json.write_text(canon_dumps({
            "format": "tempest-hotpaths-v1",
            "source": source,
            "hcct_budget": budget,
            "n_contexts": len(tree),
            "n_evicted": tree.n_evicted,
            "epsilon_s": tree.epsilon_s,
            "hot_paths": [ctx_obj(n) for n in hot],
            "split_functions": {
                fn: [ctx_obj(c) for c in ctxs] for fn, ctxs in split
            },
        }))
        print(f"hotpaths report written to {args.json}", file=sys.stderr)
    return 0


def cmd_parse(args) -> int:
    """Profile a trace directory: a closed one through the parser, a
    live spool chunk by chunk in constant memory."""
    path = args.bundle
    if read_trace_header(path).closed:
        if args.chunk_records is not None or args.hcct_budget is not None:
            raise ConfigError(
                f"{path} is a closed trace directory; --chunk-records "
                "and --hcct-budget apply to live spool directories only"
            )
        bundle = TraceBundle.load(path, tolerate_truncation=args.lenient)
        profile = TempestParser(bundle, strict=not args.lenient).parse()
    else:
        from repro.core.streamprof import stream_spool_profile

        profile = stream_spool_profile(
            path,
            chunk_records=args.chunk_records,
            strict=not args.lenient,
            hcct_budget=args.hcct_budget,
        )
    _emit(profile, args)
    return 0


def cmd_compare(args) -> int:
    """Diff two saved trace bundles function by function."""
    from repro.analysis.diffprof import diff_profiles, render_diff

    before, after = (
        TempestParser(TraceBundle.load(path, tolerate_truncation=args.lenient),
                      strict=not args.lenient).parse()
        for path in (args.before, args.after))
    deltas = diff_profiles(before, after)
    if not deltas:
        # Incomparable inputs are a usage problem, not a diff finding.
        print("no common nodes between the two bundles", file=sys.stderr)
        return 2
    print(render_diff(deltas, min_time_s=args.min_time))
    if args.json:
        # Same machine-readable contract as `tempest check --json`.
        args.json.write_text(canon_dumps({
            "format": "tempest-compare-v1",
            "before": str(args.before),
            "after": str(args.after),
            "deltas": [
                {
                    "node": d.node,
                    "function": d.function,
                    "status": d.status,
                    "time_before_s": d.time_before_s,
                    "time_after_s": d.time_after_s,
                    "time_ratio": d.time_ratio,
                    "avg_before_c": d.avg_before_c,
                    "avg_after_c": d.avg_after_c,
                    "avg_delta_c": d.avg_delta_c,
                }
                for d in deltas
            ],
        }))
        print(f"compare report written to {args.json}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    """Run the NPB built-in verifications (real numerics vs oracles)."""
    from repro.workloads.npb.verify import VERIFIERS, verify_all

    names = [b.upper() for b in args.bench] if args.bench else None
    unknown = [n for n in (names or []) if n not in VERIFIERS]
    if unknown:
        print(f"unknown benchmark(s) {unknown}; have {sorted(VERIFIERS)}",
              file=sys.stderr)
        return 2
    results = verify_all(names)
    for r in results:
        print(r.describe())
    if args.json:
        # Same machine-readable contract as `tempest check --json`.
        args.json.write_text(canon_dumps({
            "format": "tempest-verify-v1",
            "verified": all(r.verified for r in results),
            "results": [
                {
                    "benchmark": r.benchmark,
                    "verified": r.verified,
                    "error": r.error,
                    "epsilon": r.epsilon,
                    "detail": r.detail,
                }
                for r in results
            ],
        }))
        print(f"verify report written to {args.json}", file=sys.stderr)
    return 0 if all(r.verified for r in results) else 1


def cmd_sensors(args) -> int:
    from repro.core.sensors import HwmonSensorReader, SensorError

    try:
        reader = (HwmonSensorReader(args.root) if args.root
                  else HwmonSensorReader())
    except SensorError as exc:
        # No hwmon tree is an environment problem, not a finding: exit 2.
        print(f"no sensors: {exc}", file=sys.stderr)
        return 2
    readings = [(reader.sensor_names()[idx], value)
                for idx, value in reader.read_all()]
    for name, value in readings:
        print(f"{name:<24} {value:6.1f} C")
    if args.json:
        # Same machine-readable contract as `tempest check --json`.
        args.json.write_text(canon_dumps({
            "format": "tempest-sensors-v1",
            "sensors": [
                {"name": name, "value_c": value} for name, value in readings
            ],
        }))
        print(f"sensor report written to {args.json}", file=sys.stderr)
    return 0


def _parse_hostport(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise ReproError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host or "127.0.0.1", int(port)


def cmd_serve(args) -> int:
    """Run the cluster aggregator: accept collector streams, merge, drain.

    Three roles:

    * ``standalone`` (default) — classic single-tier aggregation:
      collectors in, merged profile out;
    * ``leaf`` — additionally condense everything accepted into
      ``tempest-summary-v3`` snapshots and ship them to ``--upstream``
      (periodically while draining, then a verified final one);
    * ``root`` — accept SUMMARY streams from leaf aggregators (and any
      directly-connected collectors) and compose the global profile
      from the summary algebra, never the raw records.

    Exit 0 when every expected source drained completely; 1 when the
    drain timed out or an EOF receipt fell short.
    """
    from repro.cluster import AggregatorServer

    host, port = _parse_hostport(args.bind)
    live = args.role in ("leaf", "root")
    server = AggregatorServer(
        host, port, live=live,
        hcct_budget=args.hcct_budget,
        expected_nodes=args.nodes,
        stale_timeout_s=args.stale_timeout,
        metrics_json=args.metrics_json,
        metrics_interval_s=args.metrics_interval,
    )
    print(f"aggregator listening on {server.host}:{server.port}",
          file=sys.stderr, flush=True)

    pump = None
    uplink = None
    if args.role == "leaf":
        from repro.cluster import LeafUplink, SocketTransport, SummaryPump

        if not args.upstream:
            print("tempest serve: --role leaf requires --upstream",
                  file=sys.stderr)
            server.shutdown()
            return 2
        up_host, up_port = _parse_hostport(args.upstream)
        leaf_name = args.leaf_name or f"leaf-{server.host}-{server.port}"
        uplink = LeafUplink(
            leaf_name,
            lambda: SocketTransport(up_host, up_port),
            run=args.run,
        )
        pump = SummaryPump(server.aggregator, uplink,
                           interval_s=args.summary_interval).start()

    drained = server.wait_drained(args.timeout)

    finished = True
    if args.role == "leaf":
        pump.stop()
        agg = server.aggregator
        if agg.nodes:
            final = agg.run_summary(final=True)
            finished = uplink.finish(final, final.n_records)
            if not finished:
                print("tempest serve: final summary never reached the "
                      "root", file=sys.stderr)
        uplink.close()
    server.shutdown()
    agg = server.aggregator

    nodes_report = {}
    complete = drained and finished
    for name in sorted(agg.nodes):
        node = agg.nodes[name]
        nodes_report[name] = {
            "n_records": node.n_records,
            "declared_total": node.declared_total,
            "drained": node.drained,
        }
        if not node.drained:
            complete = False
    leaves_report = {}
    for name in sorted(agg.leaves):
        leaf = agg.leaves[name]
        leaves_report[name] = {
            "last_seq": leaf.last_seq,
            "records": leaf.records,
            "drained": leaf.drained,
        }
        if not leaf.drained:
            complete = False
    print(f"drained={drained} nodes={len(agg.nodes)} "
          f"leaves={len(agg.leaves)}", file=sys.stderr)
    for key, value in agg.metrics.to_dict().items():
        print(f"  {key:<18} {value}", file=sys.stderr)

    if args.role == "root" and (agg.leaves or agg.nodes):
        summary = agg.composed_summary()
        if summary.nodes:
            _emit(summary.to_profile(), args)
        if args.summary_out:
            args.summary_out.write_text(canon_dumps(summary.to_dict()))
            print(f"composed summary written to {args.summary_out}",
                  file=sys.stderr)
    elif agg.nodes and any(n.n_records for n in agg.nodes.values()):
        profile = agg.merged_profile()
        _emit(profile, args)
        if args.summary_out and agg.live:
            summary = agg.run_summary(final=True)
            args.summary_out.write_text(canon_dumps(summary.to_dict()))
            print(f"run summary written to {args.summary_out}",
                  file=sys.stderr)
    if args.out:
        agg.save_bundle(args.out)
        print(f"trace bundle written to {args.out}", file=sys.stderr)
    if args.json:
        args.json.write_text(canon_dumps({
            "format": "tempest-serve-v1",
            "role": args.role,
            "drained": bool(complete),
            "metrics": agg.metrics.to_dict(),
            "nodes": nodes_report,
            "leaves": leaves_report,
        }))
        print(f"serve report written to {args.json}", file=sys.stderr)
    return 0 if complete else 1


def cmd_push(args) -> int:
    """Push a trace directory's nodes (usually a finalized spool) to a
    running aggregator."""
    from repro.cluster import CollectorClient, CollectorConfig, SocketTransport

    host, port = _parse_hostport(args.connect)
    header = read_trace_header(args.spool_dir)
    node_names = sorted(header.nodes)
    if args.node:
        if args.node not in header.nodes:
            print(f"tempest push: {args.spool_dir} has no node "
                  f"{args.node!r}; have {node_names}", file=sys.stderr)
            return 2
        node_names = [args.node]

    config = CollectorConfig(
        chunk_records=args.chunk_records,
        queue_frames=args.queue_frames,
        queue_policy=args.policy,
    )
    report = {}
    complete = True
    for name in node_names:
        spool_file = header.nodes[name].path
        records = header.nodes[name].stat_records()
        if records.error is not None:
            print(f"tempest push: {spool_file} missing, skipping",
                  file=sys.stderr)
            complete = False
            continue
        client = CollectorClient.from_spool_header(
            args.spool_dir, name,
            lambda: SocketTransport(host, port),
            run=args.run,
            config=config,
        )
        total = records.n
        acked = client.push_spool(spool_file)
        client.close()
        report[name] = {
            "records_total": total,
            "records_acked": acked,
            "metrics": client.metrics.to_dict(),
        }
        print(f"{name}: {acked}/{total} records acknowledged "
              f"({client.metrics.reconnects} reconnects, "
              f"{client.metrics.records_dropped} dropped under "
              "backpressure)", file=sys.stderr)
        if acked < total:
            complete = False
    if args.json:
        args.json.write_text(canon_dumps({
            "format": "tempest-push-v1",
            "nodes": report,
        }))
        print(f"push report written to {args.json}", file=sys.stderr)
    return 0 if complete else 1


def _print_rules_catalogue() -> None:
    from repro.check import RULES

    for r in sorted(RULES.values(), key=lambda r: r.id):
        line = f"{r.id}  {r.severity:<7}  {r.name:<24}  {r.invariant}"
        if r.tolerance != "exact":
            line += f"  [tolerance: {r.tolerance}]"
        print(line)


def cmd_check(args) -> int:
    """Static analysis: TraceLint trace directories, LabLint
    laboratories, repo-lint Python sources.

    Each path is dispatched by inspection: a trace directory (a bundle
    or a spool, :func:`~repro.core.trace.is_trace_dir`) goes through
    TraceLint, a directory holding ``lab.json`` is an experiment
    laboratory (TL025-TL027), and ``.py`` files or directories
    containing them go through :mod:`repro.devtools.lint`.  Anything
    else is a usage error.
    """
    from repro.check import CheckReport
    from repro.check.labcheck import check_lab_dir
    from repro.check.tracelint import check_path, compare_bundle_dirs
    from repro.devtools.lint import _iter_py_files, lint_paths

    if args.rules:
        _print_rules_catalogue()
        return 0
    if not args.paths:
        print("tempest check: give at least one path (or --rules)",
              file=sys.stderr)
        return 2
    if args.baseline is not None and not is_trace_dir(args.baseline):
        print(f"tempest check: --baseline {args.baseline}: not a trace "
              "bundle or spool directory", file=sys.stderr)
        return 2

    report = CheckReport()
    lint_targets: list[Path] = []
    for raw in args.paths:
        p = Path(raw)
        if is_trace_dir(p):
            report.add_checked(str(p))
            report.extend(check_path(p, deep=not args.no_deep))
            if args.baseline is not None:
                # TL022: the reassembled bundle (e.g. from wire chunks)
                # must hold the baseline's record bytes.
                report.extend(compare_bundle_dirs(args.baseline, p))
        elif p.is_dir() and (p / "lab.json").is_file():
            report.add_checked(str(p))
            report.extend(check_lab_dir(p))
        elif (p.is_file() and p.suffix == ".py") or (
                p.is_dir() and _iter_py_files([p])):
            lint_targets.append(p)
        else:
            kind = "directory" if p.is_dir() else "path"
            print(f"tempest check: {p}: not a trace bundle, spool "
                  f"directory, laboratory, or Python source {kind}",
                  file=sys.stderr)
            return 2
    if lint_targets:
        for p in lint_targets:
            report.add_checked(str(p))
        report.extend(lint_paths(lint_targets))

    print(report.render())
    if args.json:
        args.json.write_text(report.to_json())
        print(f"diagnostics written to {args.json}", file=sys.stderr)
    return report.exit_code(strict=args.strict)


def cmd_race(args) -> int:
    """Communication sanitizer: vector-clock analysis of recorded MPI traces.

    Each path must be a trace directory, closed or live (run in live
    mode); the causal analyzer streams its comm records and reports
    message races, wait-for cycles, collective mismatches, unmatched
    requests, and causal TSC-skew violations (CM0xx).  A path that is
    not a trace directory, whose header is malformed, or whose record
    file does not hold the count a closed header declares, is an error
    (exit 2): a verdict on records that are not all there is made up.
    """
    from repro.check import CheckReport
    from repro.check.causal import causal_check_bundle

    if not args.paths:
        print("tempest race: give at least one trace bundle or spool "
              "directory", file=sys.stderr)
        return 2
    report = CheckReport()
    for raw in args.paths:
        p = Path(raw)
        report.add_checked(str(p))
        report.extend(causal_check_bundle(
            p, skew_tolerance_s=args.skew_tolerance))
    print(report.render())
    if args.json:
        args.json.write_text(report.to_json())
        print(f"diagnostics written to {args.json}", file=sys.stderr)
    return report.exit_code(strict=args.strict)


def cmd_top(args) -> int:
    """Live view over a serve aggregator's ``--metrics-json`` snapshots.

    Curses-free: a TTY gets ANSI home-and-clear between frames, a pipe
    gets frames separated by blank lines, and ``--once`` prints exactly
    one frame (for CI assertions).  Rates and staleness come from
    successive snapshots, so a wedged pusher is visible even while the
    server keeps rewriting the file.
    """
    import time as _time

    from repro.cluster.topview import SourceTracker, read_snapshot, render_top

    tracker = SourceTracker()
    doc = read_snapshot(args.metrics_json)
    if doc is None:
        print(f"tempest top: {args.metrics_json}: no readable "
              "tempest-serve-metrics-v1 snapshot (is `tempest serve "
              "--metrics-json` running?)", file=sys.stderr)
        return 2
    if args.once:
        print(render_top(doc, tracker, _time.monotonic(),
                         stale_after_s=args.stale_after))
        return 0
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    try:
        while True:
            frame = render_top(doc, tracker, _time.monotonic(),
                               stale_after_s=args.stale_after)
            print(f"{clear}{frame}" if clear else f"{frame}\n")
            _time.sleep(args.interval)
            fresh = read_snapshot(args.metrics_json)
            if fresh is not None:
                doc = fresh   # torn/missing read: keep the last frame
    except KeyboardInterrupt:
        return 0


def _add_lab_spec_args(p: argparse.ArgumentParser) -> None:
    """Run-spec arguments shared by ``lab run`` (mirrors ``npb``)."""
    p.add_argument("--bench", default="FT", help="NPB benchmark code")
    p.add_argument("--micro", default=None, metavar="X",
                   help="run micro-benchmark X instead of an NPB code")
    p.add_argument("--klass", default="S", help="problem class S/W/A/B/C")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--iters", type=int, default=None,
                   help="override the class iteration count")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--platform", default="default",
                   help="'default' or a platform preset "
                        "(opteron, system-x, g5)")
    p.add_argument("--hcct-budget", type=int, default=None, metavar="N",
                   help="also record hot calling-context trees "
                        "(contexts per node)")
    p.add_argument("--label", default="", help="free-form run tag")
    _add_inject_args(p)


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="tempest",
        description="Tempest thermal profiler (ICPP 2007 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"tempest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("micro", help="run a Table 1 micro-benchmark")
    p.add_argument("--bench", default="D", choices=list("ABCDEabcde"))
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--plot", action="store_true")
    _add_output_args(p)
    _add_inject_args(p)
    _add_live_args(p)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("npb", help="run an NPB benchmark on the simulated cluster")
    p.add_argument("--bench", default="FT")
    p.add_argument("--klass", default="W", help="problem class S/W/A/B/C")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--iters", type=int, default=None,
                   help="override the class iteration count")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--plot", action="store_true")
    _add_output_args(p)
    _add_inject_args(p)
    _add_live_args(p)
    p.set_defaults(fn=cmd_npb)

    p = sub.add_parser("hotspots",
                       help="run an NPB code and rank its thermal hot spots")
    p.add_argument("--bench", default="BT")
    p.add_argument("--klass", default="W")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--top", type=int, default=5)
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-hotspots-v1 JSON report here")
    _add_inject_args(p)
    p.set_defaults(fn=cmd_hotspots)

    p = sub.add_parser(
        "hotpaths",
        help="rank hot calling contexts (HCCT) instead of flat functions")
    p.add_argument("--bench", default="FT")
    p.add_argument("--klass", default="W")
    p.add_argument("--ranks", type=int, default=4)
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--bundle", type=Path, default=None, metavar="DIR",
                   help="analyze this saved trace bundle instead of "
                        "running a benchmark")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--top", type=int, default=10,
                   help="contexts to list")
    p.add_argument("--hcct-budget", type=int, default=1024, metavar="N",
                   help="max tracked contexts (space-saving eviction "
                        "beyond this; 0 = unbounded exact CCT)")
    p.add_argument("--celsius", action="store_true",
                   help="report degC instead of degF")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-hotpaths-v1 JSON report here")
    _add_inject_args(p)
    p.set_defaults(fn=cmd_hotpaths)

    p = sub.add_parser("parse",
                       help="parse a saved trace bundle or spool directory")
    p.add_argument("bundle", type=Path,
                   help="a trace directory: a closed one (--save-trace; "
                        "its header declares every node's record count) "
                        "is parsed whole, a live spool (spool_dir) chunk "
                        "by chunk; each spool chunk is put in time order, "
                        "so a spool profiles like the bundle loaded from "
                        "it unless a record arrives more than one chunk "
                        "late; a malformed header, or a record file torn "
                        "or short of its count, is an error (exit 2; "
                        "--lenient recovers a short file)")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--chunk-records", type=int, default=None,
                   help="spools only: records per streaming chunk "
                        "(default: the streaming read size, 32768 — the "
                        "engine amortizes per-chunk cost over big "
                        "chunks)")
    p.add_argument("--hcct-budget", type=int, default=None, metavar="N",
                   help="spools only: also build hot calling-context "
                        "trees, at most N tracked contexts per node "
                        "(0 = unbounded exact CCT; default: off)")
    _add_output_args(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("verify",
                       help="run NPB numerical verifications against oracles")
    p.add_argument("bench", nargs="*",
                   help="benchmarks to verify (default: all)")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-verify-v1 JSON report here")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compare",
                       help="diff two trace bundles function by function")
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--min-time", type=float, default=0.01,
                   help="hide functions shorter than this in both runs")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-compare-v1 JSON report here")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("sensors", help="list hwmon thermal sensors")
    p.add_argument("--root", type=Path, default=None)
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-sensors-v1 JSON report here")
    p.set_defaults(fn=cmd_sensors)

    p = sub.add_parser(
        "serve",
        help="run the cluster aggregator for tempest-wire-v1 collectors")
    p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT",
                   help="listen address (port 0 picks a free port, "
                        "printed on stderr)")
    p.add_argument("--nodes", type=int, default=None, metavar="N",
                   help="drain once N distinct nodes have sent EOF "
                        "(default: whatever connects)")
    p.add_argument("--timeout", type=float, default=60.0, metavar="SECONDS",
                   help="give up waiting for the drain after this long")
    p.add_argument("--role", choices=["standalone", "leaf", "root"],
                   default="standalone",
                   help="standalone: classic single-tier aggregation; "
                        "leaf: also ship summary snapshots to --upstream; "
                        "root: compose the global profile from leaf "
                        "summaries")
    p.add_argument("--upstream", default=None, metavar="HOST:PORT",
                   help="root aggregator address (required for --role leaf)")
    p.add_argument("--run", default="default", metavar="ID",
                   help="run id this aggregator's uplink summaries "
                        "belong to")
    p.add_argument("--leaf-name", default=None, metavar="NAME",
                   help="leaf identity on the root (default: "
                        "leaf-HOST-PORT)")
    p.add_argument("--summary-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="leaf snapshot cadence while draining")
    p.add_argument("--hcct-budget", type=int, default=None, metavar="N",
                   help="build hot calling-context trees on the live "
                        "profiler, at most N tracked contexts per node; "
                        "leaf summaries then carry mergeable HCCTs "
                        "(0 = unbounded; default: off)")
    p.add_argument("--summary-out", type=Path, default=None, metavar="FILE",
                   help="write the final tempest-summary-v3 JSON here "
                        "(root: composed; leaf: own)")
    p.add_argument("--stale-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="evict sources silent for this long instead of "
                        "letting them wedge the drain")
    p.add_argument("--metrics-json", type=Path, default=None, metavar="FILE",
                   help="write periodic tempest-serve-metrics-v1 "
                        "snapshots here (atomic rewrite)")
    p.add_argument("--metrics-interval", type=float, default=1.0,
                   metavar="SECONDS",
                   help="metrics snapshot cadence")
    p.add_argument("--out", type=Path, default=None, metavar="DIR",
                   help="save the merged trace here, a closed trace "
                        "directory")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-serve-v1 JSON report here")
    _add_output_args(p)
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "push",
        help="push a finalized spool directory to a running aggregator")
    p.add_argument("spool_dir", type=Path,
                   help="a trace directory, usually a finalized spool; a "
                        "malformed header is an error (exit 2)")
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="aggregator address")
    p.add_argument("--node", default=None,
                   help="push only this node's spool (default: all)")
    p.add_argument("--chunk-records", type=int, default=4096,
                   help="records per CHUNK frame")
    p.add_argument("--queue-frames", type=int, default=8,
                   help="bounded send-queue capacity, in frames")
    p.add_argument("--policy", choices=["block", "drop"], default="block",
                   help="full-queue policy: block (lossless backpressure) "
                        "or drop (evict oldest, recover via resume)")
    p.add_argument("--run", default=None, metavar="ID",
                   help="route the stream into this run on the "
                        "aggregator's registry (default run if omitted)")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-push-v1 JSON report here")
    p.set_defaults(fn=cmd_push)

    p = sub.add_parser(
        "check",
        help="run TraceLint / repo lint over bundles, spools, and sources")
    p.add_argument("paths", nargs="*", type=Path,
                   help="trace directories (closed or live; a "
                        "malformed header is TL001, a torn record file "
                        "TL002, one short of its declared count TL003), "
                        "laboratories, .py files, or source directories")
    p.add_argument("--strict", action="store_true",
                   help="also fail (exit 1) on warnings")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-check-v1 JSON report here")
    p.add_argument("--rules", action="store_true",
                   help="print the diagnostics catalogue and exit")
    p.add_argument("--no-deep", action="store_true",
                   help="skip the chunking-invariance cross-validation "
                        "pass (TL018)")
    p.add_argument("--baseline", type=Path, default=None, metavar="DIR",
                   help="cross-validate each checked trace directory "
                        "against this local one, a spool or a bundle "
                        "(TL022: byte-identical records, equivalent "
                        "metadata)")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser(
        "race",
        help="communication sanitizer: races, deadlocks, collective "
             "mismatches, causal skew (CM0xx)")
    p.add_argument("paths", nargs="*", type=Path,
                   help="trace directories with recorded comm events "
                        "(a live spool is checked in live mode); a "
                        "malformed header, or a closed directory whose "
                        "record file is torn or short of its declared "
                        "count, is an error (exit 2)")
    p.add_argument("--strict", action="store_true",
                   help="also fail (exit 1) on warnings")
    p.add_argument("--json", type=Path, default=None, metavar="FILE",
                   help="write the tempest-check-v1 JSON report here")
    p.add_argument("--skew-tolerance", type=float, default=None,
                   metavar="SECONDS",
                   help="CM005 clock-error slack, finite and >= 0 "
                        "(default 1e-3 s)")
    p.set_defaults(fn=cmd_race)

    p = sub.add_parser(
        "top",
        help="live view over a serve aggregator's --metrics-json "
             "snapshots (curses-free)")
    p.add_argument("--metrics-json", type=Path, required=True,
                   metavar="FILE",
                   help="the snapshot file `tempest serve --metrics-json` "
                        "rewrites")
    p.add_argument("--interval", type=float, default=1.0, metavar="SECONDS",
                   help="refresh cadence")
    p.add_argument("--once", action="store_true",
                   help="print one frame and exit (CI mode)")
    p.add_argument("--stale-after", type=float, default=5.0,
                   metavar="SECONDS",
                   help="flag a source stale after this long without "
                        "new records")
    p.set_defaults(fn=cmd_top)

    # ------------------------------------------------------------- lab
    from repro.lab.cli import (
        cmd_lab_diff,
        cmd_lab_init,
        cmd_lab_list,
        cmd_lab_query,
        cmd_lab_regressions,
        cmd_lab_rerun,
        cmd_lab_run,
        cmd_lab_sweep,
        cmd_lab_verify,
    )

    lab = sub.add_parser(
        "lab",
        help="experiment laboratory: manifested runs, campaigns, sweeps")
    lab_sub = lab.add_subparsers(dest="lab_command", required=True)

    def _lab_common(p: argparse.ArgumentParser, *, json_help: str) -> None:
        p.add_argument("--lab", type=Path, default=Path("lab"),
                       metavar="DIR", help="laboratory root (default: lab)")
        p.add_argument("--json", type=Path, default=None, metavar="FILE",
                       help=json_help)

    p = lab_sub.add_parser("init", help="initialize a laboratory directory")
    p.add_argument("root", type=Path, nargs="?", default=Path("lab"),
                   help="laboratory root to create (default: lab)")
    p.set_defaults(fn=cmd_lab_init)

    p = lab_sub.add_parser(
        "run", help="execute one manifested run into the laboratory")
    _lab_common(p, json_help="write the tempest-manifest-v1 here")
    _add_lab_spec_args(p)
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="also enroll the run in this campaign")
    p.add_argument("--force", action="store_true",
                   help="re-execute even when the run already exists")
    p.set_defaults(fn=cmd_lab_run)

    p = lab_sub.add_parser("list", help="list completed runs and campaigns")
    _lab_common(p, json_help="write the listing as JSON here")
    p.set_defaults(fn=cmd_lab_list)

    p = lab_sub.add_parser(
        "rerun",
        help="re-execute a manifested run and compare every output "
             "digest (exit 1 on drift)")
    _lab_common(p, json_help="write the rerun verdict as JSON here")
    p.add_argument("run_id", help="run id (see `tempest lab list`)")
    p.set_defaults(fn=cmd_lab_rerun)

    p = lab_sub.add_parser(
        "verify",
        help="integrity-check stored manifests, blobs, and campaigns "
             "without re-running (TL025-TL027)")
    _lab_common(p, json_help="write the tempest-check-v1 report here")
    p.add_argument("--strict", action="store_true",
                   help="also fail (exit 1) on warnings")
    p.set_defaults(fn=cmd_lab_verify)

    p = lab_sub.add_parser(
        "query", help="per-run metric rows for a campaign selector")
    _lab_common(p, json_help="write the rows as JSON here")
    p.add_argument("--campaign", required=True, metavar="NAME")
    p.add_argument("--node", default=None, metavar="NODE",
                   help="restrict to one node (default: aggregate)")
    p.add_argument("--function", default=None, metavar="FN",
                   help="restrict to one function (default: whole node)")
    p.add_argument("--sensor", default=None, metavar="SENSOR",
                   help="thermal sensor name; omit for timing stats")
    p.add_argument("--stat", default="avg",
                   help="avg/min/max/med/mod/sdv/var/n with --sensor; "
                        "total_s/exclusive_s/calls without (default: "
                        "avg, or total_s without a sensor)")
    p.set_defaults(fn=cmd_lab_query)

    p = lab_sub.add_parser(
        "diff",
        help="per-function/per-sensor deltas between two runs or "
             "campaigns, including composed-HCCT hot paths (exit 1 on "
             "regressions)")
    _lab_common(p, json_help="write the diff as JSON here")
    p.add_argument("before", help="run id (or campaign with --campaigns)")
    p.add_argument("after", help="run id (or campaign with --campaigns)")
    p.add_argument("--campaigns", action="store_true",
                   help="diff two composed campaigns instead of two runs")
    p.add_argument("--min-time", type=float, default=0.001,
                   help="hide functions shorter than this in both runs")
    p.add_argument("--top-paths", type=int, default=10,
                   help="hot calling-context deltas to keep")
    p.add_argument("--time-ratio", type=float, default=1.2,
                   help="flag functions at least this much slower")
    p.add_argument("--temp-delta", type=float, default=1.0,
                   metavar="DEGC",
                   help="flag sensors/functions at least this much hotter")
    p.set_defaults(fn=cmd_lab_diff)

    p = lab_sub.add_parser(
        "regressions",
        help="scan a campaign's metric series for cross-run regressions "
             "(exit 1 when any found)")
    _lab_common(p, json_help="write the findings as JSON here")
    p.add_argument("--campaign", required=True, metavar="NAME")
    p.add_argument("--sensor", default=None, metavar="SENSOR")
    p.add_argument("--stat", default="avg")
    p.add_argument("--min-delta", type=float, default=0.5,
                   help="suppress regressions smaller than this")
    p.add_argument("--node", default=None, metavar="NODE")
    p.add_argument("--function", default=None, metavar="FN")
    p.set_defaults(fn=cmd_lab_regressions)

    p = lab_sub.add_parser(
        "sweep",
        help="run a workloads x platforms x fault-bands matrix; "
             "interrupted sweeps resume by skipping completed cells")
    _lab_common(p, json_help="write the sweep report as JSON here")
    p.add_argument("--workloads", required=True,
                   help="comma-separated BENCH[:KLASS[:RxN[:ITERS]]] or "
                        "micro:X entries, e.g. 'EP:S:2x2,CG:S:2x2:3'")
    p.add_argument("--platforms", default="default",
                   help="comma-separated platform presets "
                        "(default: 'default')")
    p.add_argument("--bands", default="clean",
                   help="slash-separated fault bands: 'clean' or "
                        "'NAME:inject-spec', e.g. "
                        "'clean/lossy:record_loss_rate=0.05'")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--hcct-budget", type=int, default=None, metavar="N")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="enroll every cell in this campaign")
    p.add_argument("--max-cells", type=int, default=None, metavar="N",
                   help="execute at most N cells this invocation "
                        "(skips are free; for testing resume)")
    p.set_defaults(fn=cmd_lab_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # A ReproError escaping a command is a crash/usage problem, not a
        # finding: the contract reserves 1 for diagnosed findings.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
