"""Tempest benchmark: six seeded workloads, end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run.py --seed 2007 [--workload NAME ...] [--seconds 10]
                         [--trace 0|1] [--spans spans.json] [--out result.json]

Each workload builds its inputs from ``--seed`` (several times; the
median is ``setup_s``), runs one untimed warm-up unit, then repeats its
unit for ``--seconds`` seconds (at least three times), checking every
output.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced units, runs the layer probes, and reports
the per-layer metrics.  Every metric prints by name with its unit; the
last line of each workload's block is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Several workloads run one
after another, each in a process of its own.  The process exits 1 when
any unit failed, 2 when the program under test cannot be imported.

The benchmark imports the ``repro`` package from ``src/`` next to this
directory and writes scratch files only under ``.bench_work/`` there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: per-layer metrics (``--trace 1``): name -> unit.  A workload that never
#: reaches a layer reports 0 for it.
PER_LAYER = {
    "simmachine.run_s": "s",
    "instrument.hook_s": "s",
    "instrument.records": "count",
    "instrument.host_overhead_pct": "%",
    "sim_overhead_pct": "%",
    "spool.write_s": "s",
    "spool.bytes": "B",
    "spool.read_s": "s",
    "trace.load_s": "s",
    "parser.parse_s": "s",
    "parser.records_per_s": "1/s",
    "streamprof.consume_s": "s",
    "streamprof.finalize_s": "s",
    "streamprof.records_per_s": "1/s",
    "streamprof.chunks": "count",
    "streamprof.fallback_chunks": "count",
    "cct.tree_s": "s",
    "cct.exact_tree_s": "s",
    "cct.overhead_x": "x",
    "cct.evicted": "count",
    "cct.live_contexts": "count",
    "hcct_epsilon_s": "s",
    "summary.build_s": "s",
    "summary.encode_s": "s",
    "summary.decode_s": "s",
    "summary.merge_s": "s",
    "summary.to_profile_s": "s",
    "summary.bytes": "B",
    "collector.push_s": "s",
    "wire.frames": "count",
    "wire.bytes": "B",
    "aggregator.accumulate_s": "s",
    "aggregator.merged_profile_s": "s",
    "aggregator.records_in": "count",
    "aggregator.dup_records": "count",
    "aggregator.errors": "count",
    "asyncserver.ingest_s": "s",
    "asyncserver.records_per_s": "1/s",
    "asyncserver.transport_s": "s",
    "causal.consume_s": "s",
    "causal.finalize_s": "s",
    "causal.events_per_s": "1/s",
    "causal.diagnostics": "count",
    "report.render_s": "s",
    "trace_overhead_pct": "%",
}

#: set-ups per run (their median is setup_s)
SETUPS = 3
#: timed units per run, however short --seconds is
MIN_UNITS = 3


def import_program():
    """Import ``repro`` from this checkout's ``src/``, or exit 2."""
    src = ROOT / "src"
    for path in (str(src), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    try:
        import repro
    except ImportError as exc:
        print(f"error: cannot import the program under test from {src}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if Path(repro.__file__).resolve().parent.parent != src.resolve():
        print(f"error: repro was imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark, in MB (1e6 bytes).

    ``tracemalloc`` would isolate one unit's allocations, but it slows
    these units 4-10x, more than the whole time budget of a run allows.
    Each workload runs in a process of its own, so the high-water mark
    covers exactly its set-ups and units.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb * (1 if sys.platform == "darwin" else 1024) / 1e6


def summarize(values: list[float], unit: str) -> dict:
    """Median, quartiles and sample count of one metric."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "unit": unit,
            "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs one workload: set-ups, warm-up, timed units, then probes
    when traced."""

    def __init__(self, cls, *, seed: int, scale: float, seconds: float,
                 work: Path):
        self.cls = cls
        self.seed = seed
        self.scale = scale
        self.seconds = seconds
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.wl = None

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.failures.extend(problems[:3])

    def setup(self) -> list[float]:
        times = []
        for i in range(SETUPS):
            if self.wl is not None:
                self.wl.close()
                shutil.rmtree(self.wl.work, ignore_errors=True)
            work = self.work / f"{self.cls.name}-{i}"
            work.mkdir(parents=True)
            gc.collect()
            t0 = time.perf_counter()
            self.wl = self.cls(self.seed, self.scale, work)
            times.append(time.perf_counter() - t0)
        return times

    def unit(self, rec=None, unit_id=None):
        """One checked unit; returns ``(seconds or None, output)``.

        A unit that raises or fails its check counts as failed; a unit
        that raised has no time.
        """
        from bench.spans import NULL

        self.attempted += 1
        gc.collect()
        if rec is not None:
            rec.unit = unit_id
        t0 = time.perf_counter()
        try:
            if rec is None:
                out = self.wl.unit(NULL)
            else:
                with rec.span("unit"):
                    out = self.wl.unit(rec)
        except Exception as exc:  # a failed unit must not stop the run
            self.fail([f"unit raised {exc!r}"])
            self.wl.reset()
            return None, None
        dt = time.perf_counter() - t0
        try:
            problems = self.wl.check(out)
        except Exception as exc:
            problems = [f"check raised {exc!r}"]
        if problems:
            self.fail(problems)
        self.wl.reset()
        return dt, out

    def timed_loop(self, step, min_steps: int = MIN_UNITS) -> None:
        """Call ``step(i)`` until --seconds passed and *min_steps* ran."""
        deadline = time.perf_counter() + self.seconds
        i = 0
        while i < min_steps or time.perf_counter() < deadline:
            step(i)
            i += 1

    def run_untraced(self) -> dict:
        setup = self.setup()
        self.unit()
        times: list[float] = []

        def step(_i):
            dt, _ = self.unit()
            if dt is not None:
                times.append(dt)

        self.timed_loop(step)
        return {"metrics": {
            "setup_s": summarize(setup, "s"),
            "time_to_result_s": summarize(times or [0.0], "s"),
            "peak_mb": summarize([peak_rss_mb()], "MB"),
        }}

    def run_traced(self) -> dict:
        from bench.spans import SpanRecorder, self_time_table

        setup = self.setup()
        self.unit()
        rec = SpanRecorder()
        rec.workload = self.cls.name
        plain: list[float] = []
        traced: list[float] = []
        last = {}

        def step(i):
            if i % 2:
                dt, out = self.unit(rec, unit_id=i // 2)
                if dt is not None:
                    traced.append(dt)
                    last["out"] = out
            else:
                dt, _ = self.unit()
                if dt is not None:
                    plain.append(dt)

        # untraced and traced units alternate, so drift hits both alike
        self.timed_loop(step, min_steps=2 * MIN_UNITS)
        layer = self.span_medians(rec)
        metrics = dict.fromkeys(PER_LAYER, 0)
        metrics.update({k: v for k, v in layer.items() if k in PER_LAYER})
        if plain and traced:
            metrics["trace_overhead_pct"] = 100.0 * (
                statistics.median(traced) / statistics.median(plain) - 1.0)
        self.attempted += 1
        rec.unit = None
        try:
            if "out" not in last:
                raise RuntimeError("no traced unit succeeded")
            with rec.span("probe"):
                probed = self.wl.probe(rec, layer, last["out"])
            unknown = set(probed) - set(PER_LAYER)
            if unknown:
                raise KeyError(f"undeclared per-layer metrics {sorted(unknown)}")
            metrics.update(probed)
        except Exception as exc:
            self.fail([f"probe raised {exc!r}"])
        return {
            "metrics": {name: {"value": value, "unit": PER_LAYER[name]}
                        for name, value in metrics.items()},
            "setup_s": summarize(setup, "s"),
            "time_to_result_s": summarize(plain or [0.0], "s"),
            "traced_time_to_result_s": summarize(traced or [0.0], "s"),
            "self_times": self_time_table(rec.spans),
            "spans": rec.spans,
        }

    def span_medians(self, rec) -> dict:
        """Per-layer metrics from unit spans: each span the workload maps
        in ``SPAN_METRICS``, summed within a traced unit, median across
        units.  Names starting with ``_`` are inputs for the probe only."""
        per_unit: dict[str, dict[int, float]] = {}
        for sp in rec.spans:
            metric = self.cls.SPAN_METRICS.get(sp.name)
            if metric is not None and sp.unit is not None:
                by_unit = per_unit.setdefault(metric, {})
                by_unit[sp.unit] = by_unit.get(sp.unit, 0.0) + sp.seconds
        return {m: statistics.median(v.values()) for m, v in per_unit.items()}

    def close(self) -> None:
        if self.wl is not None:
            self.wl.close()


def format_value(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_block(name: str, doc: dict) -> None:
    print(f"== {name}: {doc['attempted'] - doc['failed']}/{doc['attempted']} "
          f"units correct")
    zeros = []
    for metric, m in doc["metrics"].items():
        if m["value"] == 0 and "n" not in m:
            zeros.append(f"{metric} ({m['unit']})")
            continue
        extra = ""
        if "n" in m:
            extra = (f"  (median of {m['n']}; q1 {format_value(m['q1'])}, "
                     f"q3 {format_value(m['q3'])})")
        print(f"  {metric:<30} {format_value(m['value']):>14} {m['unit']}{extra}")
    if zeros:
        print("  reading 0 (layer not on this workload's path, or none counted): "
              + ", ".join(zeros))
    if "self_times" in doc:
        print("  span self times (s, summed over traced units and probes):")
        for span, row in sorted(doc["self_times"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"    {span:<28} {row['self_s']:>10.4f}  x{row['n']}")
    for problem in doc["failures"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {metric: {"value": m["value"], "unit": m["unit"]}
                    for metric, m in doc["metrics"].items()},
    }), flush=True)


def run_workload(cls, args, work: Path) -> tuple[dict, list]:
    runner = Runner(cls, seed=args.seed, scale=args.scale,
                    seconds=args.seconds, work=work)
    try:
        doc = runner.run_traced() if args.trace else runner.run_untraced()
    finally:
        runner.close()
    spans = doc.pop("spans", [])
    doc.update(attempted=runner.attempted, failed=runner.failed,
               fail_frac=runner.failed / runner.attempted,
               failures=runner.failures)
    return doc, spans


def parse_args(argv=None, names=()):
    p = argparse.ArgumentParser(
        prog="bench/run.py",
        description="Tempest benchmark: seeded workloads timed end to end "
                    "(--trace 0) or layer by layer (--trace 1).")
    p.add_argument("--workload", action="append", choices=list(names),
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=2007)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="how long the timed units of each workload run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path,
                   help="with --trace 1, write every span here")
    p.add_argument("--out", type=Path, help="write the result document here")
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor (smoke tests use 0.02)")
    args = p.parse_args(argv)
    if not args.scale > 0 or not args.seconds >= 0:
        p.error("--scale must be > 0 and --seconds >= 0")
    return args


def run_children(names, args, work: Path) -> tuple[dict, dict]:
    """Run each workload in a process of its own, one after another.

    A fresh process per workload keeps ``peak_mb`` (a process high-water
    mark) and the garbage collector's heap free of earlier workloads.
    Children print their own blocks; their result documents are merged.
    """
    docs, spans = {}, {}
    for name in names:
        out, span_file = work / f"{name}.json", work / f"{name}.spans.json"
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", str(args.scale), "--out", str(out)]
        if args.trace:
            cmd += ["--spans", str(span_file)]
        code = subprocess.run(cmd).returncode
        if out.exists():
            docs.update(json.loads(out.read_text())["workloads"])
        if code not in (0, 1) or name not in docs:
            docs[name] = {"attempted": 1, "failed": 1, "fail_frac": 1.0,
                          "failures": [f"workload process exited {code}"],
                          "metrics": {}}
        if span_file.exists():
            spans.update(json.loads(span_file.read_text())["workloads"])
    return docs, spans


def main(argv=None) -> int:
    import_program()
    import numpy as np

    from bench.spans import spans_document
    from bench.workloads import WORKLOADS
    from repro.util.canonjson import dump_canonical

    args = parse_args(argv, WORKLOADS)
    names = args.workload or list(WORKLOADS)
    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    result = {
        "format": "tempest-bench-v1",
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {},
    }
    try:
        if len(names) > 1:
            result["workloads"], spans = run_children(names, args, work)
        else:
            doc, unit_spans = run_workload(WORKLOADS[names[0]], args, work)
            result["workloads"][names[0]] = doc
            spans = {names[0]: spans_document(unit_spans)}
            print_block(names[0], doc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.out is not None:
        dump_canonical(args.out, result)
    if args.spans is not None and args.trace:
        dump_canonical(args.spans, {"format": "tempest-bench-spans-v1",
                                    "workloads": spans})
    return 1 if any(d["failed"] for d in result["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
