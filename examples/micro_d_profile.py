#!/usr/bin/env python
"""Figure 2 walkthrough: profile micro-benchmark D end to end.

Reproduces both halves of the paper's Figure 2 on the simulated node:
part (a), the standard-output report where foo1 dominates main and the
short foo2 carries no thermal statistics; part (b), the temperature-vs-time
profile with the active function annotated along the top.

Also demonstrates saving the raw trace bundle and re-parsing it — the
paper's separation between runtime collection and post-processing.

Run:  python examples/micro_d_profile.py
"""

import tempfile
from pathlib import Path

from repro.core import TempestParser, TempestSession, render_stdout_report
from repro.core.ascii_plot import render_function_profile
from repro.core.trace import TraceBundle
from repro.simmachine.machine import ClusterConfig, Machine
from repro.workloads.microbench import micro_d


def main() -> None:
    machine = Machine(ClusterConfig(n_nodes=1, seed=2007, vary_nodes=False))
    session = TempestSession(machine)
    # 60 s CPU burn in foo1, then a 6 s timer in foo2 so the cooldown is
    # visible in the plot (the paper's table variant uses a sub-interval
    # timer instead — see benchmarks/test_fig2_micro_d.py for both).
    session.run_serial(micro_d, "node1", 0, 60.0, 6.0)

    profile = session.profile()
    node = profile.node("node1")

    print("=" * 70)
    print("Figure 2(a): standard output")
    print("=" * 70)
    print(render_stdout_report(profile))

    print()
    print("=" * 70)
    print("Figure 2(b): temperature profile (function band on top)")
    print("=" * 70)
    print(render_function_profile(node, "CPU0 Temp", bundle=session.collect(),
                                  width=76, height=12))

    # Round-trip the trace through disk, as the real tool chain does.
    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / "trace"
        session.collect().save(bundle_dir)
        reloaded = TempestParser(TraceBundle.load(bundle_dir)).parse()
        foo1 = reloaded.node("node1").function("foo1")
        print()
        print(f"re-parsed from disk: foo1 total time "
              f"{foo1.total_time_s:.3f} s over {foo1.n_calls} call(s)")


if __name__ == "__main__":
    main()
