"""ASCII temperature-profile plots (Figures 2(b), 3 and 4).

The paper's profile figures plot sensor temperature against time with the
active function annotated along the top (Figure 2(b)), and stack one such
axis per cluster node with shared time alignment (Figures 3-4).  This
module renders the same structure as text so benches and examples can
regenerate the figures in a terminal and in the EXPERIMENTS.md log.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.profilemodel import NodeProfile, RunProfile
from repro.core.streamprof import ProfileAccumulator, in_time_order
from repro.core.symtab import SymbolTable
from repro.core.trace import NodeTrace, TraceBundle
from repro.util.units import c_to_f


def render_series(
    times: np.ndarray,
    values: np.ndarray,
    *,
    width: int = 72,
    height: int = 10,
    title: str = "",
    fahrenheit: bool = True,
    y_range: Optional[tuple[float, float]] = None,
) -> str:
    """Render one time series as an ASCII line chart."""
    if len(times) == 0:
        return f"{title}\n  (no samples)"
    vals = c_to_f(values) if fahrenheit else np.asarray(values, float)
    t0, t1 = float(times[0]), float(times[-1])
    if y_range is not None:
        lo, hi = y_range
    else:
        lo, hi = float(vals.min()), float(vals.max())
    if hi - lo < 1e-9:
        hi = lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    span_t = max(t1 - t0, 1e-12)
    for t, v in zip(times, vals):
        x = min(width - 1, int((t - t0) / span_t * (width - 1)))
        y = min(height - 1, int((hi - v) / (hi - lo) * (height - 1)))
        grid[y][x] = "*"
    unit = "F" if fahrenheit else "C"
    lines = []
    if title:
        lines.append(title)
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{hi:6.1f}{unit} |"
        elif i == height - 1:
            label = f"{lo:6.1f}{unit} |"
        else:
            label = " " * 7 + " |"
        lines.append(label + "".join(row))
    lines.append(" " * 8 + "+" + "-" * (width - 1))
    lines.append(" " * 8 + f"{t0:<10.1f}{'time (s)':^{max(0, width - 22)}}{t1:>10.1f}")
    return "\n".join(lines)


def _function_band(trace: NodeTrace, symtab: SymbolTable, width: int,
                   t0: float, t1: float) -> str:
    """One-line band naming the innermost function over time (Fig 2(b) top).

    The node's records stream through a profile engine cut at each
    column's centre time; the column shows the frame
    :meth:`ProfileAccumulator.innermost` reports there, and each run of
    one frame is labelled once.
    """
    acc = ProfileAccumulator(trace.node_name, symtab, trace.seconds,
                             trace.sensor_names)
    arr = in_time_order(trace.columns.array)
    # Running max so a leniently clamped record cannot unsort the cuts.
    times = np.maximum.accumulate(
        np.asarray(trace.seconds(arr["tsc"]), dtype=np.float64))
    step = max(t1 - t0, 1e-12) / max(width - 1, 1)
    columns: list[Optional[tuple[str, float]]] = []
    lo = 0
    for x in range(width):
        hi = int(np.searchsorted(times, t0 + (x + 0.5) * step, side="right"))
        if hi > lo:
            acc.consume(arr[lo:hi])
            lo = hi
        columns.append(acc.innermost())
    band = [" "] * width
    x0 = 0
    while x0 < width:
        frame = columns[x0]
        x1 = x0
        while x1 + 1 < width and columns[x1 + 1] == frame:
            x1 += 1
        if frame is not None:
            # Draw the frame's extent, then overlay its name at the start.
            run = x1 - x0 + 1
            band[x0:x1 + 1] = list(frame[0][:run].ljust(run, "-"))
        x0 = x1 + 1
    return " " * 8 + "|" + "".join(band)


def render_function_profile(
    node: NodeProfile,
    sensor: str,
    bundle: TraceBundle,
    *,
    width: int = 72,
    height: int = 10,
    fahrenheit: bool = True,
) -> str:
    """Figure 2(b): temperature trend with the active function annotated.

    The function band comes from the node's trace in *bundle* (a profile
    keeps aggregates only).
    """
    times, values = node.sensor_series[sensor]
    if len(times) == 0:
        return f"{node.node_name}/{sensor}: no samples"
    t0, t1 = float(times[0]), float(times[-1])
    chart = render_series(
        times, values, width=width, height=height, fahrenheit=fahrenheit
    )
    header = f"{node.node_name} — sensor {sensor!r} (function band above plot)"
    band = _function_band(bundle.node(node.node_name), bundle.symtab, width,
                          t0, t1)
    return "\n".join([header, band, chart])


def render_cluster_profile(
    run: RunProfile,
    sensor: str,
    *,
    width: int = 72,
    height: int = 7,
    fahrenheit: bool = True,
    shared_y: bool = True,
) -> str:
    """Figures 3-4: vertically stacked, time-aligned per-node profiles.

    ``shared_y`` puts every node on the same temperature scale so the
    paper's "some nodes run hotter than others" comparison is visual.
    """
    y_range = None
    if shared_y:
        los, his = [], []
        for name in run.node_names():
            _, values = run.node(name).sensor_series[sensor]
            if len(values):
                vals = c_to_f(values) if fahrenheit else values
                los.append(float(np.min(vals)))
                his.append(float(np.max(vals)))
        if los:
            y_range = (min(los), max(his))
    parts = []
    for name in run.node_names():
        node = run.node(name)
        times, values = node.sensor_series[sensor]
        parts.append(
            render_series(
                times,
                values,
                width=width,
                height=height,
                title=f"[{name}] {sensor}",
                fahrenheit=fahrenheit,
                y_range=y_range,
            )
        )
    return "\n\n".join(parts)
