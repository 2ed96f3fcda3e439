"""Tempest: the paper's contribution — a middle-weight thermal profiler.

The pipeline mirrors §3.2 of the paper:

1. **Instrumentation** (:mod:`~repro.core.instrument`): function entry/exit
   hooks timestamped with the core's TSC, the analogue of gcc's
   ``-finstrument-functions`` + ``rdtsc``.
2. **tempd** (:mod:`~repro.core.tempd`): a lightweight daemon sampling every
   hwmon thermal sensor four times per second.
3. **Trace** (:mod:`~repro.core.trace`): both streams aggregate into a
   per-node trace with a symbol table mapping function addresses to names.
4. **Parser** (:mod:`~repro.core.parser`): drives the profile engine
   (:mod:`~repro.core.streamprof`), which replays the function timeline,
   maps temperature samples onto it, and emits per-function, per-sensor
   statistics (:mod:`~repro.core.stats`).
5. **Reports** (:mod:`~repro.core.report`, :mod:`~repro.core.ascii_plot`):
   the standard-output format of Figure 2(a) and the temperature-profile
   plots of Figures 2(b), 3 and 4.

:class:`~repro.core.session.TempestSession` wires all of it to the simulated
cluster; :mod:`~repro.core.realprof` does the same for a real Python process
on a real Linux hwmon tree.
"""

from repro.core.trace import (
    NodeTrace,
    TraceBundle,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
)
from repro.core.symtab import SymbolTable
from repro.core.instrument import (
    instrument,
    instrument_module,
    HookCosts,
    NodeTracer,
)
from repro.core.realprof import RealTempest
from repro.core.spool import TraceSpool, iter_spool_chunks
from repro.core.sensors import (
    SensorReader,
    SimSensorReader,
    HwmonSensorReader,
)
from repro.core.tempd import tempd_process, TempdConfig
from repro.core.timeline import Timeline
from repro.core.stats import SensorStats
from repro.core.profilemodel import FunctionProfile, NodeProfile, RunProfile
from repro.core.parser import TempestParser
from repro.core.streamprof import (
    OnlineStats,
    ProfileAccumulator,
    StreamingRunProfiler,
    stream_spool_profile,
)
from repro.core.report import (
    render_live_snapshot,
    render_stdout_report,
    profile_to_rows,
)
from repro.core.session import TempestSession
from repro.core.perblk import block

__all__ = [
    "NodeTrace",
    "TraceBundle",
    "REC_ENTER",
    "REC_EXIT",
    "REC_TEMP",
    "SymbolTable",
    "instrument",
    "instrument_module",
    "HookCosts",
    "NodeTracer",
    "RealTempest",
    "TraceSpool",
    "iter_spool_chunks",
    "SensorReader",
    "SimSensorReader",
    "HwmonSensorReader",
    "tempd_process",
    "TempdConfig",
    "Timeline",
    "SensorStats",
    "FunctionProfile",
    "NodeProfile",
    "RunProfile",
    "TempestParser",
    "OnlineStats",
    "ProfileAccumulator",
    "StreamingRunProfiler",
    "stream_spool_profile",
    "render_live_snapshot",
    "render_stdout_report",
    "profile_to_rows",
    "TempestSession",
    "block",
]
