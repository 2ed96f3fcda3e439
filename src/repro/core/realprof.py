"""Real-process backend: profile an actual Python callable on real sensors.

The portability claim of the paper (§3.4) is that the tool needs only (a)
compiler instrumentation hooks and (b) LM-sensors.  In Python the analogues
are ``sys.setprofile`` (call/return events) and ``/sys/class/hwmon``; this
module wires both into the *same* trace format, parser, statistics, and
reports as the simulator backend — one pipeline, two data sources.

The clock is ``time.perf_counter_ns`` (the rdtsc analogue: monotonic,
cheap, nanosecond-granular), so the recorded "TSC" frequency is 1 GHz.
A daemon thread plays tempd, sweeping the sensor reader at 4 Hz.

Offline testing uses a hwmon tree materialized by
:class:`repro.simmachine.hwmon.VirtualHwmonTree`; on a real Linux host with
sensors, ``HwmonSensorReader()`` profiles live hardware.
"""

from __future__ import annotations

# repro-lint: allow=wall-clock — this is the real-hardware backend; the
# host clock *is* the data source here, not a determinism leak.
import os
import sys
import threading
import time
from typing import Callable, Optional

from repro.core.instrument import HookCosts
from repro.core.parser import TempestParser
from repro.core.profilemodel import RunProfile
from repro.core.sensors import SensorReader
from repro.core.symtab import SymbolTable
from repro.core.trace import (
    NodeTrace,
    REC_ENTER,
    REC_EXIT,
    REC_TEMP,
    TraceBundle,
)
from repro.util.errors import ConfigError

#: the perf_counter_ns "TSC" ticks at 1 GHz
_PERF_HZ = 1.0e9


class RealTempest:
    """Profile a real Python callable with real (or virtual) hwmon sensors.

    ``include`` selects which functions are instrumented — the analogue of
    compiling *your* code with ``-finstrument-functions`` while libraries
    stay untouched.  It receives a code object; the default instruments
    functions defined in the target function's module file.
    """

    def __init__(
        self,
        reader: SensorReader,
        *,
        sampling_hz: float = 4.0,
        include: Optional[Callable] = None,
        node_name: str = "localhost",
    ):
        if sampling_hz <= 0:
            raise ConfigError(f"sampling_hz must be positive: {sampling_hz}")
        self.reader = reader
        self.sampling_hz = sampling_hz
        self.include = include
        self.node_name = node_name
        self.symtab = SymbolTable()
        self.trace = NodeTrace(node_name, _PERF_HZ, reader.sensor_names())
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # ------------------------------------------------------------------
    def _tempd_thread(self) -> None:
        period = 1.0 / self.sampling_hz
        while not self._stop.is_set():
            tsc = time.perf_counter_ns()
            samples = self.reader.read_all(0.0)
            with self._lock:
                for idx, value in samples:
                    self.trace.append_event(REC_TEMP, idx, tsc, -1,
                                            self._pid + 1, float(value))
            self._stop.wait(period)

    def _make_profiler(self, target_file: str):
        include = self.include or (
            lambda code: code.co_filename == target_file
        )

        def hook(frame, event, arg):
            if event not in ("call", "return"):
                return
            code = frame.f_code
            if code.co_name.startswith("<") or not include(code):
                return
            kind = REC_ENTER if event == "call" else REC_EXIT
            addr = self.symtab.address_of(code.co_name)
            tsc = time.perf_counter_ns()
            with self._lock:
                self.trace.append_event(kind, addr, tsc, 0, self._pid)

        return hook

    # ------------------------------------------------------------------
    def run(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` under profiling; returns its result.

        The wrapping synthesizes a ``main`` frame around the call so the
        report always has a whole-program row, as Tempest's output does.
        """
        target_file = fn.__code__.co_filename if hasattr(fn, "__code__") else ""
        sampler = threading.Thread(target=self._tempd_thread, daemon=True)
        sampler.start()
        main_addr = self.symtab.address_of("main")
        hook = self._make_profiler(target_file)
        with self._lock:
            self.trace.append_event(REC_ENTER, main_addr,
                                    time.perf_counter_ns(), 0, self._pid)
        sys.setprofile(hook)
        try:
            result = fn(*args, **kwargs)
        finally:
            sys.setprofile(None)
            with self._lock:
                self.trace.append_event(REC_EXIT, main_addr,
                                        time.perf_counter_ns(), 0, self._pid)
            self._stop.set()
            sampler.join(timeout=2.0)
        return result

    # ------------------------------------------------------------------
    def collect(self) -> TraceBundle:
        """Bundle the recorded trace (same format as the simulator's)."""
        bundle = TraceBundle(self.symtab)
        bundle.add_node(self.trace)
        bundle.meta = {"sampling_hz": self.sampling_hz, "backend": "real"}
        return bundle

    def profile(self, *, strict: bool = False) -> RunProfile:
        """Parse into a RunProfile.  Lenient by default: a real interpreter
        emits call/return streams with frames opened before profiling began
        (their returns appear without matching calls)."""
        return TempestParser(self.collect(), strict=strict).parse()
