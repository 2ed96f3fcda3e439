"""``Aggregator.merged_profile`` against the serial parse of its bundle.

The served profile folds nodes one per CPU, each over a read-only view
of its accepted bytes.  The contract: whatever the worker count, the
profile, the lenient repairs taken and any error are exactly those of
``TempestParser(agg.to_bundle(), strict=False).parse()``.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from repro.check.tracelint import compare_bundle_dirs
from repro.cluster import LoopbackHub
from repro.cluster import aggregator as aggregator_mod
from repro.cluster.wire import (
    FT_HELLO,
    encode_chunk,
    encode_json_frame,
    hello_payload,
)
from repro.core import streamprof
from repro.core.parser import TempestParser
from repro.core.records import RECORD_DTYPE, RECORD_SIZE
from repro.core.report import dump_json
from repro.core.trace import REC_EXIT, REC_TEMP, TraceBundle, read_trace_header
from repro.util.canonjson import canon_dumps
from repro.util.errors import TraceError

from tests.cluster.conftest import build_spool_dir

NAMES = [f"node{i:02d}" for i in range(64)]
#: nodes with a kernel EXIT deleted (unbalanced frames)
LOST_EXIT = NAMES[::5]
#: nodes with one function record moved back in time
REGRESSED = NAMES[1::7]
CHUNK = 16


def _rewrite(spool_dir, name, fn):
    path = spool_dir / f"{name}.spool"
    arr = np.frombuffer(path.read_bytes(), dtype=RECORD_DTYPE).copy()
    path.write_bytes(fn(arr).tobytes())


def _drop_exit(arr):
    i = np.flatnonzero(arr["kind"] == REC_EXIT)[3]
    return np.delete(arr, i)


def _regress(arr):
    i = np.flatnonzero(arr["kind"] == REC_EXIT)[2]
    arr["tsc"][i] = arr["tsc"][i - 3] - 1
    return arr


def _bad_sensor(arr):
    arr["addr"][np.flatnonzero(arr["kind"] == REC_TEMP)[1]] = 7
    return arr


@pytest.fixture
def damaged_dir(tmp_path):
    """64 live spools, some damaged so the lenient repairs run."""
    spool_dir = build_spool_dir(tmp_path / "spools", NAMES, n_pairs=12)
    for name in LOST_EXIT:
        _rewrite(spool_dir, name, _drop_exit)
    for name in REGRESSED:
        _rewrite(spool_dir, name, _regress)
    return spool_dir


class _Feed:
    """One loopback connection per node, fed chunk by chunk."""

    def __init__(self, hub, spool_dir):
        self.hub = hub
        self.spool_dir = spool_dir
        self.header = read_trace_header(spool_dir)
        self.conns = {}
        self.sent = {}

    def send(self, name, n_chunks=None):
        """Send *name*'s next *n_chunks* chunks (all that remain if None)."""
        if name not in self.conns:
            info = self.header.nodes[name]
            t = self.hub.connect()
            t.send(encode_json_frame(FT_HELLO, hello_payload(
                name, info.tsc_hz, info.sensor_names,
                self.header.symtab.to_dict(), self.header.meta)))
            self.conns[name] = t
            self.sent[name] = 0
        arr = np.frombuffer((self.spool_dir / f"{name}.spool").read_bytes(),
                            dtype=RECORD_DTYPE)
        lo = self.sent[name]
        hi = len(arr) if n_chunks is None else min(len(arr),
                                                   lo + n_chunks * CHUNK)
        for pos in range(lo, hi, CHUNK):
            self.conns[name].send(
                encode_chunk(pos, arr[pos:min(pos + CHUNK, hi)].tobytes()))
        self.sent[name] = hi


def _fed_hub(spool_dir):
    hub = LoopbackHub()
    feed = _Feed(hub, spool_dir)
    for name in NAMES:
        feed.send(name)
    return hub


def profile_doc(profile) -> str:
    """Everything a profile holds, as canonical JSON."""
    nodes = {}
    for name, node in profile.nodes.items():
        tl = node.timeline
        nodes[name] = {
            "duration_s": node.duration_s,
            "series": {s: [t.tolist(), v.tolist()]
                       for s, (t, v) in node.sensor_series.items()},
            "summary": {s: dataclasses.asdict(st)
                        for s, st in node.sensor_summary.items()},
            "timeline": {
                "exclusive": tl._exclusive,
                "calls": tl._calls,
                "inclusive": tl._inclusive,
                "arcs": sorted([a, b, n] for (a, b), n in tl.arcs.items()),
                "span": list(tl.span),
            },
        }
    return canon_dumps({"report": dump_json(profile),
                        "order": list(profile.nodes), "nodes": nodes})


@pytest.fixture
def fallbacks(monkeypatch):
    """Every node's lenient repairs, as its accumulator counted them."""
    seen = {}

    class Recording(streamprof.ProfileAccumulator):
        def finalize(self):
            out = super().finalize()
            seen[self.node_name] = dict(self.fallbacks)
            return out

    monkeypatch.setattr(streamprof, "ProfileAccumulator", Recording)
    return seen


@pytest.fixture(params=[None, 1, 4], ids=["cpus", "one", "pool4"])
def workers(request, monkeypatch):
    """The machine's CPU count, one CPU, or four CPUs."""
    if request.param is not None:
        monkeypatch.setattr(aggregator_mod, "_usable_cpus",
                            lambda: request.param)
    return request.param


def _serial(agg):
    return TempestParser(agg.to_bundle(), strict=False).parse()


def test_merged_profile_equals_serial_parse(damaged_dir, fallbacks, workers):
    agg = _fed_hub(damaged_dir).aggregator
    serial = _serial(agg)
    serial_fallbacks = dict(fallbacks)
    fallbacks.clear()
    merged = agg.merged_profile()
    assert list(merged.nodes) == NAMES
    assert profile_doc(merged) == profile_doc(serial)
    assert fallbacks == serial_fallbacks
    repaired = {n for n, fb in serial_fallbacks.items() if fb}
    assert set(LOST_EXIT) | set(REGRESSED) <= repaired


def test_pool_under_rapid_thread_switching(damaged_dir, monkeypatch):
    # the largest pool, switching every few bytecodes: a worker that
    # wrote shared state would show here as a changed profile
    monkeypatch.setattr(aggregator_mod, "_usable_cpus",
                        lambda: aggregator_mod._MAX_WORKERS)
    agg = _fed_hub(damaged_dir).aggregator
    serial = profile_doc(_serial(agg))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        merged = agg.merged_profile()
    finally:
        sys.setswitchinterval(interval)
    assert profile_doc(merged) == serial


@pytest.mark.parametrize("cpus,expected", [(1, 1), (3, 3), (64, 8)])
def test_pool_size_is_capped(damaged_dir, monkeypatch, cpus, expected):
    sizes = []

    class Recording(aggregator_mod.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(aggregator_mod, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(aggregator_mod, "ThreadPoolExecutor", Recording)
    _fed_hub(damaged_dir).aggregator.merged_profile()
    assert sizes == [expected]


def test_first_failing_node_in_sorted_order_is_raised(damaged_dir, workers):
    for name in ("node41", "node17"):
        _rewrite(damaged_dir, name, _bad_sensor)
    agg = _fed_hub(damaged_dir).aggregator
    with pytest.raises(TraceError) as serial:
        _serial(agg)
    before = threading.active_count()
    with pytest.raises(TraceError) as pooled:
        agg.merged_profile()
    assert str(pooled.value) == str(serial.value)
    assert str(pooled.value).startswith("node17: ")
    assert threading.active_count() == before


def test_merged_profile_leaves_no_thread_behind(damaged_dir, workers):
    agg = _fed_hub(damaged_dir).aggregator
    before = threading.active_count()
    agg.merged_profile()
    assert threading.active_count() == before


def test_midstream_profile_then_more_chunks(damaged_dir, workers):
    hub = LoopbackHub()
    feed = _Feed(hub, damaged_dir)
    for name in NAMES[::2]:
        feed.send(name, n_chunks=2)
    agg = hub.aggregator
    early = agg.to_bundle()
    assert profile_doc(agg.merged_profile()) == profile_doc(_serial(agg))
    for name in NAMES:
        feed.send(name)
    assert profile_doc(agg.merged_profile()) == profile_doc(_serial(agg))
    # the early bundle's views still hold the bytes they were taken over
    for name, trace in early.nodes.items():
        raw = (damaged_dir / f"{name}.spool").read_bytes()
        assert trace.columns.to_bytes() == raw[:2 * CHUNK * RECORD_SIZE]


def test_to_bundle_views_the_node_buffers(damaged_dir):
    agg = _fed_hub(damaged_dir).aggregator
    bundle = agg.to_bundle()
    for name, trace in bundle.nodes.items():
        arr = trace.columns.array
        assert not arr.flags.writeable
        buf = np.frombuffer(bytes(agg.nodes[name].buf), dtype=np.uint8)
        assert np.shares_memory(arr, buf)


def test_saved_bundle_stays_byte_identical(damaged_dir, tmp_path):
    agg = _fed_hub(damaged_dir).aggregator
    local_dir, wire_dir = tmp_path / "local", tmp_path / "wire"
    TraceBundle.load(damaged_dir).save(local_dir)
    agg.save_bundle(wire_dir)
    for name in NAMES:
        assert (wire_dir / f"{name}.spool").read_bytes() == \
            (damaged_dir / f"{name}.spool").read_bytes()
    assert compare_bundle_dirs(local_dir, wire_dir) == []
    assert compare_bundle_dirs(damaged_dir, wire_dir) == []
