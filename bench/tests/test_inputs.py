"""The seeded input generators keep the shapes the workloads rely on."""

import numpy as np
import pytest

from bench import inputs
from repro.check.causal import CausalAnalyzer
from repro.core.spool import STREAM_CHUNK_RECORDS
from repro.core.streamprof import ProfileAccumulator
from repro.core.trace import REC_ENTER, REC_EXIT, REC_TEMP

GENERATORS = [inputs.flat_trace, inputs.zipf_trace]


@pytest.mark.parametrize("make", GENERATORS)
def test_frames_balanced_per_pid(make):
    arr, _ = make(11, 20_000)
    stacks: dict[int, list[int]] = {}
    for kind, addr, pid in zip(arr["kind"].tolist(), arr["addr"].tolist(),
                               arr["pid"].tolist()):
        if kind == REC_ENTER:
            stacks.setdefault(pid, []).append(addr)
        elif kind == REC_EXIT:
            assert stacks[pid].pop() == addr
    assert all(not s for s in stacks.values())


@pytest.mark.parametrize("make", GENERATORS)
def test_time_monotone_and_temperatures_quantized(make):
    arr, _ = make(11, 20_003)
    assert len(arr) == 20_003
    assert np.all(np.diff(arr["tsc"]) >= 0)
    temps = arr["value"][arr["kind"] == REC_TEMP]
    assert len(temps) and np.array_equal(temps * 4.0, np.round(temps * 4.0))


@pytest.mark.parametrize("make", GENERATORS + [inputs.ring_trace])
def test_same_seed_same_bytes(make):
    def as_bytes(seed):
        out = make(seed, 30_000)
        arrays = out if isinstance(out, dict) else {"node1": out[0]}
        return b"".join(a.tobytes() for a in arrays.values())

    assert as_bytes(5) == as_bytes(5)
    assert as_bytes(5) != as_bytes(6)


def test_damaged_input_falls_back_on_30_to_70_percent_of_chunks():
    arr, symtab = inputs.flat_trace(3, 400_000)
    damaged = inputs.damage(arr)
    assert len(arr) - len(damaged) == len(range(0, len(arr), 2 * STREAM_CHUNK_RECORDS))
    acc = ProfileAccumulator("node1", symtab, lambda t: t / inputs.TSC_HZ,
                             inputs.SENSORS, strict=False)
    n_chunks = 0
    for lo in range(0, len(damaged), STREAM_CHUNK_RECORDS):
        acc.consume(damaged[lo:lo + STREAM_CHUNK_RECORDS])
        n_chunks += 1
    acc.finalize()
    assert 0.3 <= sum(acc.fallbacks.values()) / n_chunks <= 0.7


def test_ring_is_race_free_and_fully_counted():
    arrays = inputs.ring_trace(9, 6_000)
    analyzer = CausalAnalyzer()
    for node, arr in arrays.items():
        analyzer.add_node(node, inputs.RING_TSC_HZ)
        analyzer.consume(node, arr)
    assert analyzer.finalize() == []
    assert analyzer.n_comm_events == sum(len(a) for a in arrays.values())
