"""Every workload at ``--scale 0.02``: correct, quick, and printing exactly
the metrics ``BENCHMARK.json`` declares; a wrong output is a counted
failure, never a crash."""

import json
import subprocess
import sys
import time

import pytest

from bench.run import ROOT, main
from bench.workloads import WORKLOADS, Profile1M

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_set(tmp_path, trace: int):
    out = tmp_path / f"result-{trace}.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--scale", "0.02",
         "--seconds", "0", "--seed", "2007", "--trace", str(trace),
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return proc.stdout, elapsed, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run_set(tmp_path_factory.mktemp("untraced"), 0)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run_set(tmp_path_factory.mktemp("traced"), 1)


def _result_lines(stdout: str) -> list[dict]:
    return [json.loads(line) for line in stdout.splitlines()
            if line.startswith("{")]


def test_every_workload_is_correct_and_quick(untraced):
    _, elapsed, doc = untraced
    assert elapsed < 20
    assert set(doc["workloads"]) == set(WORKLOADS)
    assert list(WORKLOADS) == [w["name"] for w in DECLARED["workloads"]]
    for name, wl in doc["workloads"].items():
        assert wl["fail_frac"] == 0, (name, wl["failures"])
    assert doc["seed"] == 2007 and doc["nproc"] >= 1
    assert doc["python"] and doc["numpy"]


@pytest.mark.parametrize("mode, key", [("untraced", "end_to_end"),
                                       ("traced", "per_layer")])
def test_printed_metrics_match_the_declaration(mode, key, request):
    stdout, _, _ = request.getfixturevalue(mode)
    declared = {m["name"]: m["unit"] for m in DECLARED[key]}
    lines = _result_lines(stdout)
    assert len(lines) == len(WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert {k: m["unit"] for k, m in line["metrics"].items()} == declared
    human = "\n".join(ln for ln in stdout.splitlines() if not ln.startswith("{"))
    for name in declared:
        assert name in human


def test_traced_run_reaches_the_claimed_paths(traced):
    _, _, doc = traced
    fallbacks = {name: wl["metrics"]["streamprof.fallback_chunks"]["value"]
                 for name, wl in doc["workloads"].items()}
    assert fallbacks["profile-1m"] == 0
    assert fallbacks["profile-lenient"] > 0
    assert doc["workloads"]["hotpaths-zipf"]["metrics"]["cct.evicted"]["value"] > 0
    for wl in doc["workloads"].values():
        assert wl["self_times"]["unit"]["n"] >= 3


def test_perturbed_output_is_a_counted_failure(monkeypatch, capsys):
    real_unit = Profile1M.unit

    def perturbed(self, rec):
        profile = real_unit(self, rec)
        fp = next(iter(profile.nodes["node1"].functions.values()))
        fp.n_calls += 1
        return profile

    monkeypatch.setattr(Profile1M, "unit", perturbed)
    code = main(["--workload", "profile-1m", "--scale", "0.01",
                 "--seconds", "0", "--seed", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert not last["correct"] and last["failed"] == last["attempted"] >= 4


def test_raising_unit_is_a_counted_failure(monkeypatch, capsys):
    real_unit = Profile1M.unit
    calls = []

    def flaky(self, rec):
        calls.append(1)
        if len(calls) % 2 == 0:
            raise RuntimeError("injected")
        return real_unit(self, rec)

    monkeypatch.setattr(Profile1M, "unit", flaky)
    code = main(["--workload", "profile-1m", "--scale", "0.01",
                 "--seconds", "0", "--seed", "1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert 0 < last["failed"] < last["attempted"]
    assert last["metrics"]["time_to_result_s"]["value"] > 0
