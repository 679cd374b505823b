"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The end-to-end cases start ``run.py`` as a subprocess with ``--seconds 1``
(one iteration of each phase), on seeds that have no frozen digest, so they
rest on the run's own checks: completion, the KPI oracle, replay, and equal
digests between iterations and between traced and untraced runs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

UNFROZEN_SEEDS = (1001, 1002)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_and_loadable(name, tmp_path):
    a = workloads.make(name, 7, str(tmp_path))
    b = workloads.make(name, 7, str(tmp_path))
    other = workloads.make(name, 8, str(tmp_path))
    assert gen.canonical(a.inputs) == gen.canonical(b.inputs)
    assert gen.sha256(a.inputs) != gen.sha256(other.inputs)
    a.load()  # every generated document passes the program's loaders


def _attributes() -> dict:
    out = {}
    for _, module, path, _ in tracing.ENTRY_POINTS:
        owner, attr = tracing.resolve(module, path)
        out[(module, path)] = vars(owner)[attr]
    for module, path in (workloads.LIVE_ROUNDS, workloads.REPLAY_ROUNDS, workloads.SESSIONS):
        owner, attr = tracing.resolve(module, path)
        out[(module, path)] = vars(owner)[attr]
    return out


def test_removing_instruments_restores_attributes():
    before = _attributes()
    with tracing.Probes(workloads.LIVE_ROUNDS, workloads.SESSIONS):
        with tracing.Tracer():
            during = _attributes()
    after = _attributes()
    assert all(during[key] is not before[key] for key in before)
    assert all(after[key] is before[key] for key in before)


def test_reference_clock_scales_by_host_speed_and_skips_samples():
    r = tracing.REFERENCE_WORK_S
    # The host runs reference_work at half speed throughout.
    ref = tracing.ReferenceClock([(0.0, 2 * r), (1.0, 1.0 + 2 * r), (2.0, 2.0 + 2 * r)])
    assert ref.seconds((0.5, 1.5)) == pytest.approx(0.5 * (1.0 - 2 * r))
    assert ref.seconds((1.0, 1.0 + 2 * r)) == 0.0
    assert tracing.ReferenceClock([]).seconds((0.5, 1.5)) == 1.0


def test_traced_and_untraced_digests_are_equal(tmp_path):
    wl = workloads.make("disturbed-16x8", 3, str(tmp_path))
    wl.load()
    wl.prepare()
    plain = wl.iterate(None)
    wl.check(plain)
    tracer = tracing.Tracer()
    traced = wl.iterate(tracer)
    wl.check(traced)
    assert plain.failed == traced.failed == 0
    assert plain.digest and plain.digest == traced.digest
    assert tracer.calls("control.on_round") > 0


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=180)


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("seed", UNFROZEN_SEEDS)
def test_every_workload_completes_on_unfrozen_seeds(name, seed):
    trace = seed % 2
    proc = _run("--workload", name, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:  # the layers' self times account for the traced iterations
        assert result["metrics"]["trace.accounted_ratio"]["value"] > 0.95


def test_frozen_seed_reproduces_its_digest():
    proc = _run("--workload", "disturbed-16x8", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
    with open(os.path.join(ROOT, ".perfbench_work", "result-disturbed-16x8-s0-trace0.json"),
              encoding="utf-8") as f:
        assert json.load(f)["frozen_digest"]


def test_unfrozen_seeds_are_not_in_the_baseline():
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as f:
        digests = json.load(f)["digests"]
    for table in digests.values():
        assert not {str(s) for s in UNFROZEN_SEEDS} & set(table)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "audit", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
