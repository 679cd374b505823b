"""Acceptance gate.

Nine criteria, each printed as one [PASS]/[FAIL] line on the real stdout so
the verdicts are visible under pytest's capture.  Every numeric expectation
below was computed independently (hand-traced timelines, frozen golden runs,
a whole-log recomputation) before being asserted here.
"""

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import holobench
from holobench.canon import canon_dumps
from holobench.control import ReferenceControl, load_orders_file
from holobench.harness import artifact_digest, load_suite, run_single, run_suite
from holobench.interface import (
    encode_record,
    extract_command_log,
    extract_event_stream,
    iter_records,
    replay_session,
)
from holobench.kpi import ConservationError, recompute_from_log, reports_match
from holobench.model import load_model_file
from holobench.scenario import (
    REGISTRY_SHA256,
    CategoryRegistry,
    RegistryError,
    ScenarioError,
    load_scenario_doc,
    load_scenario_file,
)

DATA = Path(holobench.__file__).parent / "data"
SUITE = str(DATA / "minicell" / "suite.json")

FLOAT_TOL = 1e-9
WALL_BUDGET_S = 10.0


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}", file=sys.__stdout__)
                raise
            print(f"[PASS] criterion {number}: {description}", file=sys.__stdout__)

        return wrapper

    return deco


@pytest.fixture(scope="module")
def bench():
    suite = load_suite(SUITE)
    model = suite.load_model()
    return suite, model, suite.load_orders(), suite.load_scenarios()


def all_runs(bench, **kw):
    suite, model, orders, scenarios = bench
    for sc in scenarios:
        for seed in suite.seeds:
            yield run_single(model, orders, sc, seed, cap=suite.cap, **kw)


def scenario_named(bench, name):
    return next(sc for sc in bench[3] if sc.id == name)


@criterion(1, "suite reruns are byte-identical and fit the wall budget")
def test_c1_determinism(bench, tmp_path):
    suite = bench[0]
    started = time.perf_counter()
    a = run_suite(suite, str(tmp_path / "a"))
    b = run_suite(suite, str(tmp_path / "b"))
    wall = time.perf_counter() - started
    assert len(a["runs"]) == 15 and len(b["runs"]) == 15
    assert all(r["status"] == "completed" for r in a["runs"])
    assert artifact_digest(str(tmp_path / "a")) == artifact_digest(str(tmp_path / "b"))
    assert wall < WALL_BUDGET_S, f"two suite executions took {wall:.2f}s"


@criterion(2, "breakdown fires on the exact triggering tick and recovers on time")
def test_c2_trigger_exactness(bench):
    _, model, orders, _ = bench
    result = run_single(model, orders, scenario_named(bench, "ps9"), seed=1)
    assert result.status == "completed"
    events = extract_event_stream(result.log)
    first_departure = next(
        e for e in events if e.kind == "shuttle-departed" and e.node == "M2"
    )
    (down,) = [e for e in events if e.kind == "machine-down"]
    (up,) = [e for e in events if e.kind == "machine-up"]
    assert down.time == first_departure.time == 35
    assert up.time == down.time + 50 == 85
    assert result.report.makespan == 125


@criterion(3, "a fresh control replayed over the recorded wire emits the same bytes")
def test_c3_transparency(bench):
    _, model, _, _ = bench
    checked = 0
    for result in all_runs(bench):
        assert result.status == "completed"
        replayed = replay_session(result.log, ReferenceControl(model))
        assert replayed == extract_command_log(result.log), result.run_id
        checked += 1
    assert checked == 15


@criterion(4, "streaming KPIs equal an independent whole-log recomputation")
def test_c4_kpi_equivalence(bench):
    checked = 0
    for result in all_runs(bench):
        assert result.report is not None
        diffs = reports_match(result.report, recompute_from_log(result.log), tol=FLOAT_TOL)
        assert diffs == [], f"{result.run_id}: {diffs}"
        checked += 1
    assert checked >= 15


@criterion(5, "one plant model per session; scenarios cannot smuggle plant changes")
def test_c5_leanness(bench):
    _, model, _, _ = bench
    hashes = set()
    for result in all_runs(bench):
        for _, record in iter_records(result.log):
            if record["kind"] == "hello":
                hashes.add(record["body"]["model_hash"])
    assert hashes == {model.model_hash}
    with pytest.raises(ScenarioError, match="unknown keys"):
        load_scenario_doc({
            "id": "sneaky",
            "category": "quality",
            "description": "",
            "rules": [],
            "distributions": {},
            "model": {"machines": {}},
        })


@criterion(6, "every release is settled, and a mutated log is caught")
def test_c6_conservation(bench):
    _, model, orders, _ = bench
    result = run_single(model, orders, scenario_named(bench, "null"), seed=1)
    report = recompute_from_log(result.log)  # intact log balances
    assert report.released == report.completed + report.cancelled + report.scrapped
    mutated = bytearray()
    removed = 0
    for line, record in iter_records(result.log):
        if removed == 0 and record["kind"] == "event-batch":
            events = record["body"]["events"]
            survivors = [e for e in events if e["kind"] != "order-completed"]
            if len(survivors) < len(events):
                removed = 1
                record["body"]["events"] = survivors
                mutated += encode_record(record)
                continue
        mutated += line
    assert removed == 1
    with pytest.raises(ConservationError):
        recompute_from_log(bytes(mutated))


@criterion(7, "the label registry is total, hashed, and classifies every case")
def test_c7_registry(bench):
    reg = CategoryRegistry.load()
    assert reg.sha256 == REGISTRY_SHA256
    assert len(reg.labels) == 30
    counts = Counter(reg.labels.values())
    assert counts == {
        "dynamic-reconfiguration": 17,
        "quality": 2,
        "order-management": 10,
        "supply": 1,
    }
    assert sum(counts.values()) == 30
    assert reg.classify("ps9") == "dynamic-reconfiguration"
    assert reg.classify("#PS5") == "dynamic-reconfiguration"
    assert reg.classify("#PS8") == "supply"
    assert reg.classify("#PS6") == "quality"
    assert reg.classify("#PS11") == "quality"
    assert reg.classify("Query 7") == "order-management"
    assert reg.classify("BD1") == "order-management"
    with pytest.raises(RegistryError):
        reg.classify("PS99")
    # every packaged disturbance scenario declares its registry category
    for sc in bench[3]:
        if sc.category is not None:
            try:
                assert reg.classify(sc.id) == sc.category
            except RegistryError:
                pass  # scenario ids outside the registry are free to choose


@criterion(8, "frozen golden runs reproduce exactly")
def test_c8_goldens(bench):
    _, model, orders, _ = bench
    null = run_single(model, orders, scenario_named(bench, "null"), seed=1).report
    ps9 = run_single(model, orders, scenario_named(bench, "ps9"), seed=1)
    ps9_report = ps9.report

    assert null.makespan == 75
    assert null.released == null.completed == 3
    assert null.machine_busy == {"M1": 30, "M2": 45}
    assert null.machine_down == {"M1": 0, "M2": 0}
    assert null.utilization == {"M1": 0.4, "M2": 0.6}
    assert null.lead_time_max == 75
    assert abs(null.lead_time_mean - 170 / 3) < FLOAT_TOL
    assert null.tardiness_total == 0 and null.tardy_orders == 0
    assert null.commands_issued == 21
    assert null.reschedules == 0

    completions = {
        e.order: e.time
        for e in extract_event_stream(ps9.log)
        if e.kind == "order-completed"
    }
    assert completions == {"O1": 40, "O2": 105, "O3": 125}
    assert ps9_report.makespan == 125
    assert ps9_report.makespan > null.makespan
    assert ps9_report.machine_down == {"M1": 0, "M2": 50}
    assert ps9_report.utilization == {"M1": 0.24, "M2": 0.36}
    assert ps9_report.tardiness_total == 80 and ps9_report.tardy_orders == 2
    assert ps9_report.reschedules == 1
    assert ps9_report.directives_handled == 1


@criterion(9, "KPI taps observe without perturbing the wire")
def test_c9_passive_taps(bench):
    _, model, orders, _ = bench
    sc = scenario_named(bench, "supply-shortage")
    with_kpi = run_single(model, orders, sc, seed=3)
    without = run_single(model, orders, sc, seed=3, attach_kpi=False)
    assert with_kpi.report is not None and without.report is None
    assert with_kpi.log == without.log
    # and the log itself is canonical: re-encoding every line is a no-op
    for line, record in iter_records(with_kpi.log):
        assert encode_record(record) == line
