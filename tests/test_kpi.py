"""KPI engine: synthetic formula checks, duplicate robustness, conservation
and equivalence between the streaming path and the whole-log recompute."""

from dataclasses import fields

import pytest

from holobench.harness import run_single
from holobench.interface import encode_record, iter_records, make_record
from holobench.kpi import (
    ConservationError,
    KpiEngine,
    KpiReport,
    StreamError,
    recompute_from_log,
    reports_match,
)


def batch(round_no, t, events):
    payload = []
    for e in events:
        payload.append({k: v for k, v in e.items()})
    return make_record("emulation", round_no, t, "event-batch",
                       {"events": payload, "notices": []})


def meta(orders, machines=("M1",)):
    return make_record("emulation", 0, 0, "run-meta", {
        "run_id": "syn-s1", "scenario": "syn", "seed": 1,
        "orders": orders, "machines": list(machines),
    })


def synthetic_engine():
    """One order walks one machine; every number below is checkable by hand."""
    eng = KpiEngine()
    eng.observe_record(meta([
        {"id": "O1", "routing": ["A"], "release": 0, "due": 10, "priority": 0},
    ]))
    eng.observe_record(batch(1, 0, [
        {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
    ]))
    eng.observe_record(batch(2, 2, [
        {"time": 2, "seq": 2, "kind": "op-started", "machine": "M1", "order": "O1",
         "node": "M1"},
    ]))
    eng.observe_record(batch(3, 8, [
        {"time": 8, "seq": 3, "kind": "op-finished", "machine": "M1", "order": "O1",
         "node": "M1"},
    ]))
    eng.observe_record(batch(4, 12, [
        {"time": 12, "seq": 4, "kind": "order-completed", "order": "O1", "node": "OUT"},
    ]))
    return eng


class TestFormulas:
    def test_hand_checked_report(self):
        r = synthetic_engine().finalize()
        assert r.makespan == 12
        assert r.released == 1 and r.completed == 1
        assert r.cancelled == 0 and r.scrapped == 0
        assert r.machine_busy == {"M1": 6}
        assert r.utilization == {"M1": 6 / 12}
        assert r.lead_time_mean == 12.0 and r.lead_time_max == 12
        assert r.tardiness_total == 2 and r.tardy_orders == 1
        assert r.tardiness_mean == 2.0 and r.tardiness_max == 2
        assert r.throughput_per_1000 == pytest.approx(1000 / 12)
        assert r.events_observed == 4

    def test_makespan_is_last_completion(self):
        # scrap after the completion: settles conservation, not the horizon
        eng = synthetic_engine()
        eng.observe_record(batch(5, 13, [
            {"time": 13, "seq": 5, "kind": "order-released", "order": "O2",
             "node": "IN"},
        ]))
        eng.observe_record(batch(6, 30, [
            {"time": 30, "seq": 6, "kind": "product-rejected", "order": "O2",
             "node": "IN", "info": {"policy": "scrap"}},
        ]))
        r = eng.finalize()
        assert r.makespan == 12
        assert r.scrapped == 1

    def test_open_busy_interval_clips_to_makespan(self):
        eng = KpiEngine()
        eng.observe_record(meta([
            {"id": "O1", "routing": ["A"], "release": 0, "due": 50, "priority": 0},
            {"id": "O2", "routing": ["A"], "release": 0, "due": 50, "priority": 0},
        ]))
        eng.observe_record(batch(1, 0, [
            {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
            {"time": 0, "seq": 2, "kind": "order-released", "order": "O2", "node": "IN"},
        ]))
        eng.observe_record(batch(2, 3, [
            {"time": 3, "seq": 3, "kind": "op-started", "machine": "M1", "order": "O1",
             "node": "M1"},
        ]))
        # O1 vanishes from the book mid-operation; M1's interval stays open
        eng.observe_record(batch(3, 5, [
            {"time": 5, "seq": 4, "kind": "order-cancelled", "order": "O1",
             "node": "M1"},
        ]))
        eng.observe_record(batch(4, 7, [
            {"time": 7, "seq": 5, "kind": "order-completed", "order": "O2",
             "node": "OUT"},
        ]))
        r = eng.finalize()
        assert r.makespan == 7
        assert r.machine_busy == {"M1": 4}  # open interval closed at the horizon

    def test_downtime_accounting(self):
        eng = KpiEngine()
        eng.observe_record(meta([
            {"id": "O1", "routing": ["A"], "release": 0, "due": 99, "priority": 0},
        ], machines=("M1", "M2")))
        eng.observe_record(batch(1, 0, [
            {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
        ]))
        eng.observe_record(batch(2, 4, [
            {"time": 4, "seq": 2, "kind": "machine-down", "machine": "M2", "node": "M2"},
        ]))
        eng.observe_record(batch(3, 9, [
            {"time": 9, "seq": 3, "kind": "machine-up", "machine": "M2", "node": "M2"},
        ]))
        eng.observe_record(batch(4, 12, [
            {"time": 12, "seq": 4, "kind": "order-completed", "order": "O1",
             "node": "OUT"},
        ]))
        r = eng.finalize()
        assert r.machine_down == {"M1": 0, "M2": 5}
        assert r.makespan == 12

    def test_finalize_twice_gives_the_same_report(self):
        # M2 is down 1-2 and again from 3, M1 blocked from 4; both intervals
        # are still open when O1 completes at 6.
        eng = KpiEngine()
        eng.observe_record(meta([
            {"id": "O1", "routing": ["A"], "release": 0, "due": 99, "priority": 0},
        ], machines=("M1", "M2")))
        eng.observe_record(batch(1, 0, [
            {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
        ]))
        for seq, (t, kind, machine) in enumerate([
            (1, "machine-down", "M2"), (2, "machine-up", "M2"),
            (3, "machine-down", "M2"), (4, "supply-blocked", "M1"),
        ], start=2):
            eng.observe_record(batch(seq, t, [
                {"time": t, "seq": seq, "kind": kind, "machine": machine, "node": machine},
            ]))
        eng.observe_record(batch(6, 6, [
            {"time": 6, "seq": 6, "kind": "order-completed", "order": "O1", "node": "OUT"},
        ]))
        first = eng.finalize()
        assert first.machine_down == {"M1": 0, "M2": 4}
        assert first.machine_blocked == {"M1": 2, "M2": 0}
        assert eng.finalize() == first

    def test_scrap_in_process_and_open_down_and_block_intervals(self):
        # O1 is scrapped on M1 mid-operation; M1 goes down and M2 supply-blocked
        # at t=3, and neither recovers before O2 completes at t=12.
        records = [
            meta([
                {"id": "O1", "routing": ["A"], "release": 0, "due": 99, "priority": 0},
                {"id": "O2", "routing": ["B"], "release": 0, "due": 99, "priority": 0},
            ], machines=("M1", "M2")),
            batch(1, 0, [
                {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
                {"time": 0, "seq": 2, "kind": "order-released", "order": "O2", "node": "IN"},
            ]),
            batch(2, 1, [
                {"time": 1, "seq": 3, "kind": "op-started", "machine": "M1", "order": "O1",
                 "node": "M1"},
            ]),
            batch(3, 2, [
                {"time": 2, "seq": 4, "kind": "product-rejected", "machine": "M1",
                 "order": "O1", "node": "M1", "info": {"policy": "scrap"}},
                {"time": 2, "seq": 5, "kind": "op-started", "machine": "M2", "order": "O2",
                 "node": "M2"},
            ]),
            batch(4, 3, [
                {"time": 3, "seq": 6, "kind": "machine-down", "machine": "M1", "node": "M1"},
                {"time": 3, "seq": 7, "kind": "supply-blocked", "machine": "M2",
                 "node": "M2"},
            ]),
            batch(5, 10, [
                {"time": 10, "seq": 8, "kind": "op-finished", "machine": "M2", "order": "O2",
                 "node": "M2"},
            ]),
            batch(6, 12, [
                {"time": 12, "seq": 9, "kind": "order-completed", "order": "O2",
                 "node": "OUT"},
            ]),
        ]
        eng = KpiEngine()
        for record in records:
            eng.observe_record(record)
        recomputed = recompute_from_log(b"".join(encode_record(r) for r in records))
        for r in (eng.finalize(), recomputed):
            assert r.machine_busy == {"M1": 1, "M2": 8}
            assert r.machine_down == {"M1": 9, "M2": 0}
            assert r.machine_blocked == {"M1": 0, "M2": 9}
            assert r.scrapped == 1
            assert r.makespan == 12

    def test_rework_counter_and_directive_due_registration(self):
        eng = synthetic_engine()
        # an inserted order's due arrives over the directive record
        eng.observe_record(make_record("emulation", 5, 13, "directive", {
            "kind": "insert-order",
            "order": {"id": "O1X", "routing": ["A"], "release": 13, "due": 99,
                      "priority": 0},
        }))
        eng.observe_record(batch(5, 13, [
            {"time": 13, "seq": 5, "kind": "order-released", "order": "O1X",
             "node": "IN"},
        ]))
        # on-floor rework: counted, order stays open, so settle it after
        eng.observe_record(batch(6, 14, [
            {"time": 14, "seq": 6, "kind": "product-rejected", "order": "O1X",
             "node": "IN", "info": {"policy": "rework"}},
        ]))
        eng.observe_record(batch(7, 20, [
            {"time": 20, "seq": 7, "kind": "order-cancelled", "order": "O1X",
             "node": "IN"},
        ]))
        r = eng.finalize()
        assert r.rework_events == 1
        assert r.cancelled == 1


class TestStreamDiscipline:
    def test_duplicate_batches_are_dropped_without_drift(self):
        clean = synthetic_engine().finalize()
        eng = KpiEngine()
        eng.observe_record(meta([
            {"id": "O1", "routing": ["A"], "release": 0, "due": 10, "priority": 0},
        ]))
        payloads = [
            batch(1, 0, [{"time": 0, "seq": 1, "kind": "order-released",
                          "order": "O1", "node": "IN"}]),
            batch(2, 2, [{"time": 2, "seq": 2, "kind": "op-started", "machine": "M1",
                          "order": "O1", "node": "M1"}]),
            batch(3, 8, [{"time": 8, "seq": 3, "kind": "op-finished", "machine": "M1",
                          "order": "O1", "node": "M1"}]),
            batch(4, 12, [{"time": 12, "seq": 4, "kind": "order-completed",
                           "order": "O1", "node": "OUT"}]),
        ]
        for p in payloads:
            eng.observe_record(p)
            eng.observe_record(p)  # delivered twice
        noisy = eng.finalize()
        assert eng.duplicates_dropped == 4
        assert reports_match(clean, noisy) == []

    def test_regression_is_an_error(self):
        eng = synthetic_engine()
        with pytest.raises(StreamError, match="regressed"):
            eng.observe_record(batch(5, 3, [
                {"time": 3, "seq": 1, "kind": "machine-up", "machine": "M1",
                 "node": "M1"},
            ]))

    def test_double_start_is_an_error(self):
        eng = KpiEngine()
        eng.observe_record(meta([]))
        eng.observe_record(batch(1, 1, [
            {"time": 1, "seq": 1, "kind": "op-started", "machine": "M1", "order": "O1",
             "node": "M1"},
        ]))
        with pytest.raises(StreamError, match="busy"):
            eng.observe_record(batch(2, 2, [
                {"time": 2, "seq": 2, "kind": "op-started", "machine": "M1",
                 "order": "O2", "node": "M1"},
            ]))

    def test_completion_without_registration_is_an_error(self):
        eng = KpiEngine()
        eng.observe_record(meta([]))
        eng.observe_record(batch(1, 0, [
            {"time": 0, "seq": 1, "kind": "order-released", "order": "OX", "node": "IN"},
        ]))
        eng.observe_record(batch(2, 5, [
            {"time": 5, "seq": 2, "kind": "order-completed", "order": "OX",
             "node": "OUT"},
        ]))
        with pytest.raises(StreamError, match="registered"):
            eng.finalize()


class TestConservation:
    def test_unsettled_release_is_flagged(self):
        eng = KpiEngine()
        eng.observe_record(meta([
            {"id": "O1", "routing": ["A"], "release": 0, "due": 10, "priority": 0},
        ]))
        eng.observe_record(batch(1, 0, [
            {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
        ]))
        with pytest.raises(ConservationError, match="O1"):
            eng.finalize()

    def test_mutated_log_is_detected(self, minicell_model, minicell_orders,
                                     null_scenario):
        result = run_single(minicell_model, minicell_orders, null_scenario, seed=1)
        assert result.status == "completed"
        recompute_from_log(result.log)  # intact log is conservative
        kept = []
        dropped = 0
        for line, record in iter_records(result.log):
            if (dropped == 0 and record["kind"] == "event-batch"
                    and any(e["kind"] == "order-completed"
                            for e in record["body"]["events"])):
                dropped = 1
                continue
            kept.append(line)
        assert dropped == 1
        with pytest.raises(ConservationError):
            recompute_from_log(b"".join(kept))


class TestStreamingMatchesRecompute:
    @pytest.mark.parametrize("name, seed", [
        ("null", 1), ("ps9", 1), ("rush_order", 2), ("reject_rework", 3),
        ("supply_shortage", 2),
    ])
    def test_equivalence(self, minicell_model, minicell_orders, scenario_by_name,
                         name, seed):
        result = run_single(minicell_model, minicell_orders, scenario_by_name(name),
                            seed=seed)
        assert result.status == "completed"
        assert result.report is not None
        assert reports_match(result.report, recompute_from_log(result.log)) == []


class TestReportSerialization:
    def test_doc_round_trip(self, minicell_model, minicell_orders, null_scenario):
        r = run_single(minicell_model, minicell_orders, null_scenario, seed=1).report
        # the doc holds every field: nothing in the report is left out of it
        assert set(r.to_doc()) == {f.name for f in fields(KpiReport)}
        back = KpiReport.from_doc(r.to_doc())
        assert back == r
        assert reports_match(r, back) == []
        assert back.scalar_metrics() == r.scalar_metrics()
        # the doc holds copies: changing it leaves the report alone
        doc = r.to_doc()
        doc["utilization"]["M1"] = -1.0
        assert r.utilization["M1"] != -1.0
        assert KpiReport.from_doc(doc).utilization is not doc["utilization"]

    def test_from_doc_names_missing_and_unknown_keys(self):
        doc = synthetic_engine().finalize().to_doc()
        del doc["makespan"]
        doc["colour"] = "red"
        named = r"missing keys \['makespan'\], unknown keys \['colour'\]"
        with pytest.raises(ValueError, match=named):
            KpiReport.from_doc(doc)
        with pytest.raises(ValueError, match="JSON object"):
            KpiReport.from_doc([])

    def test_from_doc_names_values_of_the_wrong_type(self):
        doc = synthetic_engine().finalize().to_doc()
        doc["lead_time_mean"] = 3  # an integral float written as an int still reads
        KpiReport.from_doc(doc)
        doc.update(makespan=True, machine_busy={"M1": 1.5}, utilization=[], run_id=None)
        named = r"wrong type for keys \['machine_busy', 'makespan', 'run_id', 'utilization'\]"
        with pytest.raises(ValueError, match=named):
            KpiReport.from_doc(doc)

    def test_scalar_metrics_key_set(self):
        # These keys fix the rows of comparison.csv; directives_handled and
        # the per-machine busy/down/blocked totals stay out of it.
        r = synthetic_engine().finalize()
        assert list(r.scalar_metrics()) == [
            "makespan", "released", "completed", "cancelled", "scrapped",
            "rework_events", "throughput_per_1000", "lead_time_mean", "lead_time_max",
            "tardiness_total", "tardiness_mean", "tardiness_max", "tardy_orders",
            "commands_issued", "reschedules", "utilization[M1]",
        ]

    def test_scalar_metrics_flatten_per_machine_values(self):
        r = synthetic_engine().finalize()
        flat = r.scalar_metrics()
        assert flat["utilization[M1]"] == 0.5
        assert flat["makespan"] == 12

    def test_mismatch_is_reported_by_name(self):
        a = synthetic_engine().finalize()
        b = synthetic_engine().finalize()
        b.makespan = 13
        diffs = reports_match(a, b)
        assert any("makespan" in d for d in diffs)

    @pytest.mark.parametrize("change, named", [
        (lambda r: r.utilization.update(M1=0.5 + 1e-6), "utilization[M1]"),
        (lambda r: r.machine_busy.update(M1=7), "machine_busy[M1]"),
        (lambda r: r.machine_down.update(M2=3), "machine_down[M2]"),
        (lambda r: setattr(r, "lead_time_mean", 12.0 + 1e-6), "lead_time_mean"),
        (lambda r: setattr(r, "completed", 2), "completed"),
        (lambda r: r.utilization.update(M1=0.5 + 1e-12), None),
        (lambda r: setattr(r, "lead_time_mean", 12.0 + 1e-12), None),
        (lambda r: setattr(r, "duplicates_dropped", 5), None),
    ])
    def test_each_difference_beyond_tol_is_named_once(self, change, named):
        a = synthetic_engine().finalize()
        b = synthetic_engine().finalize()
        change(b)
        diffs = reports_match(a, b)
        if named is None:
            assert diffs == []
        else:
            assert len(diffs) == 1 and diffs[0].startswith(named + ": ")


def drop_first_event(log, kind):
    """The log with the first event of ``kind`` cut out of its batch."""
    out = []
    dropped = False
    for line, record in iter_records(log):
        if not dropped and record["kind"] == "event-batch":
            events = record["body"]["events"]
            for i, e in enumerate(events):
                if e["kind"] == kind:
                    del events[i]
                    dropped = True
                    line = encode_record(record)
                    break
        out.append(line)
    assert dropped
    return b"".join(out)


class TestRecomputeIsAsStrictAsTheEngine:
    @pytest.mark.parametrize("name, seed, dropped, message", [
        ("null", 1, "op-started", "op-finished on idle machine"),
        ("null", 1, "op-finished", "op-started on already busy machine"),
        ("ps9", 1, "machine-down", "machine-up on machine 'M2' that was not down"),
        ("supply_shortage", 2, "supply-blocked",
         "supply-restored on machine 'M1' that was not blocked"),
    ])
    def test_contradicting_machine_event_is_an_error(self, minicell_model, minicell_orders,
                                                     scenario_by_name, name, seed, dropped,
                                                     message):
        result = run_single(minicell_model, minicell_orders, scenario_by_name(name), seed=seed)
        assert result.status == "completed"
        recompute_from_log(result.log)  # the intact log is consistent
        mutated = drop_first_event(result.log, dropped)
        with pytest.raises(StreamError, match=message):
            recompute_from_log(mutated)
        eng = KpiEngine()
        with pytest.raises(StreamError, match=message):
            for _, record in iter_records(mutated):
                eng.observe_record(record)
