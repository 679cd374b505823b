"""KPI engine: synthetic formula checks, stream discipline, conservation
and equivalence between the streaming path and the whole-log recompute."""

import re
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, assume, given, settings

from holobench.harness import run_single
from holobench.interface import DecodeError, encode_record, iter_records, make_record
from holobench.kpi import (
    ConservationError,
    KpiEngine,
    KpiReport,
    StreamError,
    recompute_from_log,
    reports_match,
)
from holobench.model import load_model_doc
from holobench.scenario import load_scenario_doc
from strategies import ORACLE_SHOP, oracle_sessions

GENERATED = settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def run_generated(session):
    book, scenario_doc, seed = session
    model = load_model_doc(ORACLE_SHOP)
    return run_single(model, book, load_scenario_doc(scenario_doc, model=model, orders=book), seed)


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


def kpi_tap(i):
    return make_record("control", 4, 12, "tap",
                       {"flow": "FLOW7", "name": "commands_issued", "value": 3, "i": i})


# One order through M1, stream by stream; every fold refuses each broken
# stream below at the same entry, with the same words.
_O1 = meta([{"id": "O1", "routing": ["A"], "release": 0, "due": 10, "priority": 0}])
_RELEASE, _START, _FINISH, _COMPLETE = (
    batch(1, 0, [{"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"}]),
    batch(2, 2, [{"time": 2, "seq": 2, "kind": "op-started", "machine": "M1", "order": "O1",
                  "node": "M1"}]),
    batch(3, 8, [{"time": 8, "seq": 3, "kind": "op-finished", "machine": "M1", "order": "O1",
                  "node": "M1"}]),
    batch(4, 12, [{"time": 12, "seq": 4, "kind": "order-completed", "order": "O1",
                   "node": "OUT"}]),
)
BROKEN_STREAMS = {
    "seq-repeated-later": (
        [_O1, _RELEASE, _START, _FINISH,
         batch(4, 9, [{"time": 9, "seq": 3, "kind": "op-started", "machine": "M1",
                       "order": "O1", "node": "M1"}])],
        "FLOW1 regressed: (t=9, seq=3) after (t=8, seq=3)",
    ),
    "batches-swapped": (
        [_O1, _START, _RELEASE, _FINISH, _COMPLETE],
        "FLOW1 regressed: (t=0, seq=1) after (t=2, seq=2)",
    ),
    "batch-twice": (
        [_O1, _RELEASE, _START, _START, _FINISH, _COMPLETE],
        "FLOW1 regressed: (t=2, seq=2) after (t=2, seq=2)",
    ),
    "tap-repeated": (
        [_O1, _RELEASE, _START, _FINISH, _COMPLETE, kpi_tap(0), kpi_tap(0)],
        "FLOW7 regressed: (t=12, seq=0) after (t=12, seq=0)",
    ),
}


class TestStreamDiscipline:
    def test_duplicate_batches_are_refused(self):
        # No caller delivers a record twice, so a repeat is a broken stream:
        # both folds refuse it, at the second copy of the first batch.
        records = [_O1, _RELEASE, _RELEASE]  # the batch delivered twice
        refusal = "FLOW1 regressed: (t=0, seq=1) after (t=0, seq=1)"
        eng = KpiEngine()
        with pytest.raises(StreamError, match=re.escape(refusal)):
            for r in records:
                eng.observe_record(r)
        with pytest.raises(StreamError, match=re.escape(refusal)):
            recompute_from_log(b"".join(map(encode_record, records)))

    @pytest.mark.parametrize("stream, refusal", BROKEN_STREAMS.values(), ids=BROKEN_STREAMS)
    def test_both_folds_refuse_a_broken_stream_alike(self, stream, refusal):
        log = b"".join(map(encode_record, stream))
        eng = KpiEngine()
        with pytest.raises(StreamError) as streamed:
            for _, record in iter_records(log):
                eng.observe_record(record)
        with pytest.raises(StreamError) as recomputed:
            recompute_from_log(log)
        assert str(streamed.value) == str(recomputed.value) == refusal

    @pytest.mark.parametrize("i", [None, "0", 0.5, True])
    def test_recompute_refuses_a_tap_without_an_integer_index(self, i):
        log = encode_record(kpi_tap(0)) + encode_record(
            make_record("control", 4, 12, "tap", {**kpi_tap(0)["body"], "i": i})
        )
        words = "tap i must not be null" if i is None else "tap i must be an integer"
        with pytest.raises(DecodeError, match=words) as e:
            recompute_from_log(log)
        assert e.value.offset == len(encode_record(kpi_tap(0)))

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
    @GENERATED
    @given(session=oracle_sessions())
    def test_generated_sessions(self, session):
        result = run_generated(session)
        assume(result.status == "completed")
        assert reports_match(result.report, recompute_from_log(result.log)) == []

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

    def test_an_insert_reusing_a_book_id_keeps_the_book_due(self, minicell_model,
                                                            minicell_orders, null_scenario):
        # The control drops an insert whose id it already holds, so neither
        # fold may take the dropped insert's due for the book order's.
        scenario = load_scenario_doc({
            "id": "reuse", "category": "order-management",
            "rules": [{
                "trigger": {"kind": "on-event", "event": "order-released",
                            "where": {"order": "O1"}},
                "actions": [{"kind": "direct", "directive": {"kind": "insert-order", "order": {
                    "id": "$event.order", "routing": ["A"], "release": 0, "due": 1}}}],
            }],
        }, model=minicell_model, orders=minicell_orders)
        result = run_single(minicell_model, minicell_orders, scenario, seed=1)
        null = run_single(minicell_model, minicell_orders, null_scenario, seed=1).report
        assert result.status == "completed"
        assert b'"insert-order"' in result.log  # the directive was sent
        for report in (result.report, recompute_from_log(result.log)):
            assert (report.tardiness_total, report.tardy_orders) == (
                null.tardiness_total, null.tardy_orders) == (0, 0)


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
    @staticmethod
    def stream(log):
        """The engine's report of a log, observed record by record."""
        eng = KpiEngine()
        for _, record in iter_records(log):
            eng.observe_record(record)
        return eng.finalize()

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
        for read in (recompute_from_log, self.stream):
            with pytest.raises(StreamError, match=message):
                read(mutated)

    # The events after the cut event that end its interval, and the one of
    # them whose arrival then finds the machine in the wrong state.
    ENDS = {
        "op-started": (("op-finished", "machine-down", "product-rejected"), "op-finished"),
        "machine-down": (("machine-up",), "machine-up"),
        "supply-blocked": (("supply-restored",), "supply-restored"),
    }

    @GENERATED
    @given(session=oracle_sessions())
    def test_generated_sessions_with_a_machine_event_cut(self, session):
        """Cutting the first event that opens a busy, down or blocked
        interval makes the engine and the oracle raise the same
        ``StreamError`` when the interval's end then finds the machine in
        the wrong state, and neither raise anything otherwise."""
        result = run_generated(session)
        assume(result.status == "completed")
        log = result.log
        events = [e for _, r in iter_records(log) if r["kind"] == "event-batch"
                  for e in r["body"]["events"]]
        for cut, (ends, faulty) in self.ENDS.items():
            at = next((i for i, e in enumerate(events) if e["kind"] == cut), None)
            if at is None:
                continue
            machine = events[at]["machine"]
            end = next((e["kind"] for e in events[at + 1:]
                        if e["kind"] in ends and e.get("machine") == machine), None)
            mutated = drop_first_event(log, cut)
            faults = []
            for read in (recompute_from_log, self.stream):
                try:
                    read(mutated)
                except StreamError as exc:
                    faults.append(str(exc))
            if end == faulty:
                assert len(faults) == 2 and faults[0] == faults[1], (cut, faults)
            else:
                assert faults == [], (cut, faults)

    def test_a_machine_fault_is_met_before_conservation(self):
        """A log that both breaks conservation and contradicts a machine's
        state raises the machine fault in both: the engine while observing,
        the oracle in its one ordered pass."""
        records = [
            meta([{"id": "O1", "routing": ["A"], "release": 0, "due": 10, "priority": 0}]),
            batch(1, 0, [
                {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
            ]),
            batch(2, 4, [
                {"time": 4, "seq": 2, "kind": "op-finished", "machine": "M1", "order": "O1",
                 "node": "M1"},
            ]),
        ]
        log = b"".join(encode_record(r) for r in records)
        for read in (recompute_from_log, self.stream):
            with pytest.raises(StreamError, match="op-finished on idle machine 'M1'"):
                read(log)

    @pytest.mark.parametrize("start, end, message", [
        ("machine-down", "machine-up", "machine-down on already down machine 'M1'"),
        ("supply-blocked", "supply-restored", "supply-blocked on already blocked machine 'M1'"),
    ])
    def test_a_repeated_outage_start_is_an_error(self, start, end, message):
        """An outage that starts on a machine already in it contradicts the
        machine's state: both folds raise the same ``StreamError``, though
        the outage then ends and the log is otherwise consistent."""
        def log_of(repeated):
            return b"".join(encode_record(r) for r in [
                meta([{"id": "O1", "routing": ["A"], "release": 0, "due": 10, "priority": 0}]),
                batch(1, 0, [
                    {"time": 0, "seq": 1, "kind": "order-released", "order": "O1", "node": "IN"},
                    {"time": 0, "seq": 2, "kind": start, "machine": "M1"},
                ]),
                batch(2, 3, repeated),
                batch(3, 5, [
                    {"time": 5, "seq": 4, "kind": end, "machine": "M1"},
                    {"time": 5, "seq": 5, "kind": "order-cancelled", "order": "O1"},
                ]),
            ])

        consistent = log_of([{"time": 3, "seq": 3, "kind": "shuttle-departed", "shuttle": "S1",
                               "node": "IN"}])
        assert self.stream(consistent) == recompute_from_log(consistent)
        contradicting = log_of([{"time": 3, "seq": 3, "kind": start, "machine": "M1"}])
        faults = []
        for read in (recompute_from_log, self.stream):
            with pytest.raises(StreamError) as info:
                read(contradicting)
            faults.append(str(info.value))
        assert faults == [message, message]
