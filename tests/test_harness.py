"""Suite runner: artifact layout, byte-reproducibility, comparison outputs."""

import csv
import functools
import json
import operator
import os
import re
import shutil
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import holobench
from holobench import harness
from holobench.harness import (
    ArtifactError,
    SuiteError,
    _Comparison,
    artifact_digest,
    compare,
    load_suite,
    run_single,
    run_suite,
)
from holobench.kpi import COMPARED_METRICS


PACKAGED_SUITE_DIGEST = "39e3670588091b45fad7674a3e5bf687f3f9227b8aba5bc7f737dc018ab7207c"


def _sum_in_order(values):
    """Add left to right from int 0, as ``sum`` does before Python 3.12.

    The reference for the running sums of ``_Comparison``.  From 3.12 on,
    ``sum`` of floats compensates for rounding, which would move the last
    digit of some means in comparison.csv and so the artifact digest;
    ``math.fsum`` would move them on every interpreter.
    """
    return functools.reduce(operator.add, values, 0)


@pytest.fixture()
def data_copy(tmp_path):
    """Writable copy of the packaged data tree; relative suite paths survive."""
    src = Path(holobench.__file__).parent / "data"
    dst = tmp_path / "data"
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.fixture()
def suite(data_copy):
    return load_suite(str(data_copy / "minicell" / "suite.json"))


def record_spills(monkeypatch):
    """The spill files ``run_suite`` opens, in a list, as it opens them."""
    spills = []
    temporary_file = tempfile.TemporaryFile

    def recording_spill(*args, **kwargs):
        spills.append(temporary_file(*args, **kwargs))
        return spills[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", recording_spill)
    return spills


def edit_json(path, mutate):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    mutate(doc)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


class TestSuiteLoading:
    def test_packaged_suite(self, suite):
        assert suite.id == "minicell"
        assert len(suite.scenario_paths) == 5
        assert suite.seeds == (1, 2, 3)
        assert len(suite.load_scenarios()) == 5

    def test_unknown_key_rejected(self, data_copy):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d.update(model_overrides={}))
        with pytest.raises(SuiteError, match="unknown keys"):
            load_suite(str(p))

    def test_duplicate_seeds_rejected(self, data_copy):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d.update(seeds=[1, 1, 2]))
        with pytest.raises(SuiteError, match="duplicates"):
            load_suite(str(p))

    def test_seeds_must_be_integers(self, data_copy):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d.update(seeds=[1, "two"]))
        with pytest.raises(SuiteError, match="integers"):
            load_suite(str(p))

    @pytest.mark.parametrize("change", [{"cap": True}, {"seeds": [True, 2]}], ids=["cap", "seeds"])
    def test_booleans_are_not_integers(self, data_copy, change):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d.update(change))
        with pytest.raises(SuiteError, match=next(iter(change))):
            load_suite(str(p))

    def test_cap_must_be_positive(self, data_copy):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d.update(cap=0))
        with pytest.raises(SuiteError, match="cap"):
            load_suite(str(p))

    def test_duplicate_scenario_ids_rejected(self, data_copy):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d["scenarios"].append(d["scenarios"][0]))
        with pytest.raises(SuiteError, match="unique"):
            load_suite(str(p)).load_scenarios()

    # Suite documents each refused for one fault, as a text or as a change
    # to the packaged document, with the exact text of the refusal.
    @pytest.mark.parametrize("change, message", [
        ("not json", "suite document is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "suite document must be a JSON object"),
        (lambda d: d.pop("id"), "suite id must be a non-empty string"),
        (lambda d: d.update(id=""), "suite id must be a non-empty string"),
        (lambda d: d.update(id=7), "suite id must be a non-empty string"),
        (lambda d: d.pop("model"), "suite model must be a path string"),
        (lambda d: d.update(orders=""), "suite orders must be a path string"),
        (lambda d: d["scenarios"].append(5), "suite scenarios[5] must be a path string"),
        (lambda d: d.update(scenarios=[]), "suite scenarios must be a non-empty list of paths"),
        (lambda d: d.update(scenarios="null.json"),
         "suite scenarios must be a non-empty list of paths"),
        (lambda d: d.update(seeds=[]), "suite seeds must be a non-empty list of integers"),
        (lambda d: d.update(seeds=1), "suite seeds must be a non-empty list of integers"),
    ])
    def test_every_refusal_reads_exactly(self, data_copy, change, message):
        p = data_copy / "minicell" / "suite.json"
        if isinstance(change, str):
            p.write_text(change, encoding="utf-8")
        else:
            edit_json(p, change)
        with pytest.raises(SuiteError) as refused:
            load_suite(str(p))
        assert str(refused.value) == message

    def test_scenario_with_model_payload_fails_validation(self, data_copy):
        # leanness: a scenario cannot carry plant changes
        sp = data_copy / "scenarios" / "ps9.json"
        edit_json(sp, lambda d: d.update(model={"machines": {}}))
        suite = load_suite(str(data_copy / "minicell" / "suite.json"))
        with pytest.raises(Exception, match="unknown keys"):
            suite.load_scenarios()


class TestRunSuite:
    def test_cardinality_and_layout(self, suite, tmp_path):
        out = str(tmp_path / "out")
        manifest = run_suite(suite, out)
        assert sorted(os.listdir(out)) == [
            "comparison.csv", "logs", "manifest.json", "reports", "summary.txt", "timing.json"
        ]
        assert len(manifest["runs"]) == 15  # 5 scenarios x 3 seeds
        assert all(r["status"] == "completed" for r in manifest["runs"])
        for r in manifest["runs"]:
            assert os.path.exists(os.path.join(out, r["log"]))
            assert os.path.exists(os.path.join(out, r["report"]))
        assert os.path.exists(os.path.join(out, "comparison.csv"))
        assert os.path.exists(os.path.join(out, "summary.txt"))
        assert sorted(os.listdir(os.path.join(out, "logs"))) == sorted(
            os.path.basename(r["log"]) for r in manifest["runs"]
        )
        with open(os.path.join(out, "timing.json"), encoding="utf-8") as f:
            timing = json.load(f)
        assert sorted(timing) == sorted(r["run_id"] for r in manifest["runs"])
        for latency in timing.values():
            assert set(latency) == {"decision_latency_ms_mean", "decision_latency_ms_max"}
            assert 0 < latency["decision_latency_ms_mean"] <= latency["decision_latency_ms_max"]

    def test_rerun_is_byte_identical(self, suite, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_suite(suite, a)
        run_suite(suite, b)
        # the same value on every supported interpreter
        assert artifact_digest(a) == artifact_digest(b) == PACKAGED_SUITE_DIGEST
        # every hashed artifact really is byte-equal, not just the digest
        for name in ("manifest.json", "comparison.csv", "summary.txt"):
            with open(os.path.join(a, name), "rb") as fa, \
                 open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), name

    def test_timing_sidecars_stay_out_of_the_digest(self, suite, tmp_path):
        out = str(tmp_path / "out")
        run_suite(suite, out)
        before = artifact_digest(out)
        with open(os.path.join(out, "timing.json"), "w", encoding="utf-8") as f:
            f.write('{"null-s1": {"decision_latency_ms_mean": 999.0}}\n')
        assert artifact_digest(out) == before
        # ...while hashed artifacts do move it
        with open(os.path.join(out, "summary.txt"), "a", encoding="utf-8") as f:
            f.write("tampered\n")
        assert artifact_digest(out) != before

    def test_existing_artifacts_are_protected(self, suite, tmp_path):
        out = str(tmp_path / "out")
        run_suite(suite, out)
        with pytest.raises(ArtifactError, match="force"):
            run_suite(suite, out)
        run_suite(suite, out, force=True)  # explicit consent overwrites

    def test_forced_rerun_digests_as_a_fresh_run(self, suite, tmp_path):
        """A forced rerun with other seeds leaves none of the old runs'
        files behind, so its digest is a fresh directory's."""
        used, fresh = str(tmp_path / "used"), str(tmp_path / "fresh")
        run_suite(suite, used, seeds=(1,))
        manifest = run_suite(suite, used, seeds=(2,), force=True)
        run_suite(suite, fresh, seeds=(2,))
        assert artifact_digest(used) == artifact_digest(fresh)
        for sub, key in (("logs", "log"), ("reports", "report")):
            assert sorted(os.listdir(os.path.join(used, sub))) == sorted(
                os.path.basename(run[key]) for run in manifest["runs"]
            )

    def test_a_run_removes_no_file_its_old_manifest_does_not_name(self, suite, tmp_path):
        """Without an old manifest nothing is removed; with one (forced),
        only the log and report files it names are."""
        out = tmp_path / "out"
        for keep in ("logs/keep.txt", "reports/keep.txt", "reports/keep-dir/x"):
            (out / keep).parent.mkdir(parents=True, exist_ok=True)
            (out / keep).write_text("not holobench's\n")
        run_suite(suite, str(out), seeds=(1,))
        with pytest.raises(ArtifactError, match=re.escape("stray ['reports/keep-dir', ")):
            artifact_digest(str(out))
        run_suite(suite, str(out), seeds=(2,), force=True)
        for keep in ("logs/keep.txt", "reports/keep.txt", "reports/keep-dir/x"):
            assert (out / keep).read_text() == "not holobench's\n"
        assert not [p for p in os.listdir(out / "reports") if p.endswith("-s1.json")]

    def test_a_forced_run_removes_nothing_outside_logs_and_reports(self, suite, tmp_path):
        out = tmp_path / "out"
        manifest = run_suite(suite, str(out), seeds=(1,))
        (tmp_path / "outside.txt").write_text("keep\n")
        manifest["runs"][0]["log"] = "logs/../../outside.txt"
        manifest["runs"][1]["report"] = "summary.txt"
        (out / "manifest.json").write_text(json.dumps(manifest))
        run_suite(suite, str(out), seeds=(1,), force=True)
        assert (tmp_path / "outside.txt").read_text() == "keep\n"

    def test_a_forced_run_over_a_broken_manifest_runs_no_session(
        self, suite, tmp_path, monkeypatch
    ):
        out = tmp_path / "out"
        run_suite(suite, str(out), seeds=(1,))
        (out / "manifest.json").write_text("{not json")
        sessions = []
        monkeypatch.setattr(harness, "run_single", lambda *a, **k: sessions.append(a))
        with pytest.raises(ArtifactError, match="manifest.json"):
            run_suite(suite, str(out), seeds=(2,), force=True)
        assert sessions == []

    @pytest.mark.parametrize("damage", ["stray", "missing", "no-reports-dir"])
    def test_digest_hashes_exactly_the_reports_the_manifest_names(
        self, suite, tmp_path, damage
    ):
        out = str(tmp_path / "out")
        manifest = run_suite(suite, out, seeds=(1,))
        report = manifest["runs"][0]["report"]
        if damage == "stray":
            shutil.copy(os.path.join(out, report), os.path.join(out, "reports", "old-s9.json"))
            expected = "stray ['reports/old-s9.json'], missing []"
        elif damage == "missing":
            os.remove(os.path.join(out, report))
            expected = f"stray [], missing [{report!r}]"
        else:
            shutil.rmtree(os.path.join(out, "reports"))
            expected = f"stray [], missing [{report!r}, "
        with pytest.raises(ArtifactError, match=re.escape(expected)):
            artifact_digest(out)

    @pytest.mark.parametrize("name", ["comparison.csv", "summary.txt"])
    def test_digest_needs_every_hashed_file(self, suite, tmp_path, name):
        out = str(tmp_path / "out")
        run_suite(suite, out, seeds=(1,))
        os.remove(os.path.join(out, name))
        with pytest.raises(ArtifactError, match=re.escape(f"{out} holds no {name}")):
            artifact_digest(out)

    @pytest.mark.parametrize("manifest, where", [
        ([], ""),
        ({"suite": "s", "model_hash": "h", "seeds": [1], "scenarios": [5], "runs": []},
         ": scenarios[0]"),
        ({"suite": "s", "model_hash": "h", "seeds": [1], "scenarios": [], "runs": [None]},
         ": runs[0]"),
    ])
    def test_a_manifest_entry_that_is_no_object_is_refused(self, tmp_path, manifest, where):
        path = os.path.join(str(tmp_path), "manifest.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(manifest, f)
        for reader in (compare, artifact_digest):
            with pytest.raises(ArtifactError) as refused:
                reader(str(tmp_path))
            assert str(refused.value) == f"{path}{where} must be a JSON object"

    def test_digest_needs_a_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            artifact_digest(str(tmp_path))

    def test_seed_override_and_duplicate_guard(self, suite, tmp_path):
        manifest = run_suite(suite, str(tmp_path / "out"), seeds=(7,))
        assert len(manifest["runs"]) == 5
        assert {r["seed"] for r in manifest["runs"]} == {7}
        with pytest.raises(SuiteError, match="duplicates"):
            run_suite(suite, str(tmp_path / "out2"), seeds=(7, 7))

    def test_category_must_match_registry(self, data_copy, tmp_path):
        # ps9 is a registry label; lying about its category is refused
        edit_json(data_copy / "scenarios" / "ps9.json",
                  lambda d: d.update(category="quality"))
        suite = load_suite(str(data_copy / "minicell" / "suite.json"))
        with pytest.raises(SuiteError, match="registry"):
            run_suite(suite, str(tmp_path / "out"))

    def test_a_failing_run_leaves_nothing(self, suite, tmp_path, monkeypatch):
        """Finished runs wait in an unlinked spill file that is closed, with
        nothing written, when a later run raises."""
        calls = []

        def third_run_fails(*args, **kwargs):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("session died")
            return run_single(*args, **kwargs)

        spills = record_spills(monkeypatch)
        monkeypatch.setattr(harness, "run_single", third_run_fails)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="session died"):
            run_suite(suite, str(out))
        assert len(calls) == 3
        assert len(spills) == 1 and spills[0].closed
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("sub", ["logs", "reports"])
    def test_a_failing_file_write_is_raised_after_both_writers_end(
        self, suite, tmp_path, monkeypatch, sub
    ):
        """Logs and reports are written by two threads; a failure on either
        side is raised once the reports thread has been joined, and the
        spill it reads is closed only then.  Each report is slowed, so the
        reports thread is still at work when the first log fails."""
        failing = os.path.join(str(tmp_path / "out"), sub, "null-s1" + (
            ".il1.log" if sub == "logs" else ".json"))

        def open_failing_once(path, *args, **kwargs):
            if path == failing:
                raise OSError(f"cannot create {path}")
            if os.path.basename(os.path.dirname(path)) == "reports":
                time.sleep(0.005)
            return open(path, *args, **kwargs)

        spills = record_spills(monkeypatch)
        monkeypatch.setattr(harness, "open", open_failing_once, raising=False)
        threads = threading.active_count()
        with pytest.raises(OSError, match=re.escape(f"cannot create {failing}")):
            run_suite(suite, str(tmp_path / "out"))
        assert threading.active_count() == threads
        assert len(spills) == 1 and spills[0].closed
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_cap_exceeded_is_reported(self, suite, tmp_path):
        manifest = run_suite(suite, str(tmp_path / "out"), cap=1, force=False)
        assert all(r["status"] == "cap-exceeded" for r in manifest["runs"])
        assert all(r["report"] is None for r in manifest["runs"])
        # summary still renders, flagging the incomplete runs
        with open(os.path.join(str(tmp_path / "out"), "summary.txt")) as f:
            assert "incomplete" in f.read()


class TestSuiteMemory:
    def test_peak_grows_by_one_session_not_by_the_suite(self, suite, tmp_path):
        """Each finished run waits on disk, so four times the seeds add only
        a manifest entry per run to the traced peak, not the runs' logs."""
        run_suite(suite, str(tmp_path / "warm"), seeds=(1,))  # first-use caches
        peaks, log_bytes = [], []
        for seeds in ((1,), (1, 2, 3, 4)):
            out = tmp_path / f"seeds{len(seeds)}"
            tracemalloc.start()
            try:
                run_suite(suite, str(out), seeds=seeds)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            log_bytes.append(sum(p.stat().st_size for p in (out / "logs").iterdir()))
        added = log_bytes[1] - log_bytes[0]
        assert peaks[1] - peaks[0] < added / 2, (peaks, added)


class TestCompare:
    def test_baseline_columns(self, suite, tmp_path):
        out = str(tmp_path / "out")
        run_suite(suite, out)
        with open(os.path.join(out, "comparison.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows
        null_rows = [r for r in rows if r["scenario"] == "null"]
        assert null_rows and all(r["category"] == "baseline" for r in null_rows)
        # the baseline compared against itself shows no drift
        for r in null_rows:
            if r["baseline_mean"]:
                assert float(r["delta_mean"]) == 0.0
        ps9 = {r["metric"]: r for r in rows if r["scenario"] == "ps9"}
        assert float(ps9["makespan"]["mean"]) == 125.0
        assert float(ps9["makespan"]["baseline_mean"]) == 75.0
        assert float(ps9["makespan"]["delta_mean"]) == 50.0
        # exactly the compared report fields, plus one utilization per machine
        machines = suite.load_model().machines
        assert {r["metric"] for r in rows} == set(COMPARED_METRICS) | {
            f"utilization[{m}]" for m in machines
        }

    def test_without_baseline(self, data_copy, tmp_path):
        p = data_copy / "minicell" / "suite.json"
        edit_json(p, lambda d: d.update(
            scenarios=[s for s in d["scenarios"] if "null" not in s]))
        suite = load_suite(str(p))
        out = str(tmp_path / "out")
        run_suite(suite, out)
        with open(os.path.join(out, "comparison.csv"), newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and all(r["baseline_mean"] == "" for r in rows)

    def test_means_add_left_to_right_on_every_interpreter(self):
        # From Python 3.12 on, sum([0.1] * 10) compensates and gives 1.0.
        assert _sum_in_order([0.1] * 10) == 0.9999999999999999
        assert _sum_in_order([]) == 0
        comparison = _Comparison()
        for _ in range(10):
            comparison.add({"scenario": "s", "category": None}, {"x": 0.1})
        assert comparison.folds["s"]["x"][0] == 0.9999999999999999

    @given(
        values=st.lists(
            st.one_of(st.integers(-10**6, 10**6), st.floats(),
                      st.sampled_from([0, 0.0, -0.0, 1, 1.0, 0.1])),
            min_size=1, max_size=12,
        )
    )
    @example(values=[-0.0, -0.0])
    @example(values=[0, 0.0, -0.0])
    @example(values=[-0.0, 0.0, 0])
    def test_the_running_fold_equals_the_whole_list_aggregates(self, values):
        """Ties keep the first value, as min and max do, so 0 and 0.0 and
        -0.0 stay apart; repr tells them apart, and NaN from itself."""
        comparison = _Comparison()
        for v in values:
            comparison.add({"scenario": "s", "category": None}, {"x": v})
        total, low, high = comparison.folds["s"]["x"]
        assert comparison.completed["s"] == len(values)
        assert repr(total) == repr(_sum_in_order(values))
        assert repr(low) == repr(min(values))
        assert repr(high) == repr(max(values))

    @pytest.mark.parametrize("cap", [None, 1], ids=["packaged", "all-incomplete"])
    def test_compare_rewrites_what_run_suite_folded(self, suite, tmp_path, cap):
        """run_suite folds the reports from memory and compare reads them
        back from disk; both write the same bytes."""
        out = tmp_path / "out"
        run_suite(suite, str(out), cap=cap)
        written = {name: (out / name).read_bytes() for name in ("comparison.csv", "summary.txt")}
        for name in written:
            (out / name).unlink()
        summary = compare(str(out))
        assert {name: (out / name).read_bytes() for name in written} == written
        assert summary.encode() == written["summary.txt"]

    @pytest.mark.parametrize("edit, named", [
        (lambda u: u.pop("M1"), "missing ['utilization[M1]'], extra []"),
        (lambda u: u.update(M9=0.5), "missing [], extra ['utilization[M9]']"),
    ], ids=["missing", "extra"])
    def test_compare_refuses_a_report_whose_metric_names_differ(self, suite, tmp_path, edit,
                                                                named):
        """A report whose metrics are not named as those of its scenario's
        first completed run is refused, naming the report, not folded."""
        out = tmp_path / "out"
        run_suite(suite, str(out))
        report = out / "reports" / "ps9-s2.json"
        edit_json(report, lambda doc: edit(doc["utilization"]))
        fault = (f"{report}: metric names differ from those of "
                 "the first completed run of scenario 'ps9'")
        with pytest.raises(ArtifactError, match=re.escape(fault)) as info:
            compare(str(out))
        assert str(info.value).endswith(named)

    def test_compare_without_manifest(self, tmp_path):
        with pytest.raises(ArtifactError, match="manifest"):
            compare(str(tmp_path))

    def test_summary_mentions_each_scenario(self, suite, tmp_path):
        out = str(tmp_path / "out")
        run_suite(suite, out)
        with open(os.path.join(out, "summary.txt")) as f:
            text = f.read()
        for sid in ("null", "ps9", "rush-order", "reject-rework", "supply-shortage"):
            assert sid in text


class TestRunSingle:
    def test_stalled_is_distinguished_from_completed(self, minicell_model,
                                                     minicell_orders, null_scenario):
        result = run_single(minicell_model, minicell_orders, null_scenario, seed=1)
        assert result.status == "completed"
        assert result.final_t == 75
        assert result.rounds > 0

    def test_cap_exceeded(self, minicell_model, minicell_orders, null_scenario):
        result = run_single(minicell_model, minicell_orders, null_scenario, seed=1,
                            cap=1)
        assert result.status == "cap-exceeded"
        assert result.report is None

    def test_kpi_detachment_leaves_log_alone(self, minicell_model, minicell_orders,
                                             ps9_scenario):
        with_kpi = run_single(minicell_model, minicell_orders, ps9_scenario, seed=2)
        without = run_single(minicell_model, minicell_orders, ps9_scenario, seed=2,
                             attach_kpi=False)
        assert with_kpi.log == without.log
        assert with_kpi.report is not None and without.report is None

    @pytest.mark.parametrize(
        "name", ["null", "ps9", "reject_rework", "rush_order", "supply_shortage"]
    )
    def test_two_runs_of_one_seed_write_the_same_log(
        self, minicell_model, minicell_orders, scenario_by_name, name
    ):
        """Decision latency is timed by the harness, not sent on the wire,
        so nothing in the log depends on the host clock."""
        scenario = scenario_by_name(name)
        first = run_single(minicell_model, minicell_orders, scenario, seed=4)
        second = run_single(minicell_model, minicell_orders, scenario, seed=4)
        assert first.status == second.status == "completed"
        assert first.log == second.log
        for r in (first, second):
            assert 0 < r.decision_latency_ms_mean <= r.decision_latency_ms_max
