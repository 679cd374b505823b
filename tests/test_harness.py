"""Suite runner: artifact layout, byte-reproducibility, comparison outputs."""

import csv
import json
import os
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import pytest

import holobench
from holobench import harness
from holobench.harness import (
    ArtifactError,
    SuiteError,
    _sum_in_order,
    artifact_digest,
    compare,
    load_suite,
    run_single,
    run_suite,
)
from holobench.kpi import COMPARED_METRICS


PACKAGED_SUITE_DIGEST = "39e3670588091b45fad7674a3e5bf687f3f9227b8aba5bc7f737dc018ab7207c"


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

        spills = []

        def recording_spill(*args, **kwargs):
            spills.append(temporary_file(*args, **kwargs))
            return spills[-1]

        temporary_file = tempfile.TemporaryFile
        monkeypatch.setattr(harness, "run_single", third_run_fails)
        monkeypatch.setattr(tempfile, "TemporaryFile", recording_spill)
        out = tmp_path / "out"
        with pytest.raises(RuntimeError, match="session died"):
            run_suite(suite, str(out))
        assert len(calls) == 3
        assert len(spills) == 1 and spills[0].closed
        assert list(out.iterdir()) == []

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
