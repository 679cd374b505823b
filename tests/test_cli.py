"""Command line front end: exit codes, output, round trips via subprocess
where the entry point itself matters, in-process otherwise."""

import importlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import holobench
from holobench.cli import main


def _declared_scripts(pyproject_text):
    """``[project.scripts]`` of a pyproject.toml, name -> "module:attr"."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the plain `name = "target"` lines
        table = re.search(r"^\[project\.scripts\][ \t]*\n(.*?)(?=^\[|\Z)",
                          pyproject_text, re.M | re.S)
        if table is None:
            return {}
        return dict(re.findall(r'^[ \t]*([\w.-]+)[ \t]*=[ \t]*"([^"]*)"',
                               table.group(1), re.M))
    return tomllib.loads(pyproject_text).get("project", {}).get("scripts", {})


@pytest.fixture()
def data_copy(tmp_path):
    src = Path(holobench.__file__).parent / "data"
    dst = tmp_path / "data"
    shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
    return dst


@pytest.fixture()
def suite_path(data_copy):
    return str(data_copy / "minicell" / "suite.json")


class TestRun:
    def test_run_prints_summary_and_digest(self, suite_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", suite_path, "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "artifact digest: " in captured
        assert "ps9" in captured

    def test_run_twice_needs_force(self, suite_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", suite_path, "--out", out]) == 0
        assert main(["run", suite_path, "--out", out]) == 1
        assert "force" in capsys.readouterr().err
        assert main(["run", suite_path, "--out", out, "--force"]) == 0

    def test_run_into_a_directory_with_a_stray_report_keeps_it_and_fails(
        self, suite_path, tmp_path, capsys
    ):
        out = tmp_path / "out"
        (out / "reports").mkdir(parents=True)
        (out / "reports" / "keep.txt").write_text("not holobench's\n")
        assert main(["run", suite_path, "--out", str(out), "--seeds", "1"]) == 1
        assert "stray ['reports/keep.txt']" in capsys.readouterr().err
        assert (out / "reports" / "keep.txt").read_text() == "not holobench's\n"

    def test_run_digest_is_stable(self, suite_path, tmp_path, capsys):
        main(["run", suite_path, "--out", str(tmp_path / "a")])
        first = capsys.readouterr().out
        main(["run", suite_path, "--out", str(tmp_path / "b")])
        second = capsys.readouterr().out
        digest = [l for l in first.splitlines() if l.startswith("artifact digest")]
        assert digest == [l for l in second.splitlines() if l.startswith("artifact digest")]

    def test_info_log_is_one_stderr_line_per_run_and_keeps_the_digest(self, suite_path,
                                                                      tmp_path):
        outputs = {}
        for level in ("quiet", "info"):
            proc = subprocess.run(
                [sys.executable, "-m", "holobench.cli", "run", suite_path,
                 "--out", str(tmp_path / level), "--seeds", "1,2"],
                capture_output=True, text=True, env={**os.environ, "HOLOBENCH_LOG": level},
            )
            assert proc.returncode == 0, proc.stderr
            outputs[level] = proc
        assert outputs["quiet"].stdout == outputs["info"].stdout  # summary and digest
        assert outputs["quiet"].stderr == ""
        manifest = json.loads((tmp_path / "info" / "manifest.json").read_text())
        run_lines = [l for l in outputs["info"].stderr.splitlines() if l.startswith("INFO run ")]
        assert len(run_lines) == len(manifest["runs"]) == 10
        for line, run in zip(run_lines, manifest["runs"]):
            assert re.fullmatch(
                rf"INFO run {run['run_id']}: completed, {run['rounds']} rounds, "
                r"[1-9]\d* events, \d+\.\d{3} s",
                line,
            ), line

    def test_info_log_reaches_a_root_handler_set_up_before_main(self, suite_path, tmp_path,
                                                                 monkeypatch, capsys):
        # An embedding application configured logging first, so basicConfig
        # inside main adds nothing; HOLOBENCH_LOG must still take effect.
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        root, pkg = logging.getLogger(), logging.getLogger("holobench")
        saved_level = pkg.level
        root.addHandler(handler)
        monkeypatch.setenv("HOLOBENCH_LOG", "info")
        try:
            assert main(["run", suite_path, "--out", str(tmp_path / "out"),
                         "--seeds", "1"]) == 0
        finally:
            root.removeHandler(handler)
            pkg.setLevel(saved_level)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        run_lines = [l for l in stream.getvalue().splitlines() if l.startswith("run ")]
        assert [l.split(":")[0] for l in run_lines] == [
            f"run {run['run_id']}" for run in manifest["runs"]
        ]

    def test_seed_override(self, suite_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        assert main(["run", suite_path, "--out", out, "--seeds", "5"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert {r["seed"] for r in manifest["runs"]} == {5}

    def test_cap_exceeded_fails_the_run(self, suite_path, tmp_path, capsys):
        assert main(["run", suite_path, "--out", str(tmp_path / "out"),
                     "--cap", "1"]) == 1
        assert "did not complete" in capsys.readouterr().err

    def test_missing_suite(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.json"), "--out",
                     str(tmp_path / "out")]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, named", [
        ("--seeds", ",", "--seeds must name at least one seed"),
        ("--cap", "0", "--cap must be positive"),
    ])
    def test_empty_seeds_or_nonpositive_cap_is_a_usage_error(
        self, suite_path, tmp_path, capsys, option, value, named
    ):
        out = tmp_path / "out"
        assert main(["run", suite_path, "--out", str(out), option, value]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_log_level_is_a_usage_error(self, suite_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOLOBENCH_LOG", "verbose")
        out = tmp_path / "out"
        assert main(["run", suite_path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: HOLOBENCH_LOG must be one of quiet, info, debug, not 'verbose'\n"
        )
        assert not out.exists()


class TestCompare:
    def test_compare_reprints_summary(self, suite_path, tmp_path, capsys):
        out = str(tmp_path / "out")
        main(["run", suite_path, "--out", out])
        capsys.readouterr()
        assert main(["compare", out]) == 0
        assert "ps9" in capsys.readouterr().out

    def test_compare_damaged_report(self, suite_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", suite_path, "--out", str(out), "--seeds", "1"])
        capsys.readouterr()
        report = out / "reports" / "null-s1.json"
        doc = json.loads(report.read_text())
        del doc["makespan"]
        report.write_text(json.dumps(doc))
        assert main(["compare", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "null-s1.json" in err and "'makespan'" in err

    def test_compare_report_value_of_the_wrong_type(self, suite_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", suite_path, "--out", str(out), "--seeds", "1"])
        capsys.readouterr()
        report = out / "reports" / "null-s1.json"
        doc = json.loads(report.read_text())
        doc["utilization"] = []
        report.write_text(json.dumps(doc))
        assert main(["compare", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "null-s1.json" in err and "'utilization'" in err

    def test_compare_report_without_a_metric_its_scenario_has(self, suite_path, tmp_path,
                                                              capsys):
        out = tmp_path / "out"
        main(["run", suite_path, "--out", str(out)])
        capsys.readouterr()
        report = out / "reports" / "ps9-s2.json"
        doc = json.loads(report.read_text())
        del doc["utilization"]["M1"]
        report.write_text(json.dumps(doc))
        assert main(["compare", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "ps9-s2.json" in err and "missing ['utilization[M1]']" in err

    def test_compare_manifest_run_without_its_report(self, suite_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["run", suite_path, "--out", str(out), "--seeds", "1"])
        capsys.readouterr()
        manifest = out / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["runs"][0]["report"]
        manifest.write_text(json.dumps(doc))
        assert main(["compare", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "manifest.json" in err and "runs[0]" in err and "'report'" in err

    def test_compare_empty_dir(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path)]) == 1
        assert "manifest" in capsys.readouterr().err


class TestValidate:
    def test_model(self, data_copy, capsys):
        assert main(["validate", str(data_copy / "minicell" / "model.json")]) == 0
        assert "OK: model" in capsys.readouterr().out

    def test_orders(self, data_copy, capsys):
        assert main(["validate", str(data_copy / "minicell" / "orders.json")]) == 0
        assert "OK: order book, 3 order(s)" in capsys.readouterr().out

    def test_scenario(self, data_copy, capsys):
        assert main(["validate", str(data_copy / "scenarios" / "ps9.json")]) == 0
        out = capsys.readouterr().out
        assert "OK: scenario ps9" in out and "dynamic-reconfiguration" in out

    def test_scenario_with_a_misspelt_payload_key(self, data_copy, tmp_path, capsys):
        doc = json.loads((data_copy / "scenarios" / "ps9.json").read_text())
        injection = doc["rules"][0]["actions"][0]["injection"]
        injection["durration"] = injection.pop("duration")
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "rules[0].actions[0].injection has unknown keys: ['durration']" in (
            capsys.readouterr().err
        )

    def test_scenario_filtering_on_a_field_its_event_never_carries(
        self, data_copy, tmp_path, capsys
    ):
        doc = json.loads((data_copy / "scenarios" / "ps9.json").read_text())
        doc["rules"][0]["trigger"] = {
            "kind": "on-event", "event": "order-released", "where": {"machine": "M1"}
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "rules[0].trigger.where.machine: order-released events carry no machine" in (
            capsys.readouterr().err
        )

    def test_suite(self, suite_path, capsys):
        assert main(["validate", suite_path]) == 0
        assert "5 scenario(s) x 3 seed(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("document", ["scenario", "suite"])
    def test_category_the_registry_contradicts(self, data_copy, capsys, document):
        """validate refuses what run refuses: ps9 is a registry label, so it
        must declare the registry's category for it."""
        scenario = data_copy / "scenarios" / "ps9.json"
        doc = json.loads(scenario.read_text())
        doc["category"] = "quality"
        scenario.write_text(json.dumps(doc))
        path = scenario if document == "scenario" else data_copy / "minicell" / "suite.json"
        assert main(["validate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: scenario 'ps9' declares category 'quality', "
                                "registry says 'dynamic-reconfiguration'\n")

    def test_broken_document(self, data_copy, tmp_path, capsys):
        doc = json.loads((data_copy / "minicell" / "model.json").read_text())
        doc["machines"]["M1"]["node"] = "ghost"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert "ghost" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [5, "x", None, True, []])
    def test_order_book_entry_that_is_no_object(self, tmp_path, capsys, entry):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"orders": [entry]}))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: order {entry!r} must be an object\n"

    def test_model_node_reference_that_is_a_list(self, data_copy, tmp_path, capsys):
        doc = json.loads((data_copy / "minicell" / "model.json").read_text())
        doc["machines"]["M1"]["node"] = ["M1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 1
        assert capsys.readouterr().err == "error: machines.M1.node names unknown node ['M1']\n"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 1
        assert "nope.json" in capsys.readouterr().err

    def test_not_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["validate", str(bad)]) == 1
        assert "JSON" in capsys.readouterr().err

    def test_unrecognized_document(self, tmp_path, capsys):
        f = tmp_path / "x.json"
        f.write_text('{"hello": 1}')
        assert main(["validate", str(f)]) == 1

    def test_a_document_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"id": "x\xff", "rules": []}')
        assert main(["validate", str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {bad} is not UTF-8: invalid start byte at byte 9\n"


class TestRefusedSuiteScenario:
    """``validate`` and ``run`` refuse a suite one of whose scenario files
    does not load with one ``error:`` line naming the file."""

    def _refusal(self, command, suite_path, tmp_path, capsys):
        out = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, suite_path, *out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        return captured.err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_scenario_file_that_is_not_utf8(self, data_copy, suite_path, tmp_path, capsys,
                                              command):
        null = data_copy / "scenarios" / "null.json"
        size = null.stat().st_size
        with open(null, "ab") as f:
            f.write(b"\xff")
        path = os.path.join(data_copy / "minicell", "../scenarios/null.json")
        assert self._refusal(command, suite_path, tmp_path, capsys) == (
            f"error: {path} is not UTF-8: invalid start byte at byte {size}\n"
        )

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_scenario_file_that_rejects_an_unknown_order(self, data_copy, suite_path, tmp_path,
                                                           capsys, command):
        scenario = data_copy / "scenarios" / "reject_rework.json"
        doc = json.loads(scenario.read_text())
        doc["rules"][0]["actions"][0]["injection"]["order"] = "O99"
        scenario.write_text(json.dumps(doc))
        path = os.path.join(data_copy / "minicell", "../scenarios/reject_rework.json")
        assert self._refusal(command, suite_path, tmp_path, capsys) == (
            f"error: {path}: rules[0].actions[0].injection.order 'O99' "
            "is neither in the order book nor inserted by a rule\n"
        )


class TestEntryPoint:
    def test_usage_error_is_exit_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "holobench.cli"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_console_script_exists(self, tmp_path):
        """The console script declared in pyproject.toml resolves and runs.

        The wrapper is the one an installer writes, so the check holds from
        a plain checkout; an installed ``holobench`` on PATH is run too.
        """
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = _declared_scripts(pyproject.read_text(encoding="utf-8"))
        assert "holobench" in scripts, "no holobench entry in [project.scripts]"
        module, _, attr = scripts["holobench"].partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

        wrapper = tmp_path / "holobench"
        wrapper.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {attr}\n"
            f"sys.exit({attr}())\n"
        )
        wrapper.chmod(0o755)
        installed = shutil.which("holobench")
        for exe in [str(wrapper)] + ([installed] if installed else []):
            proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
            assert proc.returncode == 0, (exe, proc.stderr)
            assert "holonic" in proc.stdout, exe
