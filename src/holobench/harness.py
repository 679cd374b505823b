"""Benchmark harness: suites, runs, artifacts, comparison.

A suite is the experiment plan: one shop model, one order book, a list of
scenario documents, and a list of seeds.  The harness executes the full
cross product scenario x seed, each run in a fresh kernel/control pair over
a recorded wire session, then reduces the tapped streams to KPI reports and
compares every scenario against the null (no-disturbance) baseline with
mean/min/max aggregates.

Each finished run's log and report wait in one unlinked spill file in the
artifact directory until the last session ends; then the per-run files are
written from it, one at a time.  A suite's memory is thus bounded by its
largest session plus a small manifest entry per run.

Artifacts are byte-reproducible: manifest, reports, comparison table,
summary and session logs carry no timestamps or machine-local paths.  The
round driver times each round from outside the control; those wall-clock
decision latencies go only to ``timing.json`` at the artifact root, which
the reproducibility digest leaves out.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import logging
import operator
import os
import tempfile
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from .canon import is_int, sha256_hex
from .control import ProductOrder, ReferenceControl, load_orders_file
from .interface import InProcEndpoint, RoundDriver, RunRecorder
from .kernel import EmulationKernel
from .kpi import KpiEngine, KpiReport
from .messages import ControlCommand, EventBatch
from .model import ShopModel, load_model_file
from .scenario import CategoryRegistry, RegistryError, Scenario, ScenarioManager, load_scenario_file

DEFAULT_CAP = 1_000_000

HASHED_ARTIFACTS = ("manifest.json", "comparison.csv", "summary.txt")

logger = logging.getLogger("holobench")


class SuiteError(ValueError):
    """Invalid suite document; message names the offending field."""


class ArtifactError(RuntimeError):
    """Artifact directory problems: refusal to overwrite, missing or damaged files."""


@dataclass(frozen=True)
class BenchmarkSuite:
    id: str
    model_path: str
    orders_path: str
    scenario_paths: tuple[str, ...]
    seeds: tuple[int, ...]
    cap: int

    def load_model(self) -> ShopModel:
        return load_model_file(self.model_path)

    def load_orders(self) -> list[ProductOrder]:
        return load_orders_file(self.orders_path)

    def load_scenarios(self) -> list[Scenario]:
        model = self.load_model()
        orders = self.load_orders()
        scenarios = [
            load_scenario_file(p, model=model, orders=orders) for p in self.scenario_paths
        ]
        ids = [s.id for s in scenarios]
        if len(set(ids)) != len(ids):
            raise SuiteError(f"scenario ids are not unique: {sorted(ids)}")
        return scenarios


def load_suite(path: str) -> BenchmarkSuite:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise SuiteError(f"suite document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SuiteError("suite document must be a JSON object")
    extra = set(doc) - {"id", "model", "orders", "scenarios", "seeds", "cap"}
    if extra:
        raise SuiteError(f"suite has unknown keys: {sorted(extra)}")
    sid = doc.get("id")
    if not isinstance(sid, str) or not sid:
        raise SuiteError("suite id must be a non-empty string")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p: Any, fld: str) -> str:
        if not isinstance(p, str) or not p:
            raise SuiteError(f"suite {fld} must be a path string")
        return p if os.path.isabs(p) else os.path.join(base, p)

    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        raise SuiteError("suite scenarios must be a non-empty list of paths")
    seeds = doc.get("seeds")
    if not isinstance(seeds, list) or not seeds:
        raise SuiteError("suite seeds must be a non-empty list of integers")
    for s in seeds:
        if not is_int(s):
            raise SuiteError("suite seeds must be integers")
    if len(set(seeds)) != len(seeds):
        raise SuiteError(f"suite seeds contain duplicates: {seeds}")
    cap = doc.get("cap", DEFAULT_CAP)
    if not is_int(cap) or cap <= 0:
        raise SuiteError("suite cap must be a positive integer")
    return BenchmarkSuite(
        id=sid,
        model_path=resolve(doc.get("model"), "model"),
        orders_path=resolve(doc.get("orders"), "orders"),
        scenario_paths=tuple(resolve(p, f"scenarios[{i}]") for i, p in enumerate(scenarios)),
        seeds=tuple(seeds),
        cap=cap,
    )


@dataclass
class RunResult:
    run_id: str
    scenario_id: str
    category: str | None
    seed: int
    status: str  # completed | stalled | cap-exceeded
    rounds: int
    final_t: int
    events: int  # production events delivered to the control
    log: bytes
    report: KpiReport | None
    # Host wall clock per round, event batch sent to end-of-round received.
    decision_latency_ms_mean: float
    decision_latency_ms_max: float


def run_single(
    model: ShopModel,
    orders: list[ProductOrder],
    scenario: Scenario,
    seed: int,
    cap: int = DEFAULT_CAP,
    attach_kpi: bool = True,
    endpoint: Any | None = None,
) -> RunResult:
    """Execute one run over a recorded wire session.

    By default the reference control is called in process, through an
    ``InProcEndpoint``.  Pass ``endpoint`` to talk to a control served
    elsewhere instead, typically by ``serve_control`` on the far side of a
    socket, which must already be listening.  Either way the session writes
    the same log bytes, and the endpoint is closed when the session ends or
    fails.
    """
    kernel = EmulationKernel(model)
    manager = ScenarioManager(scenario, seed)
    recorder = RunRecorder()
    engine: KpiEngine | None = None
    if attach_kpi:
        engine = KpiEngine()
        recorder.attach(engine.observe_record)
    endpoint = endpoint or InProcEndpoint(ReferenceControl(model))
    driver = RoundDriver(endpoint, model.model_hash, recorder)

    run_id = f"{scenario.id}-s{seed}"
    try:
        driver.handshake()
        driver.send_run_meta(
            {
                "run_id": run_id,
                "scenario": scenario.id,
                "seed": seed,
                "cap": cap,
                "orders": [o.to_dict() for o in orders],
                "machines": sorted(model.machines),
            }
        )
        status, events = _drive(kernel, manager, driver, cap)
        driver.end_run(kernel.clock, status)
    finally:
        endpoint.close()

    log = recorder.log_bytes()
    report: KpiReport | None = None
    if engine is not None and status == "completed":
        report = engine.finalize()
    return RunResult(
        run_id=run_id,
        scenario_id=scenario.id,
        category=scenario.category,
        seed=seed,
        status=status,
        rounds=driver.round_no,
        final_t=kernel.clock,
        events=events,
        log=log,
        report=report,
        decision_latency_ms_mean=sum(driver.round_ms) / len(driver.round_ms)
        if driver.round_ms
        else 0.0,
        decision_latency_ms_max=max(driver.round_ms, default=0.0),
    )


def _drive(
    kernel: EmulationKernel,
    manager: ScenarioManager,
    driver: RoundDriver,
    cap: int,
) -> tuple[str, int]:
    """Round loop; returns the run-end reason and the events delivered."""
    queue: deque[tuple[int, EventBatch]] = deque()
    buffer: list[ControlCommand] = []
    delivered = 0
    while True:
        if not queue:
            events = kernel.advance(buffer)
            buffer = []
            queue.append((kernel.clock, events))
        t, events = queue.popleft()
        if t > cap:
            return "cap-exceeded", delivered
        directives = []
        for firing in manager.process_batch(t, events):
            for inj in firing.injections:
                driver.send_injection_audit(t, firing.rule_id, inj.to_dict())
                injected = kernel.apply_injection(inj)
                if injected:
                    queue.append((kernel.clock, injected))
            # Directives ride ahead of this round's event batch.
            directives.extend(firing.directives)
        driver.open_round(t, directives)
        commands, idle = driver.play_round(t, events, kernel.drain_notices())
        delivered += len(events)
        buffer.extend(commands)
        if not events and not commands and not queue:
            return ("completed" if idle else "stalled"), delivered


def run_suite(
    suite: BenchmarkSuite,
    out_dir: str,
    seeds: tuple[int, ...] | None = None,
    cap: int | None = None,
    force: bool = False,
) -> dict[str, Any]:
    """Execute the full suite and write artifacts; returns the manifest.

    With ``force``, the log and report files the old manifest names are
    removed before the new ones are written; no other file is touched.
    """
    use_seeds = seeds if seeds is not None else suite.seeds
    if len(set(use_seeds)) != len(use_seeds):
        raise SuiteError(f"seeds contain duplicates: {list(use_seeds)}")
    use_cap = cap if cap is not None else suite.cap

    manifest_path = os.path.join(out_dir, "manifest.json")
    stale: list[str] = []
    if os.path.exists(manifest_path):
        if not force:
            raise ArtifactError(
                f"{out_dir} already holds benchmark artifacts; pass force to overwrite"
            )
        for run in _read_manifest(out_dir)["runs"]:
            for sub, key in (("logs", "log"), ("reports", "report")):
                name = run.get(key)
                if isinstance(name, str) and os.path.dirname(name) == sub:
                    stale.append(os.path.join(out_dir, name))

    model = suite.load_model()
    orders = suite.load_orders()
    scenarios = suite.load_scenarios()
    registry = CategoryRegistry.load()
    for sc in scenarios:
        # When a scenario is named after a registry label, its declared
        # category must agree with the registry.
        try:
            expected = registry.classify(sc.id)
        except RegistryError:
            continue
        if sc.category != expected:
            raise SuiteError(
                f"scenario {sc.id!r} declares category {sc.category!r}, "
                f"registry says {expected!r}"
            )

    # Each finished run leaves its log and report bytes in one unlinked
    # spill file, so only one session's results are in memory at a time.
    # The per-run files are created after the last session: creating them
    # between sessions made a 1,000-run suite 15-30% slower.
    runs_doc: list[dict[str, Any]] = []
    timing: dict[str, dict[str, float]] = {}
    lengths: list[tuple[int, int]] = []  # per run: its log's and its report's bytes
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryFile(dir=out_dir) as spill:
        for sc in scenarios:
            for seed in use_seeds:
                started = time.perf_counter()
                r = run_single(model, orders, sc, seed, cap=use_cap)
                logger.info(
                    "run %s: %s, %d rounds, %d events, %.3f s",
                    r.run_id, r.status, r.rounds, r.events, time.perf_counter() - started,
                )
                report = b"" if r.report is None else _json_text(r.report.to_doc()).encode()
                spill.write(r.log)
                spill.write(report)
                lengths.append((len(r.log), len(report)))
                runs_doc.append(
                    {
                        "run_id": r.run_id,
                        "scenario": r.scenario_id,
                        "category": r.category,
                        "seed": r.seed,
                        "status": r.status,
                        "rounds": r.rounds,
                        "final_t": r.final_t,
                        "makespan": r.report.makespan if r.report else None,
                        "log": f"logs/{r.run_id}.il1.log",
                        "report": None if r.report is None else f"reports/{r.run_id}.json",
                    }
                )
                timing[r.run_id] = {
                    "decision_latency_ms_mean": r.decision_latency_ms_mean,
                    "decision_latency_ms_max": r.decision_latency_ms_max,
                }
                del r, report  # free the log before the next session

        os.makedirs(os.path.join(out_dir, "logs"), exist_ok=True)
        os.makedirs(os.path.join(out_dir, "reports"), exist_ok=True)
        for path in stale:
            if os.path.isfile(path):
                os.remove(path)
        spill.seek(0)
        for run, (log_len, report_len) in zip(runs_doc, lengths):
            with open(os.path.join(out_dir, run["log"]), "wb") as f:
                f.write(spill.read(log_len))
            if run["report"] is not None:
                with open(os.path.join(out_dir, run["report"]), "wb") as f:
                    f.write(spill.read(report_len))

    manifest = {
        "suite": suite.id,
        "model_hash": model.model_hash,
        "registry_sha256": registry.sha256,
        "cap": use_cap,
        "seeds": list(use_seeds),
        "scenarios": [
            {"id": sc.id, "category": sc.category, "file": os.path.basename(p)}
            for sc, p in zip(scenarios, suite.scenario_paths)
        ],
        "runs": runs_doc,
    }
    _write_json(manifest_path, manifest)
    _write_json(os.path.join(out_dir, "timing.json"), timing)
    compare(out_dir)
    return manifest


def _json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_json_text(doc))


def _read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def compare(out_dir: str) -> dict[str, Any]:
    """Aggregate reports per scenario and diff against the null baseline.

    Writes comparison.csv and summary.txt into the artifact directory and
    returns the comparison structure.  Only mean/min/max across seeds are
    reported; single-seed scenarios simply repeat the value.
    """
    manifest = _read_manifest(out_dir)
    by_scenario: dict[str, list[dict[str, float]]] = {}
    categories: dict[str, str | None] = {}
    incomplete: dict[str, int] = {}
    for run in manifest["runs"]:
        sid = run["scenario"]
        categories[sid] = run["category"]
        if run["report"] is None:
            incomplete[sid] = incomplete.get(sid, 0) + 1
            continue
        report_path = os.path.join(out_dir, run["report"])
        try:
            report = KpiReport.from_doc(_read_json(report_path))
        except ValueError as exc:
            raise ArtifactError(f"{report_path}: {exc}") from exc
        by_scenario.setdefault(sid, []).append(report.scalar_metrics())

    scenario_order = [s["id"] for s in manifest["scenarios"]]
    baseline_id = next(
        (s["id"] for s in manifest["scenarios"] if s["category"] is None), None
    )

    aggregates: dict[str, dict[str, dict[str, float]]] = {}
    for sid in scenario_order:
        metrics = by_scenario.get(sid, [])
        if not metrics:
            continue
        names = sorted(metrics[0])
        aggregates[sid] = {
            name: {
                "mean": _sum_in_order(m[name] for m in metrics) / len(metrics),
                "min": min(m[name] for m in metrics),
                "max": max(m[name] for m in metrics),
            }
            for name in names
        }

    base = aggregates.get(baseline_id) if baseline_id else None

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["scenario", "category", "metric", "mean", "min", "max", "baseline_mean", "delta_mean"]
    )
    for sid in scenario_order:
        if sid not in aggregates:
            continue
        for name in sorted(aggregates[sid]):
            agg = aggregates[sid][name]
            if base is not None and name in base:
                base_mean = base[name]["mean"]
                delta = agg["mean"] - base_mean
                writer.writerow(
                    [sid, categories.get(sid) or "baseline", name,
                     _num(agg["mean"]), _num(agg["min"]), _num(agg["max"]),
                     _num(base_mean), _num(delta)]
                )
            else:
                writer.writerow(
                    [sid, categories.get(sid) or "baseline", name,
                     _num(agg["mean"]), _num(agg["min"]), _num(agg["max"]), "", ""]
                )
    csv_text = buf.getvalue()
    with open(os.path.join(out_dir, "comparison.csv"), "w", encoding="utf-8") as f:
        f.write(csv_text)

    summary = _render_summary(manifest, aggregates, scenario_order, baseline_id, incomplete)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as f:
        f.write(summary)

    return {
        "baseline": baseline_id,
        "aggregates": aggregates,
        "incomplete": incomplete,
        "summary": summary,
    }


# The manifest fields ``compare`` reads, with the types it needs them to have.
_OPTIONAL_STR = (str, type(None))
_MANIFEST_FIELDS = {"suite": str, "model_hash": str, "seeds": list, "scenarios": list, "runs": list}
_SCENARIO_FIELDS = {"id": str, "category": _OPTIONAL_STR}
_RUN_FIELDS = {"scenario": str, "category": _OPTIONAL_STR, "report": _OPTIONAL_STR}


def _read_manifest(out_dir: str) -> dict[str, Any]:
    """The directory's manifest, with the fields that are read checked."""
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not os.path.exists(manifest_path):
        raise ArtifactError(f"{out_dir} holds no manifest.json")
    try:
        manifest = _read_json(manifest_path)
    except ValueError as exc:
        raise ArtifactError(f"{manifest_path}: {exc}") from exc
    _check_fields(manifest, _MANIFEST_FIELDS, manifest_path)
    for i, sc in enumerate(manifest["scenarios"]):
        _check_fields(sc, _SCENARIO_FIELDS, f"{manifest_path}: scenarios[{i}]")
    for i, run in enumerate(manifest["runs"]):
        _check_fields(run, _RUN_FIELDS, f"{manifest_path}: runs[{i}]")
    return manifest


def _check_fields(doc: Any, spec: dict[str, Any], where: str) -> None:
    if not isinstance(doc, dict):
        raise ArtifactError(f"{where} must be a JSON object")
    missing = sorted(spec.keys() - doc.keys())
    wrong = sorted(k for k in spec.keys() & doc.keys() if not isinstance(doc[k], spec[k]))
    if missing or wrong:
        raise ArtifactError(f"{where} has missing keys {missing}, wrong value types for {wrong}")


_SUMMARY_METRICS = (
    "makespan",
    "throughput_per_1000",
    "lead_time_mean",
    "tardiness_total",
    "reschedules",
)


def _sum_in_order(values: Iterable[float]) -> float:
    """Add left to right from int 0, as ``sum`` does before Python 3.12.

    From 3.12 on, ``sum`` of floats compensates for rounding, which moves
    the last digit of some means in comparison.csv and so the artifact
    digest; ``math.fsum`` would move them on every interpreter.
    """
    return functools.reduce(operator.add, values, 0)


def _num(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v)


def _render_summary(
    manifest: dict[str, Any],
    aggregates: dict[str, dict[str, dict[str, float]]],
    scenario_order: list[str],
    baseline_id: str | None,
    incomplete: dict[str, int],
) -> str:
    lines: list[str] = []
    lines.append(f"suite: {manifest['suite']}")
    lines.append(f"model: {manifest['model_hash'][:16]}")
    lines.append(f"seeds: {', '.join(str(s) for s in manifest['seeds'])}")
    if baseline_id:
        lines.append(f"baseline: {baseline_id}")
    else:
        lines.append("baseline: none (no null scenario in the suite)")
    lines.append("")
    base = aggregates.get(baseline_id) if baseline_id else None
    for sid in scenario_order:
        if sid not in aggregates:
            skipped = incomplete.get(sid, 0)
            lines.append(f"{sid}: no completed runs ({skipped} incomplete)")
            lines.append("")
            continue
        cat = next(
            (s["category"] for s in manifest["scenarios"] if s["id"] == sid), None
        )
        lines.append(f"{sid} [{cat or 'baseline'}]")
        for name in _SUMMARY_METRICS:
            if name not in aggregates[sid]:
                continue
            agg = aggregates[sid][name]
            row = (
                f"  {name:<22} mean {_num(agg['mean']):>12}  "
                f"min {_num(agg['min']):>10}  max {_num(agg['max']):>10}"
            )
            if base is not None and sid != baseline_id and name in base:
                delta = agg["mean"] - base[name]["mean"]
                sign = "+" if delta >= 0 else ""
                row += f"  ({sign}{_num(delta)} vs baseline)"
            lines.append(row)
        bad = incomplete.get(sid, 0)
        if bad:
            lines.append(f"  note: {bad} run(s) did not complete")
        lines.append("")
    return "\n".join(lines) + "\n"


def artifact_digest(out_dir: str) -> str:
    """Combined sha256 over the deterministic artifact set.

    ``timing.json`` is excluded: it carries wall-clock decision latencies,
    which vary between otherwise identical runs.  Session logs are
    byte-stable too, but they stay out: adding them would move every
    recorded digest, a contract change to make on its own.

    The reports hashed are exactly those the manifest names: a stray file in
    ``reports/``, or a named report that is missing, raises ``ArtifactError``.
    """
    named = {run["report"] for run in _read_manifest(out_dir)["runs"]} - {None}
    reports_dir = os.path.join(out_dir, "reports")
    present = os.listdir(reports_dir) if os.path.isdir(reports_dir) else []
    listed = {f"reports/{p}" for p in present}
    if listed != named:
        raise ArtifactError(
            f"{out_dir} does not hold exactly the reports its manifest names: "
            f"stray {sorted(listed - named)}, missing {sorted(named - listed)}"
        )
    names = [n for n in HASHED_ARTIFACTS if os.path.exists(os.path.join(out_dir, n))]
    digest_lines = []
    for name in names + sorted(listed):
        with open(os.path.join(out_dir, name), "rb") as f:
            digest_lines.append(f"{name}\0{sha256_hex(f.read())}")
    return sha256_hex("\n".join(digest_lines).encode("utf-8"))
