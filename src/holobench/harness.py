"""Benchmark harness: suites, runs, artifacts, comparison.

A suite is the experiment plan: one shop model, one order book, a list of
scenario documents, and a list of seeds.  A loaded suite parses its model
and order book once, on first use, and checks every scenario against them.
The harness executes the full cross product scenario x seed, each run in a
fresh kernel/control pair over a recorded wire session, then reduces the
tapped streams to KPI reports and compares every scenario against the null
(no-disturbance) baseline with mean/min/max aggregates.

Each finished run's log and report wait in one unlinked spill file in the
artifact directory until the last session ends, and its KPI metrics are
folded into per-scenario running aggregates at once.  Then the per-run
files are written from the spill by two writers, one per directory: the
calling thread creates the logs and one thread the reports.  A suite's
memory is thus bounded by its largest session plus a small manifest entry
per run, and a session holds its log once, in the recorder's one buffer,
so its peak is about 1.2-1.3 times its log.

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
import os
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable

from .canon import fits, is_int, read_document, sha256_hex
from .control import ProductOrder, ReferenceControl, load_orders_file
from .interface import InProcEndpoint, RoundDriver, RunRecorder
from .kernel import EmulationKernel
from .kpi import KpiEngine, KpiReport
from .model import ShopModel, load_model_file
from .scenario import CategoryRegistry, RegistryError, Scenario, ScenarioManager, load_scenario_file

DEFAULT_CAP = 1_000_000

# Rounds in a row without an event after which a run ends ``stalled``; see
# ``_drive``.
MAX_QUIET_ROUNDS = 100

HASHED_ARTIFACTS = ("manifest.json", "comparison.csv", "summary.txt")

logger = logging.getLogger("holobench")


class SuiteError(ValueError):
    """Invalid suite document; message names the offending field."""


class ArtifactError(RuntimeError):
    """Artifact directory problems: refusal to overwrite, missing or damaged files."""


@dataclass(frozen=True)
class BenchmarkSuite:
    """A suite document with its paths resolved.

    The model and the order book are parsed once, on first use, and kept;
    a document that does not load is parsed again, and refused again, at
    each use.
    """

    id: str
    model_path: str
    orders_path: str
    scenario_paths: tuple[str, ...]
    seeds: tuple[int, ...]
    cap: int

    @functools.cached_property
    def _model(self) -> ShopModel:
        return load_model_file(self.model_path)

    @functools.cached_property
    def _orders(self) -> tuple[ProductOrder, ...]:
        return tuple(load_orders_file(self.orders_path))

    def load_model(self) -> ShopModel:
        return self._model

    def load_orders(self) -> list[ProductOrder]:
        return list(self._orders)

    def load_scenarios(self) -> list[Scenario]:
        model, orders = self._model, self._orders
        scenarios = [
            load_scenario_file(p, model=model, orders=orders) for p in self.scenario_paths
        ]
        ids = [s.id for s in scenarios]
        if len(set(ids)) != len(ids):
            raise SuiteError(f"scenario ids are not unique: {sorted(ids)}")
        return scenarios


def load_suite(path: str) -> BenchmarkSuite:
    text = read_document(path, SuiteError)
    try:
        doc = json.loads(text)
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
    """Round loop; returns the run-end reason and the events delivered.

    A round with no event, no command and nothing queued ends the run,
    ``completed`` if the control says it is idle, else ``stalled``; a round
    past ``cap`` ends it ``cap-exceeded``.  Every command the kernel
    accepts emits an event, so only refused commands fill a round without
    events, and those leave the clock where it is.  After
    ``MAX_QUIET_ROUNDS`` (100) such rounds in a row the run ends
    ``stalled``, with its log up to the last of them.  The reference
    control plays at most one such round in a row and at most 6 rounds at
    one tick (the packaged suite at seeds 0-20, the benchmark's generated
    shops at seeds 0-4).
    """
    queue: deque[tuple[int, list[dict[str, Any]]]] = deque()
    buffer: list[dict[str, Any]] = []
    delivered = 0
    quiet = 0  # rounds in a row without an event
    while True:
        if not queue:
            events = kernel.advance(buffer)
            buffer = []
            queue.append((kernel.clock, events))
        t, events = queue.popleft()
        if t > cap:
            return "cap-exceeded", delivered
        firings = manager.process_batch(t, events)
        for firing in firings:
            for inj in firing.injections:
                injected = kernel.apply_injection(inj)
                if injected:
                    queue.append((kernel.clock, injected))
        driver.open_round(t, firings)
        commands, idle = driver.play_round(t, events, kernel.drain_notices())
        delivered += len(events)
        buffer.extend(commands)
        if not events and not commands and not queue:
            return ("completed" if idle else "stalled"), delivered
        quiet = 0 if events else quiet + 1
        if quiet == MAX_QUIET_ROUNDS:
            return "stalled", delivered


def check_categories(scenarios: Iterable[Scenario], registry: CategoryRegistry) -> None:
    """Refuse, with ``SuiteError``, a scenario named after a registry label
    whose declared category is not the one the registry gives that label."""
    for sc in scenarios:
        try:
            expected = registry.classify(sc.id)
        except RegistryError:
            continue
        if sc.category != expected:
            raise SuiteError(
                f"scenario {sc.id!r} declares category {sc.category!r}, "
                f"registry says {expected!r}"
            )


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
    check_categories(scenarios, registry)

    # Each finished run leaves its log and report bytes in one unlinked
    # spill file, so only one session's results are in memory at a time.
    # The per-run files are created after the last session: creating them
    # between sessions made a 1,000-run suite 15-30% slower.
    runs_doc: list[dict[str, Any]] = []
    comparison = _Comparison()
    timing: dict[str, dict[str, float]] = {}
    files: list[tuple[str, int, int]] = []  # (name, spill offset, length) of each run file
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
                run = {
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
                report = None if r.report is None else _json_text(r.report.to_doc()).encode()
                for name, data in ((run["log"], r.log), (run["report"], report)):
                    if name is not None:
                        files.append((name, spill.tell(), len(data)))
                        spill.write(data)
                runs_doc.append(run)
                comparison.add(run, None if r.report is None else r.report.scalar_metrics())
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
        spill.flush()
        _write_run_files(spill.fileno(), out_dir, files)

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
    comparison.write(out_dir, manifest)
    return manifest


def _write_run_files(spill: int, out_dir: str, files: list[tuple[str, int, int]]) -> None:
    """Create each run's log and report file from the spill file ``spill``,
    given each file's (name, spill offset, length).

    Creating a file costs far more than writing a few kilobytes to it, and
    creates in one directory wait on its lock, but creates in two
    directories overlap: the calling thread writes ``logs/`` and one thread
    ``reports/``.  Each reads its bytes at their own offsets with
    ``os.pread``, so the two share no file position.  The thread is joined
    before this returns, also when either side fails, and then the first
    error is raised: the spill must stay open while the thread reads it.
    """
    errors: list[BaseException] = []

    def write(sub: str) -> None:
        try:
            for name, at, length in files:
                if os.path.dirname(name) == sub:
                    with open(os.path.join(out_dir, name), "wb") as f:
                        f.write(os.pread(spill, length, at))
        except BaseException as exc:  # raised below, once both sides are done
            errors.append(exc)

    reports_writer = threading.Thread(target=write, args=("reports",), name="holobench-reports")
    reports_writer.start()
    write("logs")
    reports_writer.join()
    if errors:
        raise errors[0]


def _json_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(_json_text(doc))


def _read_json(path: str) -> Any:
    return json.loads(read_document(path, ArtifactError))


def compare(out_dir: str) -> str:
    """Rewrite comparison.csv and summary.txt from the reports on disk.

    Returns the summary text.  The reports are folded as ``run_suite``
    folds them from memory, so the two write the same bytes.  A report that
    does not load, or whose metric names differ from those of its
    scenario's first completed run, raises ``ArtifactError`` naming it.
    """
    manifest = _read_manifest(out_dir)
    comparison = _Comparison()
    for run in manifest["runs"]:
        if run["report"] is None:
            comparison.add(run, None)
            continue
        report_path = os.path.join(out_dir, run["report"])
        try:
            comparison.add(run, KpiReport.from_doc(_read_json(report_path)).scalar_metrics())
        except ValueError as exc:
            raise ArtifactError(f"{report_path}: {exc}") from exc
    return comparison.write(out_dir, manifest)


class _Comparison:
    """Per-scenario running aggregates of the runs' compared metrics.

    Runs are folded in one at a time, in manifest order, and nothing is
    kept per run.  The sum adds left to right from int 0 on every
    interpreter: from Python 3.12 on, ``sum`` of floats compensates for
    rounding, which would move the last digit of some means and so the
    artifact digest.  The minimum and maximum move only on a strict ``<``
    or ``>``, as ``min`` and ``max`` do.  A scenario's metric
    names are those of its first completed run, and a later run with other
    names is refused.  Only mean/min/max across seeds are reported;
    single-seed scenarios simply repeat the value.
    """

    def __init__(self) -> None:
        self.incomplete: dict[str, int] = {}  # scenario -> runs without a report
        self.completed: dict[str, int] = {}  # scenario -> runs folded in
        self.folds: dict[str, dict[str, list[float]]] = {}  # scenario -> name -> [sum, min, max]

    def add(self, run: dict[str, Any], metrics: dict[str, float] | None) -> None:
        """Fold in one manifest run entry and its metrics (None: no report).

        Metrics whose names differ from those already folded for the run's
        scenario raise ``ValueError`` naming the missing and extra ones.
        """
        sid = run["scenario"]
        if metrics is None:
            self.incomplete[sid] = self.incomplete.get(sid, 0) + 1
            return
        fold = self.folds.get(sid)
        if fold is None:
            fold = self.folds[sid] = {name: [0, v, v] for name, v in sorted(metrics.items())}
        elif metrics.keys() != fold.keys():
            raise ValueError(
                "metric names differ from those of the first completed run of scenario "
                f"{sid!r}: missing {sorted(fold.keys() - metrics.keys())}, "
                f"extra {sorted(metrics.keys() - fold.keys())}"
            )
        self.completed[sid] = self.completed.get(sid, 0) + 1
        for name, acc in fold.items():
            value = metrics[name]
            acc[0] = acc[0] + value
            if value < acc[1]:
                acc[1] = value
            if value > acc[2]:
                acc[2] = value

    def _aggregates(self, sid: str | None) -> dict[str, tuple[float, float, float]]:
        """Mean, min and max of each of the scenario's metrics, by name."""
        return {
            name: (total / self.completed[sid], low, high)
            for name, (total, low, high) in self.folds.get(sid, {}).items()
        }

    def write(self, out_dir: str, manifest: dict[str, Any]) -> str:
        """Write comparison.csv and summary.txt from one walk over the
        manifest's scenarios, each set against the means of the first null
        scenario, the baseline; returns the summary text."""
        baseline_id = next((s["id"] for s in manifest["scenarios"] if s["category"] is None), None)
        base = {name: mean for name, (mean, _, _) in self._aggregates(baseline_id).items()}
        table = io.StringIO()
        rows = csv.writer(table, lineterminator="\n")
        rows.writerow(
            ["scenario", "category", "metric", "mean", "min", "max", "baseline_mean", "delta_mean"]
        )
        summary = [
            f"suite: {manifest['suite']}",
            f"model: {manifest['model_hash'][:16]}",
            f"seeds: {', '.join(str(s) for s in manifest['seeds'])}",
            f"baseline: {baseline_id or 'none (no null scenario in the suite)'}",
            "",
        ]
        for sc in manifest["scenarios"]:
            sid, label = sc["id"], sc["category"] or "baseline"
            skipped = self.incomplete.get(sid, 0)
            if sid not in self.folds:
                summary += [f"{sid}: no completed runs ({skipped} incomplete)", ""]
                continue
            aggregates = self._aggregates(sid)
            for name, (mean, low, high) in aggregates.items():
                ref = base.get(name)
                vs_base = ["", ""] if ref is None else [_num(ref), _num(mean - ref)]
                rows.writerow([sid, label, name, _num(mean), _num(low), _num(high), *vs_base])
            summary.append(f"{sid} [{label}]")
            for name in _SUMMARY_METRICS:
                if name not in aggregates:
                    continue
                mean, low, high = aggregates[name]
                line = (
                    f"  {name:<22} mean {_num(mean):>12}  "
                    f"min {_num(low):>10}  max {_num(high):>10}"
                )
                if sid != baseline_id and name in base:
                    delta = mean - base[name]
                    line += f"  ({'+' if delta >= 0 else ''}{_num(delta)} vs baseline)"
                summary.append(line)
            if skipped:
                summary.append(f"  note: {skipped} run(s) did not complete")
            summary.append("")
        text = "\n".join(summary) + "\n"
        for name, content in (("comparison.csv", table.getvalue()), ("summary.txt", text)):
            with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
                f.write(content)
        return text


# The manifest fields ``compare`` reads, with the types it needs them to have,
# written as the type hints ``canon.fits`` checks a JSON value against.
_MANIFEST_FIELDS = {"suite": str, "model_hash": str, "seeds": list, "scenarios": list, "runs": list}
_SCENARIO_FIELDS = {"id": str, "category": str | None}
_RUN_FIELDS = {"scenario": str, "report": str | None}


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
    wrong = sorted(k for k in spec.keys() & doc.keys() if not fits(doc[k], spec[k]))
    if missing or wrong:
        raise ArtifactError(f"{where} has missing keys {missing}, wrong value types for {wrong}")


# The metrics summary.txt shows for each scenario, in its order.
_SUMMARY_METRICS = (
    "makespan", "throughput_per_1000", "lead_time_mean", "tardiness_total", "reschedules"
)


def _num(v: float) -> str:
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return repr(v)


def artifact_digest(out_dir: str) -> str:
    """Combined sha256 over the deterministic artifact set.

    ``timing.json`` is excluded: it carries wall-clock decision latencies,
    which vary between otherwise identical runs.  Session logs are
    byte-stable too, but they stay out: adding them would move every
    recorded digest, a contract change to make on its own.

    The reports hashed are exactly those the manifest names: a stray file in
    ``reports/``, or a named report that is missing, raises ``ArtifactError``,
    as does a missing ``comparison.csv`` or ``summary.txt``.
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
    digest_lines = []
    for name in (*HASHED_ARTIFACTS, *sorted(listed)):
        try:
            with open(os.path.join(out_dir, name), "rb") as f:
                digest_lines.append(f"{name}\0{sha256_hex(f.read())}")
        except FileNotFoundError:
            raise ArtifactError(f"{out_dir} holds no {name}") from None
    return sha256_hex("\n".join(digest_lines).encode("utf-8"))
