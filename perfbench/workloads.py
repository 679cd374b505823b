"""The benchmark's workloads.

Each workload is a closed loop: the round loop waits for every control
reply before the next round, in one process with no extra threads.  A
workload has four steps:

- ``load``: the program's loaders over the generated documents; the runner
  times it several times and reports the median as ``setup_s``;
- ``prepare``: untimed set-up that is not the program's (audit records its
  logs here);
- ``iterate``: one timed iteration, with the tracer, or without one the
  probes, installed around exactly the timed part;
- ``check``: untimed output checks on ``output`` that fill ``failed`` and
  ``digest``; a workload whose iterate fills them itself has none.

The runner compares every iteration's digest with the frozen one for the
seed, or with the run's first digest when the seed has none frozen.

Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, ContextManager, Sequence

import gen
from tracing import Probes, Span

import holobench
from holobench import control, harness, interface, kpi, model, scenario

clock = time.perf_counter

SUITE_PATH = os.path.join(os.path.dirname(holobench.__file__), "data", "minicell", "suite.json")
LIVE_ROUNDS = ("interface", "RoundDriver.open_round")
REPLAY_ROUNDS = ("control", "ReferenceControl.on_round")
SESSIONS = ("harness", "run_single")


@dataclass
class Iteration:
    """One timed iteration and what its checks found.

    Spans are host clock readings; the runner turns those of an untraced
    iteration into seconds of the reference host with
    ``ReferenceClock(calibration)``.
    """

    span: Span  # the timed part
    wall_s: float  # host seconds of the timed part, reference_work samples left out
    session_spans: list[Span] = field(default_factory=list)
    rounds: list[Span] = field(default_factory=list)
    calibration: list[Span] = field(default_factory=list)
    sessions: int = 0
    events: int = 0
    wire_records: int = 0  # audit only: lines of the audited logs
    failed: int = 0
    digest: str = ""
    output: Any = None  # what ``check`` needs; dropped after the check
    # Filled by the runner for untraced iterations, in reference-host seconds.
    reference_work_s: float = 0.0
    ref_wall_s: float = 0.0
    ref_round_s: Sequence[float] = ()
    ref_session_s: Sequence[float] = ()


def _report_failure(what: str) -> None:
    print(f"perfbench: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class MinicellLoaders:
    """Loader pass over the packaged MiniCell suite."""

    def load(self) -> None:
        suite = harness.load_suite(SUITE_PATH)
        self.model = suite.load_model()
        self.orders = suite.load_orders()
        self.scenarios = suite.load_scenarios()
        scenario.CategoryRegistry.load()
        self.suite = suite


class MinicellSweep(MinicellLoaders):
    """The packaged suite through ``run_suite`` over 200 seeds, then the
    artifact digest: 1,000 sessions of 3 orders each."""

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seeds = tuple(sorted(rng.sample(range(1_000_000), 200)))
        self.inputs = {"seeds": list(self.seeds)}
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def iterate(self, tracer: ContextManager | None) -> Iteration:
        attempted = len(self.seeds) * len(self.scenarios)
        out = tempfile.mkdtemp(prefix="sweep-", dir=self.workdir)
        probes = Probes(LIVE_ROUNDS, SESSIONS)
        start = clock()
        try:
            with tracer or probes:
                manifest = harness.run_suite(self.suite, out, seeds=self.seeds)
                digest = harness.artifact_digest(out)
            end = clock()
        except Exception:
            _report_failure("minicell-sweep iteration raised")
            end = clock()
            return Iteration(span=(start, end), wall_s=end - start, sessions=attempted,
                             failed=attempted)
        finally:
            shutil.rmtree(out)
        return Iteration(
            span=(start, end),
            wall_s=end - start - probes.calibration_s(),
            session_spans=[span for span, _, _ in probes.sessions],
            rounds=probes.rounds,
            calibration=probes.calibration,
            sessions=len(manifest["runs"]),
            events=sum(e for _, _, e in probes.sessions),
            failed=sum(1 for run in manifest["runs"] if run["status"] != "completed"),
            digest=digest,
        )


class SingleRun:
    """One generated shop, order book and scenario through ``run_single``."""

    def __init__(self, seed: int, machines: int, shuttles: int, orders: int,
                 rush_orders: int | None):
        rng = random.Random(seed)
        shop = gen.shop_doc(machines, shuttles)
        book = gen.orders_doc(rng, orders)
        if rush_orders is None:
            catalogue = gen.null_scenario_doc()
        else:
            catalogue = gen.disturbance_doc(rng, shop, book, rush_orders)
        self.seed = seed
        self.inputs = {"model": shop, "orders": book, "scenario": catalogue}
        self.texts = {k: gen.canonical(doc).decode("utf-8") for k, doc in self.inputs.items()}
        self._verified: set[str] = set()

    def load(self) -> None:
        self.model = model.load_model(self.texts["model"])
        self.orders = control.load_orders(self.texts["orders"])
        self.scenario = scenario.load_scenario(self.texts["scenario"], model=self.model,
                                               orders=self.orders)

    def prepare(self) -> None:
        pass

    def iterate(self, tracer: ContextManager | None) -> Iteration:
        probes = Probes(LIVE_ROUNDS, SESSIONS)
        start = clock()
        try:
            with tracer or probes:
                result = harness.run_single(self.model, self.orders, self.scenario, self.seed)
            end = clock()
        except Exception:
            _report_failure("run_single raised")
            end = clock()
            return Iteration(span=(start, end), wall_s=end - start, sessions=1, failed=1)
        return Iteration(
            span=(start, end),
            wall_s=end - start - probes.calibration_s(),
            session_spans=[span for span, _, _ in probes.sessions],
            rounds=probes.rounds,
            calibration=probes.calibration,
            sessions=1,
            events=result.report.events_observed if result.report is not None else 0,
            output=result,
        )

    def check(self, it: Iteration) -> None:
        result = it.output
        if result.status != "completed" or result.report is None:
            print(f"perfbench: run ended {result.status}", file=sys.stderr)
            it.failed = 1
            return
        # The command log plus the canonical non-volatile KPI report.
        it.digest = gen.sha256_bytes(interface.extract_command_log(result.log)
                                     + gen.canonical(result.report.to_doc()))
        if it.digest in self._verified:
            return
        # Once per distinct output: the streamed KPIs must equal the oracle.
        diffs = kpi.reports_match(kpi.recompute_from_log(result.log), result.report)
        if diffs:
            print(f"perfbench: streamed KPIs differ from recompute: {diffs[:5]}", file=sys.stderr)
            it.failed = 1
        else:
            self._verified.add(it.digest)


class Audit(MinicellLoaders):
    """``recompute_from_log``, ``extract_command_log`` and ``replay_session``
    over 500 MiniCell session logs recorded in untimed set-up."""

    SEEDS_PER_SCENARIO = 100

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.seeds = tuple(sorted(rng.sample(range(1_000_000), self.SEEDS_PER_SCENARIO)))
        self.inputs = {"seeds": list(self.seeds)}

    def prepare(self) -> None:
        self.logs = []
        for sc in self.scenarios:
            for s in self.seeds:
                r = harness.run_single(self.model, self.orders, sc, s)
                self.logs.append((r.log, r.report))
        self.wire_records = sum(log.count(b"\n") for log, _ in self.logs)

    def iterate(self, tracer: ContextManager | None) -> Iteration:
        probes = Probes(REPLAY_ROUNDS)
        results: list[tuple[Any, bytes, bytes] | None] = []
        session_spans: list[Span] = []
        start = clock()
        with tracer or probes:
            for log, _ in self.logs:
                began = clock()
                try:
                    recomputed = kpi.recompute_from_log(log)
                    commands = interface.extract_command_log(log)
                    replayed = interface.replay_session(log, control.ReferenceControl(self.model))
                except Exception:
                    _report_failure("audit of one log raised")
                    results.append(None)
                else:
                    results.append((recomputed, commands, replayed))
                session_spans.append((began, clock()))
        end = clock()
        return Iteration(
            span=(start, end),
            wall_s=end - start - probes.calibration_s(),
            session_spans=session_spans,
            rounds=probes.rounds,
            calibration=probes.calibration,
            sessions=len(self.logs),
            wire_records=self.wire_records,
            output=results,
        )

    def check(self, it: Iteration) -> None:
        digest = []
        for (log, streamed), result in zip(self.logs, it.output):
            if result is None or streamed is None:
                it.failed += 1
                continue
            recomputed, commands, replayed = result
            it.events += recomputed.events_observed
            if kpi.reports_match(recomputed, streamed) or replayed != commands:
                it.failed += 1
            digest.append(commands + gen.canonical(recomputed.to_doc()))
        it.digest = gen.sha256_bytes(b"".join(digest))


def make(name: str, seed: int, workdir: str):
    if name == "minicell-sweep":
        return MinicellSweep(seed, workdir)
    if name == "flowshop-400":
        return SingleRun(seed, machines=8, shuttles=4, orders=400, rush_orders=None)
    if name == "disturbed-16x8":
        return SingleRun(seed, machines=16, shuttles=8, orders=200, rush_orders=10)
    if name == "audit":
        return Audit(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

