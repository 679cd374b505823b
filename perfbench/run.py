"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload flowshop-400 --seed 1 --seconds 15 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  The workload's inputs are generated from ``--seed``.  The run
repeats whole iterations until ``--seconds`` have passed (at least one),
checks every output, and prints one JSON object as the last line of
standard output: ``correct``, ``attempted`` and ``failed`` sessions, and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones, with
``--trace 1`` the per-layer ones from a traced run; BENCHMARK.json names
both sets.  End-to-end times are medians in seconds of a reference host
(``tracing.ReferenceClock``); per-layer times are unscaled host seconds.
A result file, and with tracing the spans, are written under
``.perfbench_work/``; ``baseline.json`` holds the frozen output digests.

Exit status is 2, with no result, when the program's source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array

import gen
from tracing import REFERENCE_WORK_S, ReferenceClock, Tracer, reference_work

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("minicell-sweep", "flowshop-400", "disturbed-16x8", "audit")
SETUP_REPEATS = 21
clock = time.perf_counter


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_phase(wl, seconds: float, tracer=None) -> list:
    """Whole iterations until ``seconds`` have passed, each one checked.

    An untraced iteration's spans are turned into reference-host seconds at
    once and dropped, so that what a run keeps does not grow its memory.
    """
    iterations = []
    deadline = clock() + seconds
    while not iterations or clock() < deadline:
        it = wl.iterate(tracer)
        if it.output is not None:
            wl.check(it)
            it.output = None
        if tracer is None:
            ref = ReferenceClock(it.calibration)
            it.reference_work_s = median([b - a for a, b in it.calibration])
            it.ref_wall_s = ref.seconds(it.span)
            it.ref_round_s = array("d", map(ref.seconds, it.rounds))
            it.ref_session_s = array("d", map(ref.seconds, it.session_spans))
            it.rounds, it.session_spans, it.calibration = [], [], []
        iterations.append(it)
    return iterations


def compare_digests(iterations: list, reference: str | None) -> None:
    """Fail every session of an iteration whose digest differs."""
    for it in iterations:
        if not it.digest:
            continue
        if reference is None:
            reference = it.digest
        elif it.digest != reference:
            print(f"perfbench: output digest {it.digest} != {reference}", file=sys.stderr)
            it.failed = it.sessions


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def p99(values: list[float]) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100, method="inclusive")[-1]


def end_to_end(iterations: list, setup_s: float) -> dict[str, tuple[float, str]]:
    """Medians over the run, in seconds of the reference host (``ReferenceClock``)."""
    attempted = sum(it.sessions for it in iterations)
    failed = sum(it.failed for it in iterations)
    rss_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "events_per_s": (median([it.events / it.ref_wall_s for it in iterations]), "events/s"),
        "wall_s": (median([it.ref_wall_s for it in iterations]), "s"),
        "round_ms_p50": (1000 * median([r for it in iterations for r in it.ref_round_s]), "ms"),
        "session_ms_p50": (1000 * median([s for it in iterations for s in it.ref_session_s]),
                           "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def per_layer(tracer, setup_tracer, traced: list, plain: list) -> dict[str, tuple[float, str]]:
    """Per traced iteration, except the loaders' times, which are per set-up."""
    n = len(traced)

    def self_s(name: str) -> tuple[float, str]:
        return tracer.self_time(name) / n, "s"

    def calls(name: str) -> tuple[float, str]:
        return tracer.calls(name) / n, "count"

    def count(name: str) -> tuple[float, str]:
        return tracer.counts[name] / n, "count"

    counts = tracer.counts
    records = sum(it.wire_records for it in traced) or tracer.calls("interface.record")
    submitted = counts["kernel.commands_submitted"]
    rejected = counts["kernel.notice.command-rejected"]
    traced_wall = sum(it.wall_s for it in traced)
    return {
        "control.on_round_s": self_s("control.on_round"),
        "control.on_round_calls": calls("control.on_round"),
        "control.on_round_ms_p99": (1000 * p99(tracer.on_round_durations), "ms"),
        "control.commands": count("control.commands"),
        "interface.encode_s": self_s("interface.encode"),
        "interface.encode_calls": calls("interface.encode"),
        "interface.decode_s": self_s("interface.decode"),
        "interface.decode_calls": calls("interface.decode"),
        "interface.decodes_per_record": (
            tracer.calls("interface.decode") / records if records else 0.0, "ratio"),
        "interface.record_s": self_s("interface.record"),
        "interface.wire_bytes": (counts["interface.wire_bytes"] / n, "B"),
        "interface.replay_s": self_s("interface.replay"),
        "interface.extract_s": self_s("interface.extract"),
        "messages.to_dict_s": self_s("messages.to_dict"),
        "messages.from_dict_s": self_s("messages.from_dict"),
        "kernel.advance_s": self_s("kernel.advance"),
        "kernel.advance_calls": calls("kernel.advance"),
        "kernel.events": ((counts["kernel.events"] + counts["kernel.injection_events"]) / n,
                          "count"),
        "kernel.apply_injection_s": self_s("kernel.apply_injection"),
        "kernel.injections": count("kernel.injections"),
        "kernel.commands_rejected": (rejected / n, "count"),
        "kernel.injections_ignored": (counts["kernel.notice.injection-ignored"] / n, "count"),
        "kernel.command_accept_ratio": (
            (submitted - rejected) / submitted if submitted else 0.0, "ratio"),
        "scenario.process_batch_s": self_s("scenario.process_batch"),
        "scenario.process_batch_calls": calls("scenario.process_batch"),
        "scenario.firings": count("scenario.firings"),
        "scenario.load_s": (setup_tracer.self_time("scenario.load"), "s"),
        "kpi.observe_s": self_s("kpi.observe"),
        "kpi.observe_calls": calls("kpi.observe"),
        "kpi.finalize_s": self_s("kpi.finalize"),
        "kpi.recompute_s": self_s("kpi.recompute"),
        "harness.run_single_s": self_s("harness.run_single"),
        "harness.artifacts_s": self_s("harness.run_suite"),
        "harness.compare_s": self_s("harness.compare"),
        "harness.digest_s": self_s("harness.digest"),
        "model.load_s": (setup_tracer.self_time("model.load"), "s"),
        "trace.wall_s": (min(it.wall_s for it in traced), "s"),
        "trace.overhead_s": (min(it.wall_s for it in traced)
                             - min(it.wall_s for it in plain), "s"),
        "trace.accounted_ratio": (tracer.total_self_time() / traced_wall, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "holobench", "__init__.py")):
        print(f"perfbench: the program's source is missing: {SRC}/holobench", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    os.makedirs(WORKDIR, exist_ok=True)
    wl = workloads.make(args.workload, args.seed, WORKDIR)
    inputs_sha256 = gen.sha256(wl.inputs)

    setup_times, setup_calibration = [], []
    for _ in range(SETUP_REPEATS):
        start = clock()
        wl.load()
        setup_times.append(clock() - start)
        start = clock()
        reference_work()
        setup_calibration.append(clock() - start)
    wl.prepare()

    if args.trace:
        plain = run_phase(wl, args.seconds / 2)
        tracer = Tracer()
        traced = run_phase(wl, args.seconds / 2, tracer)
        with Tracer() as setup_tracer:
            wl.load()
        iterations = plain + traced
    else:
        iterations = run_phase(wl, args.seconds)

    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as f:
        frozen = json.load(f)["digests"].get(args.workload, {}).get(str(args.seed))
    reference = None
    if frozen is not None:
        reference = frozen["output"]
        if frozen["inputs"] != inputs_sha256:
            print(f"perfbench: generated inputs {inputs_sha256} differ from the frozen "
                  f"{frozen['inputs']}", file=sys.stderr)
            reference = "inputs changed"
    compare_digests(iterations, reference)

    if args.trace:
        metrics = per_layer(tracer, setup_tracer, traced, plain)
    else:
        setup_s = median(setup_times) * REFERENCE_WORK_S / median(setup_calibration)
        metrics = end_to_end(iterations, setup_s)
    attempted = sum(it.sessions for it in iterations)
    failed = sum(it.failed for it in iterations)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }

    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    with open(os.path.join(WORKDIR, f"result-{stem}.json"), "w", encoding="utf-8") as f:
        json.dump({
            **result,
            "workload": args.workload,
            "seed": args.seed,
            "inputs_sha256": inputs_sha256,
            "frozen_digest": frozen is not None,
            "digests": [it.digest for it in iterations],
            "wall_s": [it.wall_s for it in iterations],
            "reference_work_s": [it.reference_work_s for it in iterations],
            "traced_iterations": len(traced) if args.trace else 0,
            "spans_dropped": tracer.spans_dropped() if args.trace else 0,
            "setup_s": setup_times,
        }, f, indent=2)
        f.write("\n")
    if args.trace:
        tracer.write_spans(os.path.join(WORKDIR, f"spans-{stem}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
