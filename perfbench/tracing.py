"""Timing the program's layers from outside, by wrapping public entry points.

Nothing here edits the program.  ``Patches`` swaps attributes on the
program's modules and classes and puts the originals back; ``Tracer`` and
``Probes`` are built on it.  A wrapped call costs two clock reads and a
few dict and list operations.

``Tracer`` records a span per call: name, start, end and the enclosing
span.  It keeps per-name call counts and self time (duration minus the
time covered by child spans) as it goes, keeps the first ``KEEP_SPANS``
spans in memory, and writes them out on request.  Counts come from
arguments and return values at the same boundaries.

``Probes`` is what the untraced run uses: one clock read at each round
start, one timed call per session, and a host-speed sample every tenth of
a second, from which ``ReferenceClock`` scales the untraced times.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import time
from collections import Counter
from statistics import median
from typing import Any, Callable

Hook = Callable[[Counter, tuple, dict, Any], None]
Span = tuple[float, float]  # (start, end) host clock readings

KEEP_SPANS = 50_000  # spans a Tracer keeps for its span file; the rest only count
CALIBRATION_PERIOD_S = 0.1  # least host time between two reference_work samples
CALIBRATION_WINDOW = 2  # samples on either side that set the host speed between two
# Median time of ``reference_work`` on the host the baseline was measured on.
REFERENCE_WORK_S = 0.0006


class Patches:
    """Replaces attributes of modules and classes; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.name`` by ``make(original function)``.

        Class attributes are read from ``__dict__`` so that classmethods
        stay classmethods and the restored value is the original object.
        """
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            value: Any = classmethod(make(raw.__func__))
        else:
            value = make(raw)
        self._saved.append((owner, name, raw))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, raw = self._saved.pop()
            setattr(owner, name, raw)


def resolve(module: str, path: str) -> tuple[Any, str]:
    """(owner, attribute name) for ``holobench.<module>`` and ``Class.attr``."""
    owner: Any = importlib.import_module(f"holobench.{module}")
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, name


# -- counters taken at the wrapped boundaries ----------------------------------


def _commands(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["control.commands"] += len(result[0])


def _wire_bytes(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["interface.wire_bytes"] += len(args[1])


def _advance(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    commands = args[1] if len(args) > 1 else kwargs.get("commands", ())
    counts["kernel.commands_submitted"] += len(commands)
    counts["kernel.events"] += len(result)


def _injection(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["kernel.injections"] += 1
    counts["kernel.injection_events"] += len(result)


def _notices(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    for notice in result:
        counts[f"kernel.notice.{notice.kind}"] += 1


def _firings(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["scenario.firings"] += len(result)


MESSAGE_CLASSES = ("SimEvent", "ControlCommand", "ControlDirective", "Injection", "Notice")

# (span name, module under holobench, attribute path, counter hook)
ENTRY_POINTS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("control.on_round", "control", "ReferenceControl.on_round", _commands),
    ("interface.encode", "interface", "encode_record", None),
    ("interface.decode", "interface", "decode_line", None),
    ("interface.record", "interface", "RunRecorder.record", _wire_bytes),
    ("interface.replay", "interface", "replay_session", None),
    ("interface.extract", "interface", "extract_command_log", None),
    *(("messages.to_dict", "messages", f"{c}.to_dict", None) for c in MESSAGE_CLASSES),
    *(("messages.from_dict", "messages", f"{c}.from_dict", None) for c in MESSAGE_CLASSES),
    ("kernel.advance", "kernel", "EmulationKernel.advance", _advance),
    ("kernel.apply_injection", "kernel", "EmulationKernel.apply_injection", _injection),
    ("kernel.drain_notices", "kernel", "EmulationKernel.drain_notices", _notices),
    ("scenario.process_batch", "scenario", "ScenarioManager.process_batch", _firings),
    ("scenario.load", "scenario", "load_scenario_doc", None),
    ("kpi.observe", "kpi", "KpiEngine.observe_record", None),
    ("kpi.finalize", "kpi", "KpiEngine.finalize", None),
    ("kpi.recompute", "kpi", "recompute_from_log", None),
    ("harness.run_single", "harness", "run_single", None),
    ("harness.run_suite", "harness", "run_suite", None),
    ("harness.compare", "harness", "compare", None),
    ("harness.digest", "harness", "artifact_digest", None),
    ("model.load", "model", "load_model_doc", None),
)


class Tracer:
    """Spans with parent links and per-name self time, for one traced phase."""

    def __init__(self) -> None:
        self._acc: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.on_round_durations: list[float] = []
        # (name, start, end, parent index); parent -1 is a root span or one
        # that was not kept.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[list] = []  # [span index, time covered by children]
        self._patches = Patches()

    def __enter__(self) -> "Tracer":
        for name, module, path, hook in ENTRY_POINTS:
            owner, attr = resolve(module, path)
            self._patches.wrap(owner, attr, functools.partial(self._traced, name, hook))
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()

    def calls(self, name: str) -> int:
        return self._acc.get(name, (0, 0.0))[0]

    def self_time(self, name: str) -> float:
        return self._acc.get(name, (0, 0.0))[1]

    def total_self_time(self) -> float:
        return sum(acc[1] for acc in self._acc.values())

    def spans_dropped(self) -> int:
        return sum(acc[0] for acc in self._acc.values()) - len(self.spans)

    def _traced(self, name: str, hook: Hook | None, fn: Callable) -> Callable:
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        acc = self._acc.setdefault(name, [0, 0.0])
        durations = self.on_round_durations if name == "control.on_round" else None

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            if index < KEEP_SPANS:
                spans.append(None)
            else:
                index = -1
            frame = [index, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                acc[0] += 1
                acc[1] += duration - frame[1]
                if durations is not None:
                    durations.append(duration)
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        """One JSON object per line; times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans and self.spans[0] else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                f.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                    "end": end - origin, "parent": parent}) + "\n")


def reference_work() -> int:
    """About half a millisecond of fixed work shaped like the program's own:
    small records through canonical JSON and back, dict updates and a keyed
    sort.  It calls no program code, so no change to the program can move
    it."""
    index: dict[str, list[int]] = {}
    for i in range(60):
        line = json.dumps({"kind": "op-finished", "machine": f"M{i % 8}", "seq": i,
                           "time": 7 * i, "info": {"operation": "A"}},
                          sort_keys=True, separators=(",", ":"))
        record = json.loads(line)
        index.setdefault(record["machine"], []).append(record["seq"])
    return len(sorted(index.items(), key=lambda kv: (-len(kv[1]), kv[0])))


class ReferenceClock:
    """Maps host clock readings of one iteration to seconds of the reference
    host, on which ``reference_work`` takes ``REFERENCE_WORK_S``.

    On a shared host, other tenants slow a process by up to 1.7 times for
    stretches of a second to minutes (seen on a 2-core shared Linux
    container).  Between two ``reference_work`` samples the host is
    taken to run at the speed shown by the median of the
    ``CALIBRATION_WINDOW`` samples on either side, about a quarter of a
    second each way.  Time spent in the samples counts for nothing.  With
    no samples, readings pass unscaled.
    """

    def __init__(self, samples: list[Span]):
        window = CALIBRATION_WINDOW
        self._starts = [a for a, _ in samples]
        self._ends = [b for _, b in samples]
        durations = [b - a for a, b in samples]
        self._scale = [
            REFERENCE_WORK_S / median(durations[max(0, i - window):i + window + 1])
            for i in range(len(samples))
        ]
        self._at = [0.0]  # reference time at the end of each sample
        for i in range(len(samples) - 1):
            self._at.append(self._at[-1] + self._scale[i] * (self._starts[i + 1] - self._ends[i]))

    def __call__(self, t: float) -> float:
        if not self._ends:
            return t
        i = bisect.bisect_right(self._ends, t) - 1
        if i < 0:  # before the first sample ended
            return self._scale[0] * (min(t, self._starts[0]) - self._starts[0])
        if i + 1 < len(self._starts):
            t = min(t, self._starts[i + 1])
        return self._at[i] + self._scale[i] * (t - self._ends[i])

    def seconds(self, span: Span) -> float:
        return self(span[1]) - self(span[0])


class Probes:
    """Round, session and host-speed clocks for the untraced run.

    A round is the interval between successive round starts of one session:
    ``RoundDriver.open_round`` calls in live sessions, ``ReferenceControl.
    on_round`` calls in replayed ones.  Consecutive starts belong to one
    session when they come from the same driver or control object.  When
    ``session_entry`` (``harness.run_single``) is given, each call to it is
    timed as one session, and its status and event count are kept.

    At a round start at most every ``CALIBRATION_PERIOD_S``, the probe times
    one ``reference_work`` call, so that samples of the host's speed spread
    evenly over the measured work; ``ReferenceClock`` turns them into a
    clock.  All times are kept as host clock spans.
    """

    def __init__(self, round_entry: tuple[str, str],
                 session_entry: tuple[str, str] | None = None):
        self.round_entry = round_entry
        self.session_entry = session_entry
        self.rounds: list[Span] = []
        self.sessions: list[tuple[Span, str, int]] = []  # (span, status, events)
        self.calibration: list[Span] = []
        self._owner: Any = None
        self._last = 0.0
        self._next_calibration = 0.0
        self._patches = Patches()

    def __enter__(self) -> "Probes":
        owner, attr = resolve(*self.round_entry)
        self._patches.wrap(owner, attr, self._stamped)
        if self.session_entry is not None:
            owner, attr = resolve(*self.session_entry)
            self._patches.wrap(owner, attr, self._timed)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()
        self._owner = None

    def calibration_s(self) -> float:
        return sum(b - a for a, b in self.calibration)

    def _stamped(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def stamped(obj: Any, *args: Any, **kwargs: Any) -> Any:
            now = time.perf_counter()
            if obj is self._owner:
                self.rounds.append((self._last, now))
            if now >= self._next_calibration:
                reference_work()
                done = time.perf_counter()
                self.calibration.append((now, done))
                self._next_calibration = done + CALIBRATION_PERIOD_S
                now = done
            self._owner, self._last = obj, now
            return fn(obj, *args, **kwargs)

        return stamped

    def _timed(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            events = result.report.events_observed if result.report is not None else 0
            self.sessions.append(((start, time.perf_counter()), result.status, events))
            return result

        return timed
