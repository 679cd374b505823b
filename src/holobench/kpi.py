"""Externalized KPI computation.

Nothing in here influences a run: the engine observes records the recorder
has already committed, applies each stream entry they carry, and reduces
them to a report at the end.  Two streams are tapped: FLOW1 carries the
production events, FLOW7 the control's end-of-run counters.  Every report
field is determined by the session log alone; the control's decision
latency is timed by the round driver and never enters the log or the
report.

Two implementations cross-check each other.  ``KpiEngine`` is incremental:
it deduplicates entries on (flow, t, seq), refuses time regressions, and
keeps running interval state.  ``recompute_from_log`` reconstructs the same
report from a session log alone, using whole-log folds instead of streaming
state.  Conservation (every released order ends completed, cancelled, or
scrapped) is enforced by both, so a mutated log is caught on recompute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Iterable, get_type_hints

from .canon import fits
from .interface import iter_records

FLOW_EVENTS = "FLOW1"
FLOW_CONTROL_KPI = "FLOW7"

# The report fields that suite aggregation compares across scenarios; their
# names, plus one utilization[...] per machine, fix comparison.csv.
COMPARED_METRICS = (
    "makespan",
    "released",
    "completed",
    "cancelled",
    "scrapped",
    "rework_events",
    "throughput_per_1000",
    "lead_time_mean",
    "lead_time_max",
    "tardiness_total",
    "tardiness_mean",
    "tardiness_max",
    "tardy_orders",
    "commands_issued",
    "reschedules",
)


class ConservationError(RuntimeError):
    """Released orders do not reconcile with completed/cancelled/scrapped."""


class StreamError(RuntimeError):
    """The tapped stream is internally inconsistent."""


@dataclass
class KpiReport:
    run_id: str
    scenario: str
    seed: int
    makespan: int
    released: int
    completed: int
    cancelled: int
    scrapped: int
    rework_events: int
    throughput_per_1000: float
    machine_busy: dict[str, int]
    machine_down: dict[str, int]
    machine_blocked: dict[str, int]
    utilization: dict[str, float]
    lead_time_mean: float
    lead_time_max: int
    tardiness_total: int
    tardiness_mean: float
    tardiness_max: int
    tardy_orders: int
    commands_issued: int
    directives_handled: int
    reschedules: int
    events_observed: int
    duplicates_dropped: int

    def to_doc(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_doc(cls, doc: dict[str, Any]) -> "KpiReport":
        """Inverse of ``to_doc``.

        Raises ``ValueError`` naming every missing or unknown key, and every
        value whose type its field does not allow.
        """
        if not isinstance(doc, dict):
            raise ValueError("a KPI report must be a JSON object")
        names = {f.name for f in fields(cls)}
        missing = sorted(names - doc.keys())
        unknown = sorted(doc.keys() - names)
        if missing or unknown:
            raise ValueError(f"KPI report has missing keys {missing}, unknown keys {unknown}")
        wrong = sorted(name for name, value in doc.items() if not fits(value, _FIELD_TYPES[name]))
        if wrong:
            raise ValueError(f"KPI report has values of the wrong type for keys {wrong}")
        return cls(**{k: dict(v) if isinstance(v, dict) else v for k, v in doc.items()})

    def scalar_metrics(self) -> dict[str, float]:
        """Flat numeric view used by suite aggregation and comparison."""
        out: dict[str, float] = {name: getattr(self, name) for name in COMPARED_METRICS}
        for mid, u in sorted(self.utilization.items()):
            out[f"utilization[{mid}]"] = u
        return out


_FIELD_TYPES = get_type_hints(KpiReport)


def reports_match(a: KpiReport, b: KpiReport, tol: float = 1e-9) -> list[str]:
    """Differences between two reports: exact for counts, tol for ratios."""
    diffs: list[str] = []
    da = a.to_doc()
    db = b.to_doc()
    da.pop("duplicates_dropped", None)  # diagnostic of delivery, not of the run
    db.pop("duplicates_dropped", None)
    for key in da:
        va, vb = da[key], db[key]
        if isinstance(va, dict):
            for sub in set(va) | set(vb):
                x, y = va.get(sub), vb.get(sub)
                if isinstance(x, float) or isinstance(y, float):
                    if x is None or y is None or abs(x - y) > tol:
                        diffs.append(f"{key}[{sub}]: {x!r} != {y!r}")
                elif x != y:
                    diffs.append(f"{key}[{sub}]: {x!r} != {y!r}")
        elif isinstance(va, float) or isinstance(vb, float):
            if abs(float(va) - float(vb)) > tol:
                diffs.append(f"{key}: {va!r} != {vb!r}")
        elif va != vb:
            diffs.append(f"{key}: {va!r} != {vb!r}")
    return diffs


def _clip_total(intervals: Iterable[tuple[int, int]], horizon: int) -> int:
    total = 0
    for start, end in intervals:
        total += max(0, min(end, horizon) - min(start, horizon))
    return total


class KpiEngine:
    """Streaming KPI computation over tapped records."""

    def __init__(self):
        self.run_id = ""
        self.scenario = ""
        self.seed = 0
        self._machines: list[str] = []
        self._dues: dict[str, int] = {}
        self._seen: set[tuple[str, int, int]] = set()
        self._last: dict[str, tuple[int, int]] = {}
        self.duplicates_dropped = 0
        self.events_observed = 0
        self._released: dict[str, int] = {}
        self._completed: dict[str, int] = {}
        self._cancelled: dict[str, int] = {}
        self._scrapped: dict[str, int] = {}
        self.rework_events = 0
        self._busy_open: dict[str, tuple[int, str]] = {}  # machine -> (start, order)
        self._busy: dict[str, list[tuple[int, int]]] = {}
        self._down_open: dict[str, int] = {}
        self._down: dict[str, list[tuple[int, int]]] = {}
        self._blocked_open: dict[str, int] = {}
        self._blocked: dict[str, list[tuple[int, int]]] = {}
        self._control_kpi: dict[str, int] = {}

    # -- wire tap -------------------------------------------------------------

    def observe_record(self, record: dict[str, Any]) -> None:
        """Recorder observer entry point; never mutates the session."""
        kind = record["kind"]
        if kind == "run-meta":
            body = record["body"]
            self.run_id = body.get("run_id", "")
            self.scenario = body.get("scenario", "")
            self.seed = body.get("seed", 0)
            self._machines = list(body.get("machines", []))
            for od in body.get("orders", []):
                self._dues[od["id"]] = od["due"]
        elif kind == "directive" and record["body"].get("kind") == "insert-order":
            od = record["body"].get("order") or {}
            if "id" in od and "due" in od:
                self._dues[od["id"]] = od["due"]
        elif kind == "event-batch":
            for ed in record["body"]["events"]:
                if self._is_new(FLOW_EVENTS, ed["time"], ed["seq"]):
                    self._ingest_event(ed["time"], ed)
        elif kind == "tap":
            body = record["body"]
            flow = body.get("flow")
            if flow == FLOW_CONTROL_KPI and self._is_new(flow, record["t"], body["i"]):
                self._control_kpi[body["name"]] = body["value"]

    # -- stream ingestion --------------------------------------------------------

    def _is_new(self, flow: str, t: int, seq: int) -> bool:
        """Whether a stream entry is new; counts and drops a duplicate.

        Raises ``StreamError`` when the entry comes before the flow's last one.
        """
        key = (flow, t, seq)
        if key in self._seen:
            self.duplicates_dropped += 1
            return False
        last = self._last.get(flow)
        if last is not None and (t, seq) < last:
            raise StreamError(
                f"{flow} regressed: (t={t}, seq={seq}) after (t={last[0]}, seq={last[1]})"
            )
        self._seen.add(key)
        self._last[flow] = (t, seq)
        return True

    def _ingest_event(self, t: int, ev: dict[str, Any]) -> None:
        self.events_observed += 1
        kind = ev["kind"]
        machine = ev.get("machine")
        order = ev.get("order")
        if kind == "order-released":
            self._released[order] = t
        elif kind == "order-completed":
            self._completed[order] = t
        elif kind == "order-cancelled":
            self._cancelled[order] = t
        elif kind == "op-started":
            if machine in self._busy_open:
                raise StreamError(f"op-started on already busy machine {machine!r}")
            self._busy_open[machine] = (t, order)
        elif kind == "op-finished":
            if machine not in self._busy_open:
                raise StreamError(f"op-finished on idle machine {machine!r}")
            start, _ = self._busy_open.pop(machine)
            self._busy.setdefault(machine, []).append((start, t))
        elif kind == "machine-down":
            if machine in self._busy_open:
                start, _ = self._busy_open.pop(machine)
                self._busy.setdefault(machine, []).append((start, t))
            self._down_open[machine] = t
        elif kind == "machine-up":
            if machine not in self._down_open:
                raise StreamError(f"machine-up on machine {machine!r} that was not down")
            self._down.setdefault(machine, []).append((self._down_open.pop(machine), t))
        elif kind == "supply-blocked":
            self._blocked_open[machine] = t
        elif kind == "supply-restored":
            if machine not in self._blocked_open:
                raise StreamError(f"supply-restored on machine {machine!r} that was not blocked")
            self._blocked.setdefault(machine, []).append((self._blocked_open.pop(machine), t))
        elif kind == "product-rejected":
            policy = (ev.get("info") or {}).get("policy")
            if machine is not None and machine in self._busy_open:
                start, busy_order = self._busy_open[machine]
                if busy_order == order:
                    self._busy_open.pop(machine)
                    self._busy.setdefault(machine, []).append((start, t))
            if policy == "scrap":
                self._scrapped[order] = t
            elif policy == "rework":
                self.rework_events += 1

    # -- reduction ----------------------------------------------------------------

    def finalize(self) -> KpiReport:
        released = set(self._released)
        settled = set(self._completed) | set(self._cancelled) | set(self._scrapped)
        if released != settled:
            missing = sorted(released - settled)
            phantom = sorted(settled - released)
            raise ConservationError(
                f"conservation violated: released={len(released)} "
                f"completed={len(self._completed)} cancelled={len(self._cancelled)} "
                f"scrapped={len(self._scrapped)}; unsettled={missing}; unreleased={phantom}"
            )
        makespan = max(self._completed.values(), default=0)
        horizon = makespan
        busy = {m: list(spans) for m, spans in self._busy.items()}
        for machine, (start, _) in self._busy_open.items():
            busy.setdefault(machine, []).append((start, horizon))
        down = {m: list(spans) for m, spans in self._down.items()}
        for machine, start in self._down_open.items():
            down.setdefault(machine, []).append((start, horizon))
        blocked = {m: list(spans) for m, spans in self._blocked.items()}
        for machine, start in self._blocked_open.items():
            blocked.setdefault(machine, []).append((start, horizon))

        machines = self._machines or sorted(
            set(busy) | set(down) | set(blocked)
        )
        machine_busy = {m: _clip_total(busy.get(m, []), horizon) for m in machines}
        machine_down = {m: _clip_total(down.get(m, []), horizon) for m in machines}
        machine_blocked = {m: _clip_total(blocked.get(m, []), horizon) for m in machines}
        utilization = {
            m: (machine_busy[m] / makespan if makespan else 0.0) for m in machines
        }

        leads = [t - self._released[o] for o, t in sorted(self._completed.items())]
        tardies: list[int] = []
        for o, t in sorted(self._completed.items()):
            if o not in self._dues:
                raise StreamError(f"order {o!r} completed but never registered")
            tardies.append(max(0, t - self._dues[o]))

        n = len(self._completed)
        return KpiReport(
            run_id=self.run_id,
            scenario=self.scenario,
            seed=self.seed,
            makespan=makespan,
            released=len(self._released),
            completed=n,
            cancelled=len(self._cancelled),
            scrapped=len(self._scrapped),
            rework_events=self.rework_events,
            throughput_per_1000=(n * 1000 / makespan) if makespan else 0.0,
            machine_busy=machine_busy,
            machine_down=machine_down,
            machine_blocked=machine_blocked,
            utilization=utilization,
            lead_time_mean=(sum(leads) / n) if n else 0.0,
            lead_time_max=max(leads, default=0),
            tardiness_total=sum(tardies),
            tardiness_mean=(sum(tardies) / n) if n else 0.0,
            tardiness_max=max(tardies, default=0),
            tardy_orders=sum(1 for x in tardies if x > 0),
            commands_issued=self._control_kpi.get("commands_issued", 0),
            directives_handled=self._control_kpi.get("directives_handled", 0),
            reschedules=self._control_kpi.get("reschedules", 0),
            events_observed=self.events_observed,
            duplicates_dropped=self.duplicates_dropped,
        )


def recompute_from_log(log: bytes) -> KpiReport:
    """Whole-log KPI reconstruction, independent of the streaming engine.

    Reads nothing but the session log: order dues come from the run-meta
    record and insert-order directives, events from the batches.  Used as
    the oracle against ``KpiEngine.finalize``, and as strict: a machine
    event that contradicts the machine's state raises ``StreamError``.

    The log is decoded one line at a time, and each record is folded in and
    dropped: only the run-meta body, the dues, the events (deduplicated by
    ``seq``) and the control's counters are kept for the whole-log folds
    below.
    """
    meta: dict[str, Any] = {}
    dues: dict[str, int] = {}
    events: dict[int, dict[str, Any]] = {}  # seq -> event, deduplicated
    control_kpi: dict[str, int] = {}
    for _, record in iter_records(log):
        kind = record["kind"]
        if kind == "run-meta":
            meta = record["body"]
            for od in meta.get("orders", []):
                dues[od["id"]] = od["due"]
        elif kind == "directive" and record["body"].get("kind") == "insert-order":
            od = record["body"].get("order") or {}
            if "id" in od and "due" in od:
                dues[od["id"]] = od["due"]
        elif kind == "event-batch":
            for ed in record["body"]["events"]:
                events.setdefault(ed["seq"], ed)
        elif kind == "tap" and record["body"].get("flow") == FLOW_CONTROL_KPI:
            control_kpi[record["body"]["name"]] = record["body"]["value"]

    ordered = [events[s] for s in sorted(events)]

    def times_of(kind: str) -> dict[str, int]:
        return {e["order"]: e["time"] for e in ordered if e["kind"] == kind}

    released = times_of("order-released")
    completed = times_of("order-completed")
    cancelled = times_of("order-cancelled")
    scrapped = {
        e["order"]: e["time"]
        for e in ordered
        if e["kind"] == "product-rejected" and (e.get("info") or {}).get("policy") == "scrap"
    }
    rework_events = sum(
        1
        for e in ordered
        if e["kind"] == "product-rejected" and (e.get("info") or {}).get("policy") == "rework"
    )

    settled = set(completed) | set(cancelled) | set(scrapped)
    if set(released) != settled:
        raise ConservationError(
            f"conservation violated: released={len(released)} completed={len(completed)} "
            f"cancelled={len(cancelled)} scrapped={len(scrapped)}; "
            f"unsettled={sorted(set(released) - settled)}; "
            f"unreleased={sorted(settled - set(released))}"
        )

    makespan = max(completed.values(), default=0)

    machines = list(meta.get("machines", []))
    busy: dict[str, list[tuple[int, int]]] = {}
    down: dict[str, list[tuple[int, int]]] = {}
    blocked: dict[str, list[tuple[int, int]]] = {}
    open_busy: dict[str, int] = {}
    open_down: dict[str, int] = {}
    open_blocked: dict[str, int] = {}
    busy_order: dict[str, str] = {}
    for e in ordered:
        m = e.get("machine")
        k = e["kind"]
        if k == "op-started":
            if m in open_busy:
                raise StreamError(f"op-started on already busy machine {m!r}")
            open_busy[m] = e["time"]
            busy_order[m] = e["order"]
        elif k == "op-finished":
            if m not in open_busy:
                raise StreamError(f"op-finished on idle machine {m!r}")
            busy.setdefault(m, []).append((open_busy.pop(m), e["time"]))
        elif k == "machine-down":
            if m in open_busy:
                busy.setdefault(m, []).append((open_busy.pop(m), e["time"]))
            open_down[m] = e["time"]
        elif k == "machine-up":
            if m not in open_down:
                raise StreamError(f"machine-up on machine {m!r} that was not down")
            down.setdefault(m, []).append((open_down.pop(m), e["time"]))
        elif k == "supply-blocked":
            open_blocked[m] = e["time"]
        elif k == "supply-restored":
            if m not in open_blocked:
                raise StreamError(f"supply-restored on machine {m!r} that was not blocked")
            blocked.setdefault(m, []).append((open_blocked.pop(m), e["time"]))
        elif k == "product-rejected" and m is not None:
            if m in open_busy and busy_order.get(m) == e["order"]:
                busy.setdefault(m, []).append((open_busy.pop(m), e["time"]))
    for m, start in open_busy.items():
        busy.setdefault(m, []).append((start, makespan))
    for m, start in open_down.items():
        down.setdefault(m, []).append((start, makespan))
    for m, start in open_blocked.items():
        blocked.setdefault(m, []).append((start, makespan))
    if not machines:
        machines = sorted(set(busy) | set(down) | set(blocked))

    leads = [completed[o] - released[o] for o in sorted(completed)]
    for o in completed:
        if o not in dues:
            raise StreamError(f"order {o!r} completed but never registered")
    tardies = [max(0, completed[o] - dues[o]) for o in sorted(completed)]
    n = len(completed)

    return KpiReport(
        run_id=meta.get("run_id", ""),
        scenario=meta.get("scenario", ""),
        seed=meta.get("seed", 0),
        makespan=makespan,
        released=len(released),
        completed=n,
        cancelled=len(cancelled),
        scrapped=len(scrapped),
        rework_events=rework_events,
        throughput_per_1000=(n * 1000 / makespan) if makespan else 0.0,
        machine_busy={m: _clip_total(busy.get(m, []), makespan) for m in machines},
        machine_down={m: _clip_total(down.get(m, []), makespan) for m in machines},
        machine_blocked={m: _clip_total(blocked.get(m, []), makespan) for m in machines},
        utilization={
            m: (_clip_total(busy.get(m, []), makespan) / makespan if makespan else 0.0)
            for m in machines
        },
        lead_time_mean=(sum(leads) / n) if n else 0.0,
        lead_time_max=max(leads, default=0),
        tardiness_total=sum(tardies),
        tardiness_mean=(sum(tardies) / n) if n else 0.0,
        tardiness_max=max(tardies, default=0),
        tardy_orders=sum(1 for x in tardies if x > 0),
        commands_issued=control_kpi.get("commands_issued", 0),
        directives_handled=control_kpi.get("directives_handled", 0),
        reschedules=control_kpi.get("reschedules", 0),
        events_observed=len(ordered),
        duplicates_dropped=0,
    )
