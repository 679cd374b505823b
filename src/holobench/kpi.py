"""Externalized KPI computation.

Nothing in here influences a run: the engine observes records the recorder
has already committed, applies each stream entry they carry, and reduces
them to a report at the end.  Two streams are tapped: FLOW1 carries the
production events, FLOW7 the control's end-of-run counters.  Every report
field is determined by the session log alone; the control's decision
latency is timed by the round driver and never enters the log or the
report.

Two implementations cross-check each other.  ``KpiEngine`` is incremental
and keeps running interval state.  ``recompute_from_log`` reconstructs the
same report from a session log alone.  Each takes every entry once, in the
order it reads it, under one stream rule: an event must have a greater
``seq`` than the last event and a ``time`` no earlier, and a FLOW7 tap a
greater ``i`` than the last tap; anything else, a repeat included, raises
``StreamError``.  Each keeps one map of open and one of closed machine
intervals, keyed by state and machine.  Conservation (every released order
ends completed, cancelled, or scrapped) is enforced by both, so a mutated
log is caught on recompute.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, get_type_hints

from .canon import fits
from .control import ProductOrder
from .interface import FLOW_CONTROL_KPI, batch_events, built_body, iter_records, run_meta_orders
from .messages import ControlDirective, Tap

FLOW_EVENTS = "FLOW1"

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
        """The report as a JSON object, keys in field order; the dict
        fields are copied, so the doc shares no mutable value with it."""
        return {
            name: dict(value) if type(value := getattr(self, name)) is dict else value
            for name in _FIELD_TYPES
        }

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
        self._last: dict[str, tuple[int, int]] = {}  # flow -> (t, seq) of its last entry
        self.events_observed = 0
        self._released: dict[str, int] = {}
        self._completed: dict[str, int] = {}
        self._cancelled: dict[str, int] = {}
        self._scrapped: dict[str, int] = {}
        self.rework_events = 0
        # (state, machine) -> (start, order) of each open busy, down or
        # blocked interval; the order is the busy one's, else None
        self._open: dict[tuple[str, str], tuple[int, str | None]] = {}
        self._spans: dict[tuple[str, str], list[tuple[int, int]]] = {}  # closed ones
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
        elif kind == "directive" and (body := record["body"])["kind"] == "insert-order":
            # the control drops an insert whose id it already holds
            self._dues.setdefault(body["order"]["id"], body["order"]["due"])
        elif kind == "event-batch":
            for ed in record["body"]["events"]:
                self._check_order(FLOW_EVENTS, ed["time"], ed["seq"])
                self._ingest_event(ed["time"], ed)
        elif kind == "tap" and (body := record["body"])["flow"] == FLOW_CONTROL_KPI:
            self._check_order(FLOW_CONTROL_KPI, record["t"], body["i"])
            self._control_kpi[body["name"]] = body["value"]

    # -- stream ingestion --------------------------------------------------------

    def _check_order(self, flow: str, t: int, seq: int) -> None:
        """Raises ``StreamError`` unless a stream entry comes after the flow's
        last one: a greater ``seq`` at no earlier ``t``."""
        last = self._last.get(flow)
        if last is not None and (seq <= last[1] or t < last[0]):
            raise StreamError(
                f"{flow} regressed: (t={t}, seq={seq}) after (t={last[0]}, seq={last[1]})"
            )
        self._last[flow] = (t, seq)

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
            if ("busy", machine) in self._open:
                raise StreamError(f"op-started on already busy machine {machine!r}")
            self._open["busy", machine] = (t, order)
        elif kind == "op-finished":
            if ("busy", machine) not in self._open:
                raise StreamError(f"op-finished on idle machine {machine!r}")
            self._close("busy", machine, t)
        elif kind == "machine-down":
            if ("down", machine) in self._open:
                raise StreamError(f"machine-down on already down machine {machine!r}")
            if ("busy", machine) in self._open:
                self._close("busy", machine, t)
            self._open["down", machine] = (t, None)
        elif kind == "machine-up":
            if ("down", machine) not in self._open:
                raise StreamError(f"machine-up on machine {machine!r} that was not down")
            self._close("down", machine, t)
        elif kind == "supply-blocked":
            if ("blocked", machine) in self._open:
                raise StreamError(f"supply-blocked on already blocked machine {machine!r}")
            self._open["blocked", machine] = (t, None)
        elif kind == "supply-restored":
            if ("blocked", machine) not in self._open:
                raise StreamError(f"supply-restored on machine {machine!r} that was not blocked")
            self._close("blocked", machine, t)
        elif kind == "product-rejected":
            policy = (ev.get("info") or {}).get("policy")
            busy = self._open.get(("busy", machine))
            if busy is not None and busy[1] == order:
                self._close("busy", machine, t)
            if policy == "scrap":
                self._scrapped[order] = t
            elif policy == "rework":
                self.rework_events += 1

    def _close(self, state: str, machine: str, t: int) -> None:
        start, _ = self._open.pop((state, machine))
        self._spans.setdefault((state, machine), []).append((start, t))

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
        spans = {key: list(closed) for key, closed in self._spans.items()}
        for key, (start, _) in self._open.items():
            spans.setdefault(key, []).append((start, makespan))
        machines = self._machines or sorted({m for _, m in spans})
        machine_busy, machine_down, machine_blocked = (
            {m: _clip_total(spans.get((state, m), ()), makespan) for m in machines}
            for state in ("busy", "down", "blocked")
        )
        utilization = {m: (machine_busy[m] / makespan if makespan else 0.0) for m in machines}

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
            duplicates_dropped=0,
        )


def _inserted(body: dict[str, Any]) -> ProductOrder | None:
    """The order a directive body inserts, if it is an insert-order."""
    directive = ControlDirective.check_body(body)
    return ProductOrder.from_dict(body["order"]) if directive["kind"] == "insert-order" else None


def recompute_from_log(log: bytes) -> KpiReport:
    """Whole-log KPI reconstruction, independent of the streaming engine.

    Reads nothing but the session log: order dues come from the run-meta
    record and insert-order directives, events from the batches.  Used as
    the oracle against ``KpiEngine.finalize``, and as strict: an entry out
    of stream order (see above) or a machine event that contradicts the
    machine's state raises ``StreamError``.

    The log is decoded one line at a time, and each record, each event
    (checked, see ``batch_events``) included, is folded in as it is read
    and dropped.  Each body is checked as the live session checks it: a
    run-meta by ``run_meta_orders``, a directive by ``ControlDirective`` and
    a tap by ``Tap`` (but one whose flow is a string other than FLOW7, such
    as an older log's FLOW2 latency taps, is not read), and each order by
    ``ProductOrder.from_dict``; a body refused raises ``DecodeError`` at its
    line's offset.
    """
    meta: dict[str, Any] = {}
    dues: dict[str, int] = {}
    control_kpi: dict[str, int] = {}
    # order -> time of its last event of each kind that releases or settles it
    times: dict[str, dict[str, int]] = {
        k: {} for k in ("order-released", "order-completed", "order-cancelled")
    }
    scrapped: dict[str, int] = {}
    rework_events = events_observed = 0
    # (state, machine) -> (start, order) of each open interval, and the closed ones
    opened: dict[tuple[str, str], tuple[int, str | None]] = {}
    spans: dict[tuple[str, str], list[tuple[int, int]]] = {}
    last: dict[str, tuple[int, int]] = {}  # flow -> (t, seq) of its last entry

    def close(state: str, m: str, t: int) -> None:
        spans.setdefault((state, m), []).append((opened.pop((state, m))[0], t))

    def follow(flow: str, t: int, seq: int) -> None:
        prev = last.get(flow)
        if prev is not None and not (seq > prev[1] and t >= prev[0]):
            raise StreamError(
                f"{flow} regressed: (t={t}, seq={seq}) after (t={prev[0]}, seq={prev[1]})"
            )
        last[flow] = (t, seq)

    offset = 0
    for line, record in iter_records(log):
        kind = record["kind"]
        if kind == "run-meta":
            meta = record["body"]
            dues.update((o.id, o.due) for o in built_body(run_meta_orders, record, offset))
        elif kind == "directive":
            if (order := built_body(_inserted, record, offset)) is not None:
                # the control drops an insert whose id it already holds
                dues.setdefault(order.id, order.due)
        elif kind == "event-batch":
            for e in batch_events(record, offset):
                k, t, m = e["kind"], e["time"], e.get("machine")
                follow(FLOW_EVENTS, t, e["seq"])
                events_observed += 1
                if k in times:
                    times[k][e["order"]] = t
                elif k == "product-rejected":
                    policy = (e.get("info") or {}).get("policy")
                    if policy == "scrap":
                        scrapped[e["order"]] = t
                    elif policy == "rework":
                        rework_events += 1
                    if opened.get(("busy", m), (0, None))[1] == e["order"]:
                        close("busy", m, t)
                elif k == "op-started":
                    if ("busy", m) in opened:
                        raise StreamError(f"op-started on already busy machine {m!r}")
                    opened["busy", m] = (t, e["order"])
                elif k == "op-finished":
                    if ("busy", m) not in opened:
                        raise StreamError(f"op-finished on idle machine {m!r}")
                    close("busy", m, t)
                elif k == "machine-down":
                    if ("down", m) in opened:
                        raise StreamError(f"machine-down on already down machine {m!r}")
                    if ("busy", m) in opened:
                        close("busy", m, t)
                    opened["down", m] = (t, None)
                elif k == "machine-up":
                    if ("down", m) not in opened:
                        raise StreamError(f"machine-up on machine {m!r} that was not down")
                    close("down", m, t)
                elif k == "supply-blocked":
                    if ("blocked", m) in opened:
                        raise StreamError(f"supply-blocked on already blocked machine {m!r}")
                    opened["blocked", m] = (t, None)
                elif k == "supply-restored":
                    if ("blocked", m) not in opened:
                        raise StreamError(f"supply-restored on machine {m!r} that was not blocked")
                    close("blocked", m, t)
        elif kind == "tap" and (type(flow := record["body"].get("flow")) is not str
                                or flow == FLOW_CONTROL_KPI):
            body = built_body(Tap.check_body, record, offset)
            follow(FLOW_CONTROL_KPI, record["t"], body["i"])
            control_kpi[body["name"]] = body["value"]
        offset += len(line)
    released, completed, cancelled = times.values()

    settled = set(completed) | set(cancelled) | set(scrapped)
    if set(released) != settled:
        raise ConservationError(
            f"conservation violated: released={len(released)} completed={len(completed)} "
            f"cancelled={len(cancelled)} scrapped={len(scrapped)}; "
            f"unsettled={sorted(set(released) - settled)}; "
            f"unreleased={sorted(settled - set(released))}"
        )

    makespan = max(completed.values(), default=0)
    for key, (start, _) in opened.items():
        spans.setdefault(key, []).append((start, makespan))
    machines = list(meta.get("machines", [])) or sorted({m for _, m in spans})
    busy, down, blocked = (
        {m: _clip_total(spans.get((state, m), ()), makespan) for m in machines}
        for state in ("busy", "down", "blocked")
    )

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
        machine_busy=busy,
        machine_down=down,
        machine_blocked=blocked,
        utilization={m: (busy[m] / makespan if makespan else 0.0) for m in machines},
        lead_time_mean=(sum(leads) / n) if n else 0.0,
        lead_time_max=max(leads, default=0),
        tardiness_total=sum(tardies),
        tardiness_mean=(sum(tardies) / n) if n else 0.0,
        tardiness_max=max(tardies, default=0),
        tardy_orders=sum(1 for x in tardies if x > 0),
        commands_issued=control_kpi.get("commands_issued", 0),
        directives_handled=control_kpi.get("directives_handled", 0),
        reschedules=control_kpi.get("reschedules", 0),
        events_observed=events_observed,
        duplicates_dropped=0,
    )
