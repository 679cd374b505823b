"""Frozen decisions on a generated shop with a mixed disturbance catalogue.

The shop (8 machines, 4 shuttles, 120 staggered orders) and the scenario are
built here from integer arithmetic alone, so the inputs are the same bytes on
every Python version.  The scenario fires every directive and injection the
reference control reacts to.  The digests were taken from the full-scan
control that the indexed decision phase replaced: any change to which command
is issued, in which round or order, moves them.
"""

import hashlib
import json

import pytest

from holobench.control import ProductOrder
from holobench.harness import run_single
from holobench.interface import extract_command_log, iter_records
from holobench.model import load_model_doc
from holobench.scenario import load_scenario

OPERATIONS = "ABCDEF"
MACHINES = 8
SHUTTLES = 4
ORDERS = 120
SEED = 3

COMMAND_LOG_SHA256 = "27026ee5eac4d1186313d913e8000d0aefc0b1bcd33ac1fd8d3c7833d795d35c"
CONTROL_KPI_SHA256 = "f20933d8170e04a897015d57c6aa5d0ff745f59f816af9b5ed5badb1db9dd656"
# The whole session log (769,730 bytes, 4,208 lines): event-batch bytes the
# KPI report does not read, such as ``node`` or ``info.operation``, are
# pinned here and nowhere else.
SESSION_LOG_SHA256 = "205c450533e397203bcafef8b5449d3d510e63ff0cad5b21748f3d85b5ecc122"


def _lcg(state: int):
    """Endless stream of 31-bit integers, the same on every platform."""
    while True:
        state = (state * 1103515245 + 12345) % 2**31
        yield state >> 8


def shop_doc():
    mids = [f"M{i + 1}" for i in range(MACHINES)]
    nodes = ["IN", *mids, "OUT"]
    ring = len(nodes)
    edges = [
        {"from": a, "to": b, "travel": 2 + min(abs(i - j), ring - abs(i - j))}
        for i, a in enumerate(nodes)
        for j, b in enumerate(nodes)
        if a != b
    ]
    machines = {}
    for i, mid in enumerate(mids):
        operations = {OPERATIONS[i % 6]: 6 + (5 * i) % 11}
        if i % 2:
            operations[OPERATIONS[(i + 3) % 6]] = 6 + (7 * i) % 11
        machines[mid] = {"node": mid, "operations": operations}
    return {
        "machines": machines,
        "transport": {"nodes": nodes, "edges": edges},
        "shuttles": {f"S{i + 1}": {"home": "IN"} for i in range(SHUTTLES)},
        "stations": {"input": "IN", "output": "OUT"},
    }


def order_book():
    rnd = _lcg(2024)
    orders = []
    release = 0
    for i in range(ORDERS):
        release += next(rnd) % 5 if i else 0
        length = 2 + next(rnd) % 3
        routing = []
        while len(routing) < length:
            op = OPERATIONS[next(rnd) % 6]
            if not routing or routing[-1] != op:
                routing.append(op)
        orders.append(ProductOrder(
            id=f"O{i + 1:03d}", routing=tuple(routing), release=release,
            due=release + 40 * length + next(rnd) % 150,
            priority=(0, 0, 0, 1, 2, 3)[next(rnd) % 6],
        ))
    return orders


def _on(event, occurrence=1, **where):
    trigger = {"kind": "on-event", "event": event, "occurrence": occurrence}
    if where:
        trigger["where"] = where
    return trigger


def _after(base, delay):
    return {"kind": "after", "base": base, "delay": delay}


def _inject(**injection):
    return {"kind": "inject", "injection": injection}


def _direct(**directive):
    return {"kind": "direct", "directive": directive}


def scenario_doc(orders):
    last = orders[-1]
    rules = [
        {"id": "announced-breakdown-M3", "trigger": _on("op-finished", 3, machine="M3"),
         "actions": [_inject(kind="machine-down", machine="M3", duration={"sample": "d_repair"}),
                     _direct(kind="announce-breakdown", machine="M3")],
         "max_occurrences": 2},
        {"id": "preempting-breakdown-M6",
         "trigger": _after(_on("op-started", 2, machine="M6"), 3),
         "actions": [_inject(kind="machine-down", machine="M6", duration={"sample": "d_repair"})],
         "max_occurrences": 2},
        {"id": "shortage-M5", "trigger": _after(_on("op-started", 2, machine="M5"), 10),
         "actions": [_inject(kind="supply-shortage", machine="M5", duration={"sample": "d_block"}),
                     _direct(kind="announce-supply-block", machine="M5")],
         "max_occurrences": 2},
        {"id": "scrap-M2", "trigger": _on("op-finished", 4, machine="M2"),
         "actions": [_inject(kind="product-reject", order="$event.order", policy="scrap")],
         "max_occurrences": 2},
        {"id": "rework-M4", "trigger": _on("op-finished", 3, machine="M4"),
         "actions": [_inject(kind="product-reject", order="$event.order", policy="rework")],
         "max_occurrences": 2},
        {"id": "rework-in-process-M7", "trigger": _after(_on("op-started", 2, machine="M7"), 1),
         "actions": [_inject(kind="product-reject", order="$event.order", policy="rework")]},
        {"id": "reprioritise", "trigger": _on("order-released", 5),
         "actions": [_direct(kind="set-priority", order_id="$event.order",
                             priority={"sample": "p_new"})],
         "max_occurrences": 15},
        {"id": "promote-unreleased", "trigger": {"kind": "at-time", "time": 40},
         "actions": [_direct(kind="set-priority", order_id=orders[100].id, priority=7)]},
        {"id": "cancel-on-floor", "trigger": _on("order-released", 12),
         "actions": [_direct(kind="cancel-order", order_id="$event.order")],
         "max_occurrences": 4},
        {"id": "cancel-before-release", "trigger": {"kind": "at-time", "time": 20},
         "actions": [_direct(kind="cancel-order", order_id=orders[110].id)]},
    ]
    for k, (at, release) in enumerate([(30, 30), (90, last.release - 30)]):
        rules.append({
            "id": f"rush-N{k + 1}", "trigger": {"kind": "at-time", "time": at},
            "actions": [_direct(kind="insert-order", order={
                "id": f"N{k + 1}", "routing": ["A", "C", "E"][: 2 + k],
                "release": release, "due": release + 80, "priority": 9,
            })],
        })
    return {
        "id": "frozen-mix",
        "category": "dynamic-reconfiguration",
        "description": "every directive and injection the reference control handles",
        "rules": rules,
        "distributions": {
            "d_repair": {"kind": "constant", "value": 30},
            "d_block": {"kind": "uniform-int", "low": 10, "high": 30},
            "p_new": {"kind": "uniform-int", "low": 0, "high": 5},
        },
    }


def _sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _run():
    model = load_model_doc(shop_doc())
    orders = order_book()
    scenario = load_scenario(json.dumps(scenario_doc(orders)), model=model, orders=orders)
    return run_single(model, orders, scenario, SEED)


@pytest.fixture(scope="module")
def frozen_run():
    return _run()


def test_scenario_exercises_every_reaction(frozen_run):
    assert frozen_run.status == "completed"
    records = [record for _, record in iter_records(frozen_run.log)]
    directives = {r["body"]["kind"] for r in records if r["kind"] == "directive"}
    assert directives == {"insert-order", "cancel-order", "set-priority",
                          "announce-breakdown", "announce-supply-block"}
    events = [e for r in records if r["kind"] == "event-batch" for e in r["body"]["events"]]
    kinds = {e["kind"] for e in events}
    assert {"machine-down", "machine-up", "supply-blocked", "supply-restored",
            "order-cancelled"} <= kinds
    policies = {e["info"]["policy"] for e in events if e["kind"] == "product-rejected"}
    assert policies == {"scrap", "rework"}
    assert any(e["kind"] == "machine-down" and e.get("info", {}).get("preempted")
               for e in events)
    assert {"N1", "N2"} <= {e.get("order") for e in events if e["kind"] == "order-completed"}


def test_log_is_byte_stable(frozen_run):
    """A second run of the seed writes the same session log, byte for byte."""
    assert _run().log == frozen_run.log


def test_command_log_is_frozen(frozen_run):
    digest = hashlib.sha256(extract_command_log(frozen_run.log)).hexdigest()
    assert digest == COMMAND_LOG_SHA256


def test_session_log_is_frozen(frozen_run):
    assert len(frozen_run.log) == 769_730 and frozen_run.log.count(b"\n") == 4_208
    assert hashlib.sha256(frozen_run.log).hexdigest() == SESSION_LOG_SHA256


def test_control_counters_are_frozen(frozen_run):
    report = frozen_run.report
    counters = {
        "commands_issued": report.commands_issued,
        "directives_handled": report.directives_handled,
        "reschedules": report.reschedules,
    }
    assert _sha256_json(counters) == CONTROL_KPI_SHA256
