"""Seeded generator for the benchmark's input documents.

Every document is plain JSON built from ``random.Random(seed)``; the program
only ever sees the documents, through its own loaders.  ``canonical`` fixes
the bytes, so the same seed gives the same sha256 on every machine.

Totals that set the amount of work are fixed and only their arrangement is
drawn from the seed: the shop is the same for every seed, and routing
lengths come from a balanced multiset that the seed shuffles.  That keeps
runs with different seeds comparable, which the benchmark's spread bounds
rely on.

Releases are dense on purpose.  An order book whose first release is after
t=0, or whose next release falls after the floor has drained, ends
``stalled``: the kernel has nothing pending and the control cannot ask to
be woken.  The generated books keep the shop loaded until the last release.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any

INPUT = "IN"
OUTPUT = "OUT"
KINDS = 6  # operation kinds A-F
ROUTING_LENGTHS = (2, 3, 4)
MAX_GAP = 4  # ticks between successive releases, at most


def canonical(doc: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, UTF-8."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode()


def sha256(doc: Any) -> str:
    return sha256_bytes(canonical(doc))


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


OPERATIONS = [chr(ord("A") + i) for i in range(KINDS)]


def shop_doc(machines: int, shuttles: int) -> dict[str, Any]:
    """Shop with all-pairs transport; every operation kind has a machine.

    The shop takes nothing from the seed, so that seeds vary only the order
    book and the disturbances.  Machine ``i`` performs kind ``i mod KINDS``
    and every other machine a second kind; durations run from 8 to 20
    ticks.  Nodes sit on a ring and travel is 2 plus the ring distance.
    """
    mids = [f"M{i + 1}" for i in range(machines)]
    nodes = [INPUT, *mids, OUTPUT]
    ring = len(nodes)
    edges = []
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            if a != b:
                dist = min(abs(i - j), ring - abs(i - j))
                edges.append({"from": a, "to": b, "travel": 2 + dist})
    machine_docs = {}
    for i, mid in enumerate(mids):
        operations = {OPERATIONS[i % KINDS]: 8 + (5 * i) % 13}
        if i % 2:
            operations[OPERATIONS[(i + 3) % KINDS]] = 8 + (7 * i) % 13
        machine_docs[mid] = {"node": mid, "operations": operations}
    return {
        "machines": machine_docs,
        "transport": {"nodes": nodes, "edges": edges},
        "shuttles": {f"S{i + 1}": {"home": INPUT} for i in range(shuttles)},
        "stations": {"input": INPUT, "output": OUTPUT},
    }


def _routing(rng: random.Random, length: int) -> list[str]:
    steps: list[str] = []
    while len(steps) < length:
        op = rng.choice(OPERATIONS)
        if not steps or op != steps[-1]:
            steps.append(op)
    return steps


def _order(rng: random.Random, oid: str, length: int, release: int,
           priority: int) -> dict[str, Any]:
    return {
        "id": oid,
        "routing": _routing(rng, length),
        "release": release,
        "due": release + 40 * length + rng.randint(0, 200),
        "priority": priority,
    }


def orders_doc(rng: random.Random, orders: int) -> dict[str, Any]:
    """Order book: first release at t=0, then gaps of 0..MAX_GAP ticks."""
    lengths = [ROUTING_LENGTHS[i % len(ROUTING_LENGTHS)] for i in range(orders)]
    rng.shuffle(lengths)
    book = []
    release = 0
    for i, length in enumerate(lengths):
        if i:
            release += rng.randint(0, MAX_GAP)
        book.append(_order(rng, f"O{i + 1}", length, release, rng.choice((0, 0, 0, 1, 2, 3))))
    return {"orders": book}


def null_scenario_doc() -> dict[str, Any]:
    return {"id": "null", "category": None, "description": "no disturbances", "rules": []}


def _on_event(event: str, machine: str | None = None, occurrence: int = 1) -> dict[str, Any]:
    trigger: dict[str, Any] = {"kind": "on-event", "event": event, "occurrence": occurrence}
    if machine is not None:
        trigger["where"] = {"machine": machine}
    return trigger


def _inject(**injection: Any) -> dict[str, Any]:
    return {"kind": "inject", "injection": injection}


def _direct(**directive: Any) -> dict[str, Any]:
    return {"kind": "direct", "directive": directive}


def disturbance_doc(rng: random.Random, shop: dict[str, Any], book: dict[str, Any],
                    rush_orders: int) -> dict[str, Any]:
    """Catalogue: per machine a recurring breakdown, a delayed supply
    shortage and a reject; reprioritisation and cancellation on releases;
    ``rush_orders`` at-time inserts spread over the release horizon."""
    rules: list[dict[str, Any]] = []
    for mid in shop["machines"]:
        breakdown = [_inject(kind="machine-down", machine=mid, duration={"sample": "d_repair"})]
        if rng.random() < 0.5:
            breakdown.append(_direct(kind="announce-breakdown", machine=mid))
        rules.append({
            "id": f"breakdown-{mid}",
            "trigger": _on_event("op-finished", mid, rng.randint(2, 5)),
            "actions": breakdown,
            "max_occurrences": rng.randint(2, 3),
        })
        rules.append({
            "id": f"shortage-{mid}",
            "trigger": {
                "kind": "after",
                "base": _on_event("op-started", mid, rng.randint(1, 4)),
                "delay": rng.randint(5, 40),
            },
            "actions": [
                _inject(kind="supply-shortage", machine=mid, duration={"sample": "d_block"}),
                _direct(kind="announce-supply-block", machine=mid),
            ],
            "max_occurrences": 2,
        })
        rules.append({
            "id": f"reject-{mid}",
            "trigger": _on_event("op-finished", mid, rng.randint(1, 6)),
            "actions": [_inject(kind="product-reject", order="$event.order",
                                policy=rng.choice(("rework", "rework", "scrap")))],
            "max_occurrences": rng.randint(1, 2),
        })
    rules.append({
        "id": "reprioritise-on-release",
        "trigger": _on_event("order-released", occurrence=rng.randint(3, 10)),
        "actions": [_direct(kind="set-priority", order_id="$event.order",
                            priority={"sample": "p_new"})],
        "max_occurrences": 40,
    })
    rules.append({
        "id": "cancel-on-release",
        "trigger": _on_event("order-released", occurrence=rng.randint(15, 30)),
        "actions": [_direct(kind="cancel-order", order_id="$event.order")],
        "max_occurrences": 10,
    })
    horizon = book["orders"][-1]["release"]
    for k in range(rush_orders):
        at = (k + 1) * horizon // (rush_orders + 1)
        rules.append({
            "id": f"rush-R{k + 1}",
            "trigger": {"kind": "at-time", "time": at},
            "actions": [_direct(kind="insert-order",
                                order=_order(rng, f"R{k + 1}", rng.choice(ROUTING_LENGTHS),
                                             at, 9))],
        })
    return {
        "id": "disturbed",
        "category": "dynamic-reconfiguration",
        "description": "generated disturbance catalogue",
        "rules": rules,
        "distributions": {
            "d_repair": {"kind": "exponential-int", "mean": 30},
            "d_block": {"kind": "uniform-int", "low": 10, "high": 40},
            "p_new": {"kind": "uniform-int", "low": 0, "high": 5},
        },
    }
