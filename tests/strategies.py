"""Hypothesis strategies shared by the test modules: wire messages, and
generated sessions on a small three-machine shop."""

from hypothesis import strategies as st

from holobench.control import ProductOrder
from holobench.messages import (
    COMMAND_KINDS,
    DIRECTIVE_TARGETS,
    EVENT_SUBJECTS,
    INJECTION_KINDS,
    REJECT_POLICIES,
    ControlCommand,
    ControlDirective,
    Injection,
    Notice,
    SimEvent,
    Tap,
)

# One strategy per wire message class, each drawing every field.
_name = st.text(min_size=1, max_size=8)
_id = st.none() | _name
_payload = st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6), max_size=3)


def _event(kind):
    """Events of one kind: the subjects the kind names are strings."""
    ids = {name: _id for name in ("machine", "shuttle", "order", "node")}
    ids.update({name: st.text(max_size=8) for name in EVENT_SUBJECTS[kind]})
    return st.builds(
        SimEvent,
        time=st.integers(min_value=0, max_value=10**9),
        seq=st.integers(min_value=0, max_value=10**9),
        kind=st.just(kind),
        info=_payload,
        **ids,
    )


def _directive(kind):
    """Directives of one kind: the targets the kind names are set."""
    values = {"order": _payload, "order_id": _name, "priority": st.integers(), "machine": _name}
    return st.builds(ControlDirective, kind=st.just(kind), **{
        name: value if name in DIRECTIVE_TARGETS[kind] else st.none() | value
        for name, value in values.items()
    })


MESSAGES = {
    SimEvent: st.sampled_from(sorted(EVENT_SUBJECTS)).flatmap(_event),
    ControlCommand: st.builds(
        ControlCommand,
        kind=st.sampled_from(sorted(COMMAND_KINDS)),
        shuttle=_id, destination=_id, carry=_id, machine=_id, order=_id, operation=_id,
    ),
    ControlDirective: st.sampled_from(sorted(DIRECTIVE_TARGETS)).flatmap(_directive),
    Injection: st.one_of(
        st.builds(
            Injection,
            kind=st.sampled_from(sorted(INJECTION_KINDS - {"product-reject"})),
            machine=st.text(min_size=1, max_size=8),
            duration=st.none() | st.integers(min_value=1),
        ),
        st.builds(
            Injection,
            kind=st.just("product-reject"), machine=_id, order=st.text(min_size=1, max_size=8),
            policy=st.sampled_from(sorted(REJECT_POLICIES)),
        ),
    ),
    Notice: st.builds(
        Notice,
        time=st.integers(min_value=0),
        kind=st.sampled_from(["command-rejected", "injection-ignored"]),
        reason=st.text(max_size=12),
        command=st.none() | _payload, injection=st.none() | _payload,
    ),
    Tap: st.builds(Tap, flow=st.text(max_size=6), name=st.text(max_size=12),
                   value=st.integers(), i=st.integers()),
}


# M2 shares A with M1 and B with M3; the shuttles start at opposite ends.
ORACLE_NODES = ["IN", "M1", "M2", "M3", "OUT"]
ORACLE_SHOP = {
    "machines": {
        "M1": {"node": "M1", "operations": {"A": 6}},
        "M2": {"node": "M2", "operations": {"A": 9, "B": 5}},
        "M3": {"node": "M3", "operations": {"B": 7, "C": 4}},
    },
    "transport": {
        "nodes": ORACLE_NODES,
        "edges": [
            {"from": a, "to": b, "travel": 2 + abs(i - j)}
            for i, a in enumerate(ORACLE_NODES)
            for j, b in enumerate(ORACLE_NODES)
            if a != b
        ],
    },
    "shuttles": {"S1": {"home": "IN"}, "S2": {"home": "OUT"}},
    "stations": {"input": "IN", "output": "OUT"},
}

machines = st.sampled_from(["M1", "M2", "M3"])
routings = st.lists(st.sampled_from("ABC"), min_size=1, max_size=3)


def _on(event, occurrence, **where):
    trigger = {"kind": "on-event", "event": event, "occurrence": occurrence}
    if where:
        trigger["where"] = where
    return trigger


@st.composite
def _disturbance(draw, kind, book):
    """One scenario rule of the given kind with drawn targets and timing."""
    k = draw(st.integers(1, 2))
    m = draw(machines)
    occurrences = draw(st.integers(1, 3))
    started = {"kind": "after", "base": _on("op-started", k, machine=m),
               "delay": draw(st.integers(1, 4))}
    if kind == "breakdown":
        trigger = draw(st.sampled_from([_on("op-finished", k, machine=m), started]))
        actions = [{"kind": "inject", "injection": {
            "kind": "machine-down", "machine": m, "duration": draw(st.integers(3, 40))}}]
        if draw(st.booleans()):
            actions.append({"kind": "direct",
                            "directive": {"kind": "announce-breakdown", "machine": m}})
    elif kind == "supply-block":
        trigger = started
        actions = [{"kind": "inject", "injection": {
            "kind": "supply-shortage", "machine": m, "duration": draw(st.integers(3, 40))}}]
        if draw(st.booleans()):
            actions.append({"kind": "direct",
                            "directive": {"kind": "announce-supply-block", "machine": m}})
    elif kind == "set-priority":
        trigger = _on("order-released", k)
        actions = [{"kind": "direct", "directive": {
            "kind": "set-priority", "order_id": "$event.order",
            "priority": draw(st.integers(-1, 5))}}]
    elif kind == "insert-order":
        at = draw(st.integers(0, 60))
        trigger = {"kind": "at-time", "time": at}
        release = at + draw(st.integers(0, 10))
        actions = [{"kind": "direct", "directive": {"kind": "insert-order", "order": {
            "id": draw(st.sampled_from(["N1", "O0"])), "routing": draw(routings),
            "release": release, "due": release + draw(st.integers(10, 90)),
            "priority": draw(st.integers(0, 5))}}}]
    elif kind == "cancel-order":
        if draw(st.booleans()):
            trigger = _on("order-released", k)
            target = "$event.order"
        else:
            trigger = {"kind": "at-time", "time": draw(st.integers(0, 40))}
            target = draw(st.sampled_from(book)).id
        actions = [{"kind": "direct",
                    "directive": {"kind": "cancel-order", "order_id": target}}]
    else:  # rework, at rest or in process
        trigger = draw(st.sampled_from([_on("op-finished", k, machine=m), started]))
        actions = [{"kind": "inject", "injection": {
            "kind": "product-reject", "order": "$event.order", "policy": "rework"}}]
    return {"id": kind, "trigger": trigger, "actions": actions,
            "max_occurrences": occurrences}


@st.composite
def oracle_sessions(draw):
    """A staggered, prioritised order book and a mix of disturbances."""
    book, release = [], 0
    for i in range(draw(st.integers(3, 10))):
        # Two orders at t=0 and small gaps keep the floor busy: a round with
        # nothing to do and nothing pending ends the run.
        release += draw(st.integers(0, 3)) if i > 1 else 0
        book.append(ProductOrder(
            id=f"O{i + 1}", routing=tuple(draw(routings)), release=release,
            due=release + draw(st.integers(15, 120)), priority=draw(st.integers(0, 3)),
        ))
    kinds = draw(st.lists(
        st.sampled_from(["breakdown", "supply-block", "set-priority", "insert-order",
                         "cancel-order", "rework"]),
        unique=True, min_size=2, max_size=6,
    ))
    rules = [draw(_disturbance(kind, book)) for kind in kinds]
    scenario = {"id": "oracle", "category": "dynamic-reconfiguration" if rules else None,
                "rules": rules}
    return book, scenario, draw(st.integers(0, 9))
