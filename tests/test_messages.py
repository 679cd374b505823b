"""Message dataclasses: validation and dict round-trips."""

import json
from dataclasses import MISSING, fields
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobench.canon import canon_dumps, doc_hash, fits, sha256_hex
from holobench.messages import (
    COMMAND_KINDS,
    DIRECTIVE_KINDS,
    DIRECTIVE_TARGETS,
    EVENT_KINDS,
    EVENT_SUBJECTS,
    INJECTION_KINDS,
    ControlCommand,
    ControlDirective,
    Injection,
    MessageError,
    Notice,
    SimEvent,
    Tap,
)
from strategies import MESSAGES


def test_canonical_json_is_stable():
    a = canon_dumps({"b": 1, "a": [2, {"y": None, "x": "ü"}]})
    b = canon_dumps({"a": [2, {"x": "ü", "y": None}], "b": 1})
    assert a == b
    assert " " not in a
    assert "ü" in a  # no ascii escaping
    assert doc_hash({"k": 1}) == sha256_hex(canon_dumps({"k": 1}).encode("utf-8"))


@pytest.mark.parametrize(
    "value, hint, ok",
    [
        (3, int, True),
        (True, int, False),
        (3, float, True),
        ("3", int, False),
        (None, int | None, True),
        (5, int | None, True),
        (False, int | None, False),
        ({"a": [1]}, dict[str, Any] | None, True),
        ({"a": 1}, dict[str, int], True),
        ({"a": True}, dict[str, int], False),
        ([], dict[str, Any] | None, False),
        (True, Any, True),
    ],
)
def test_fits_reads_resolved_field_types(value, hint, ok):
    assert fits(value, hint) is ok


def test_event_kinds_cover_lifecycle():
    assert "order-released" in EVENT_KINDS
    assert "order-completed" in EVENT_KINDS
    assert "machine-down" in EVENT_KINDS
    assert len(EVENT_KINDS) == 12


def test_event_rejects_unknown_kind():
    with pytest.raises(MessageError):
        SimEvent(time=0, seq=1, kind="teleport")


def test_event_rejects_negative_time():
    with pytest.raises(MessageError, match="time"):
        SimEvent(time=-1, seq=1, kind="op-started", machine="M1", order="O1")


@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_event_requires_the_subjects_its_kind_names_as_strings(kind):
    subjects = {name: "X" for name in EVENT_SUBJECTS[kind]}
    SimEvent(time=0, seq=1, kind=kind, **subjects)
    for name in subjects:
        for value in (None, 5, ["X"]):
            with pytest.raises(MessageError, match=f"{kind} event requires a string {name}"):
                SimEvent.check_body({"time": 0, "seq": 1, "kind": kind, **subjects, name: value})


def test_event_dict_round_trip_drops_empty_fields():
    ev = SimEvent(time=3, seq=7, kind="op-started", machine="M1", order="O1")
    d = ev.to_dict()
    assert "shuttle" not in d and "node" not in d
    assert SimEvent.from_dict(d) == ev


MESSAGE_CLASSES = (SimEvent, ControlCommand, ControlDirective, Injection, Notice, Tap)


def _default(f):
    return f.default if f.default_factory is MISSING else f.default_factory()


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_round_trip_property(cls, data):
    msg = data.draw(MESSAGES[cls])
    d = msg.to_dict()
    for f in fields(cls):
        value = getattr(msg, f.name)
        assert (f.name in d) == (value != _default(f)), f.name
        if f.name in d:
            assert d[f.name] == value
    assert cls.from_dict(d) == msg
    assert cls.from_dict(json.loads(canon_dumps(d))) == msg


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
def test_serializers_live_on_each_class(cls):
    # Wrappers that time the wire layer patch these attributes per class.
    assert callable(vars(cls)["to_dict"])
    assert isinstance(vars(cls)["from_dict"], classmethod)


def test_to_dict_leaves_out_exactly_the_defaults():
    ev = SimEvent(time=0, seq=0, kind="machine-up", machine="", info={})
    assert ev.to_dict() == {"time": 0, "seq": 0, "kind": "machine-up", "machine": ""}
    d = ControlDirective(kind="set-priority", order_id="O1", priority=0)
    assert d.to_dict() == {"kind": "set-priority", "order_id": "O1", "priority": 0}


def test_insert_order_with_empty_payload_keeps_order():
    d = ControlDirective(kind="insert-order", order={})
    assert d.to_dict() == {"kind": "insert-order", "order": {}}
    assert ControlDirective.from_dict(d.to_dict()) == d


def test_from_dict_ignores_unknown_keys():
    d = {"kind": "start-op", "machine": "M1", "priority": 3, "note": "x"}
    assert ControlCommand.from_dict(d) == ControlCommand(kind="start-op", machine="M1")


def test_dict_values_are_copied_both_ways():
    src = {"kind": "command-rejected", "time": 1, "reason": "r", "command": {"kind": "start-op"}}
    n = Notice.from_dict(src)
    src["command"]["kind"] = "changed"
    assert n.command == {"kind": "start-op"}
    n.to_dict()["command"]["kind"] = "changed"
    assert n.command == {"kind": "start-op"}
    ev = SimEvent(time=1, seq=1, kind="op-started", machine="M1", order="O1",
                  info={"operation": "A"})
    ev.to_dict()["info"]["operation"] = "B"
    assert ev.info == {"operation": "A"}


def test_command_round_trip():
    for kind in sorted(COMMAND_KINDS):
        cmd = ControlCommand(kind=kind)
        assert ControlCommand.from_dict(cmd.to_dict()) == cmd
    with pytest.raises(MessageError):
        ControlCommand(kind="fly")


def test_directive_round_trip():
    d = ControlDirective(kind="set-priority", order_id="O1", priority=5)
    assert ControlDirective.from_dict(d.to_dict()) == d
    assert sorted(DIRECTIVE_KINDS) == [
        "announce-breakdown",
        "announce-supply-block",
        "cancel-order",
        "insert-order",
        "set-priority",
    ]


def test_injection_validation():
    Injection(kind="machine-down", machine="M1", duration=5)
    with pytest.raises(MessageError):
        Injection(kind="machine-down", machine="M1", duration=0)
    with pytest.raises(MessageError):
        Injection(kind="machine-down", duration=5)  # no machine
    with pytest.raises(MessageError):
        Injection(kind="product-reject", policy="rework")  # no order
    with pytest.raises(MessageError):
        Injection(kind="product-reject", order="O1", policy="discard")
    assert len(INJECTION_KINDS) == 5


def test_notice_round_trip():
    n = Notice(time=4, kind="command-rejected", reason="machine M1 is down",
               command={"kind": "start-op", "machine": "M1"})
    assert Notice.from_dict(n.to_dict()) == n


def _corruptions(cls, body):
    """One-field corruptions of a valid body, as (body, must_refuse) pairs:
    a dropped required key, event subject or directive target, an unknown
    kind, a negative or boolean ``time`` or ``seq``, a number or list in a
    string field, a string, boolean or float in an integer field, all
    refused; or any JSON value put in any field, which the check may take
    only if ``from_dict`` builds from it."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    if cls is SimEvent:
        required += EVENT_SUBJECTS[body["kind"]]
    if cls is ControlDirective:
        required += DIRECTIVE_TARGETS[body["kind"]]
    counters = [name for name in ("time", "seq") if name in body]
    refused = [st.sampled_from(required).map(
        lambda name: {k: v for k, v in body.items() if k != name})]
    if cls in (SimEvent, ControlCommand, ControlDirective, Injection):  # closed kinds
        refused.append(st.just({**body, "kind": "teleport"}))
    if counters:
        refused.append(st.builds(lambda name, value: {**body, name: value},
                                 st.sampled_from(counters),
                                 st.integers(max_value=-1) | st.booleans()))
    strings = [f.name for f in fields(cls) if f.type in ("str", "str | None") and f.name != "kind"]
    refused.append(st.builds(lambda name, value: {**body, name: value},
                             st.sampled_from(strings),
                             st.integers() | st.booleans() | st.lists(st.text(max_size=2))))
    integers = [f.name for f in fields(cls) if f.type in ("int", "int | None")]
    if integers:
        refused.append(st.builds(lambda name, value: {**body, name: value},
                                 st.sampled_from(integers),
                                 st.text(max_size=3) | st.booleans() | st.floats()))
    values = (st.none() | st.booleans() | st.integers() | st.text(max_size=4)
              | st.lists(st.integers(), max_size=2)
              | st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))
    anything = st.builds(lambda name, value: {**body, name: value},
                         st.sampled_from([f.name for f in fields(cls)]), values)
    return st.one_of(*refused).map(lambda b: (b, True)) | anything.map(lambda b: (b, False))


@pytest.mark.parametrize("cls, name", [
    (cls, f.name) for cls in MESSAGE_CLASSES for f in fields(cls)
    if f.default is MISSING and f.default_factory is MISSING
], ids=lambda x: getattr(x, "__name__", x))
@settings(max_examples=10)
@given(data=st.data())
def test_a_field_without_a_default_refuses_null(cls, name, data):
    """Null is no value for a field that has no default: the body check and
    the constructor both refuse it."""
    body = {**data.draw(MESSAGES[cls]).to_dict(), name: None}
    with pytest.raises(MessageError):
        cls.check_body(body)
    with pytest.raises(MessageError):
        cls(**body)


@pytest.mark.parametrize("cls", MESSAGE_CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_body_check_passes_exactly_what_builds(cls, data):
    """Every ``to_dict()`` of a valid message passes ``check_body``, and
    ``copy_body`` gives an equal copy whose dict values are its own.  A
    corrupted body that passes must build with ``from_dict``; one that
    ``from_dict`` refuses is refused by the check too."""
    msg = data.draw(MESSAGES[cls])
    body = msg.to_dict()
    assert cls.check_body(body) is body
    copy = cls.copy_body(body)
    assert copy == body and cls.from_dict(copy) == msg
    assert all(copy[k] is not v for k, v in body.items() if type(v) is dict)
    corrupt, must_refuse = data.draw(_corruptions(cls, body))
    try:
        cls.check_body(corrupt)
    except MessageError:
        return
    assert not must_refuse, corrupt
    built = cls.from_dict(corrupt)
    assert cls.check_body(built.to_dict())
