"""Message dataclasses: validation and dict round-trips."""

import json
from dataclasses import MISSING, fields
from typing import Any

import pytest
from hypothesis import given
from hypothesis import strategies as st

from holobench.canon import canon_dumps, doc_hash, fits, sha256_hex
from holobench.messages import (
    COMMAND_KINDS,
    DIRECTIVE_KINDS,
    EVENT_KINDS,
    INJECTION_KINDS,
    REJECT_POLICIES,
    ControlCommand,
    ControlDirective,
    Injection,
    MessageError,
    Notice,
    SimEvent,
)


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
    with pytest.raises(MessageError):
        SimEvent(time=-1, seq=1, kind="op-started")


def test_event_dict_round_trip_drops_empty_fields():
    ev = SimEvent(time=3, seq=7, kind="op-started", machine="M1", order="O1")
    d = ev.to_dict()
    assert "shuttle" not in d and "node" not in d
    assert SimEvent.from_dict(d) == ev


MESSAGE_CLASSES = (SimEvent, ControlCommand, ControlDirective, Injection, Notice)

_id = st.none() | st.text(min_size=1, max_size=8)
_payload = st.dictionaries(st.text(max_size=6), st.integers() | st.text(max_size=6), max_size=3)

MESSAGES = {
    SimEvent: st.builds(
        SimEvent,
        time=st.integers(min_value=0, max_value=10**9),
        seq=st.integers(min_value=0, max_value=10**9),
        kind=st.sampled_from(sorted(EVENT_KINDS)),
        machine=_id, shuttle=_id, order=_id, node=_id, info=_payload,
    ),
    ControlCommand: st.builds(
        ControlCommand,
        kind=st.sampled_from(sorted(COMMAND_KINDS)),
        shuttle=_id, destination=_id, carry=_id, machine=_id, order=_id, operation=_id,
    ),
    ControlDirective: st.builds(
        ControlDirective,
        kind=st.sampled_from(sorted(DIRECTIVE_KINDS)),
        order=st.none() | _payload, order_id=_id, priority=st.none() | st.integers(),
        machine=_id,
    ),
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
}


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
    ev = SimEvent(time=1, seq=1, kind="op-started", info={"operation": "A"})
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
