"""Shared message vocabulary: production events, commands, directives, injections.

These are the payloads that cross the interface layer between the emulation,
the control system, and the scenario manager.  Event kinds form a closed set;
every event carries the pair (time, seq) that totally orders the stream.
Each class gets its dict form and that form's check from ``wire_message``,
driven by its fields and their dict, string and integer types.  The classes
are the one schema of the wire bodies, taps included, and of the scenario's
action payloads: on the live path events, commands and taps cross as their
dict forms, and only the rare directives, injections and notices are built
as objects.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Callable

# Closed vocabulary of production events, each with the subject fields its
# kind names; an event must hold each of them as a string.
EVENT_SUBJECTS = {
    "order-released": ("order",),
    "order-completed": ("order",),
    "order-cancelled": ("order",),
    "product-rejected": ("order",),
    "shuttle-departed": ("shuttle",),
    "shuttle-arrived": ("shuttle",),
    "machine-down": ("machine",),
    "machine-up": ("machine",),
    "supply-blocked": ("machine",),
    "supply-restored": ("machine",),
    "op-started": ("machine", "order"),
    "op-finished": ("machine", "order"),
}
EVENT_KINDS = frozenset(EVENT_SUBJECTS)

# The subject fields each event kind may carry, as the kernel builds it.  A
# shuttle event names the order its shuttle carries, if any; a rejected
# product names its machine and node while in process, its shuttle while in
# transit, and its node while it rests.
EVENT_FIELDS = {
    "order-released": ("order", "node"),
    "order-completed": ("order", "node"),
    "order-cancelled": ("order", "node"),
    "product-rejected": ("machine", "shuttle", "order", "node"),
    "shuttle-departed": ("shuttle", "order", "node"),
    "shuttle-arrived": ("shuttle", "order", "node"),
    "machine-down": ("machine", "node"),
    "machine-up": ("machine", "node"),
    "supply-blocked": ("machine", "node"),
    "supply-restored": ("machine", "node"),
    "op-started": ("machine", "order", "node"),
    "op-finished": ("machine", "order", "node"),
}

COMMAND_KINDS = frozenset({"move-shuttle", "start-op", "release-order", "cancel-order"})

# Closed vocabulary of control directives, each with the target fields its
# kind acts on; a directive must set each of them.
DIRECTIVE_TARGETS = {
    "insert-order": ("order",),
    "cancel-order": ("order_id",),
    "set-priority": ("order_id", "priority"),
    "announce-breakdown": ("machine",),
    "announce-supply-block": ("machine",),
}
DIRECTIVE_KINDS = frozenset(DIRECTIVE_TARGETS)

INJECTION_KINDS = frozenset(
    {"machine-down", "machine-up", "supply-shortage", "supply-restore", "product-reject"}
)

REJECT_POLICIES = frozenset({"rework", "scrap"})


class MessageError(ValueError):
    """Malformed or inconsistent message payload."""


# The field types ``check_body`` checks, by the name an annotation starts
# with, each with what errors call it.
_TYPES = {"dict": (dict, "an object"), "str": (str, "a string"), "int": (int, "an integer")}


def wire_message(label: str, kinds: frozenset[str] | None = None,
                 rule: Callable[[dict[str, Any]], None] | None = None):
    """Give a message dataclass its ``to_dict``, ``from_dict``, ``check_body``
    and ``copy_body``, read from its fields once; ``label`` names it in errors.

    ``to_dict`` leaves out every field equal to its default; ``from_dict``
    ignores keys that name no field; both copy dict values.  ``check_body``
    returns a body that holds every field without a default, none of them
    null, a ``kind`` in ``kinds`` (if given; the body's ``kind`` is read only
    then) and non-negative integers as ``time`` and ``seq``, passes ``rule``,
    and then holds None or a value of the field's type in each other dict,
    string and integer field (``true`` is not an integer).
    Building a message checks its fields so too, so a body passes exactly
    when ``from_dict`` builds from it; ``from_dict`` checks it once, through
    ``copy_body``, and sets the fields without building through the
    constructor, which would check it again.
    ``copy_body`` copies a checked body as ``from_dict`` takes it.
    """

    def wrap(cls):
        spec = tuple(
            (f.name, f.default if f.default_factory is MISSING else f.default_factory())
            for f in fields(cls)
        )
        names = frozenset(name for name, _ in spec)
        factories = {f.name: f.default_factory for f in fields(cls)
                     if f.default_factory is not MISSING}
        counters = tuple(name for name in ("time", "seq") if name in names)
        # the counters, and a kind checked against ``kinds``, have checks of their own
        own = {*counters, *(("kind",) if kinds is not None else ())}
        # the other fields without a default, and (name, type, what errors
        # call it) of each other field checked by type; annotations are
        # strings here (``from __future__ import annotations``)
        required = tuple(f.name for f in fields(cls)
                         if f.default is f.default_factory is MISSING and f.name not in own)
        typed = [(f.name, *_TYPES[prefix]) for f in fields(cls) for prefix in _TYPES
                 if f.type.startswith(prefix) and f.name not in own]
        objects = [name for name, want, _ in typed if want is dict]

        def to_dict(self) -> dict[str, Any]:
            d: dict[str, Any] = {}
            for name, default in spec:
                value = getattr(self, name)
                # the identity test settles the common case, a field left at None
                if value is not default and value != default:
                    d[name] = dict(value) if type(value) is dict else value
            return d

        def from_dict(cls, d: dict[str, Any]):
            body = {**{name: make() for name, make in factories.items()}, **copy_body(d)}
            msg = object.__new__(cls)
            for name, default in spec:
                object.__setattr__(msg, name, body.get(name, default))
            return msg

        def check_body(body: Any) -> dict[str, Any]:
            if type(body) is not dict:
                raise MessageError(f"{label} body must be an object")
            try:
                if kinds is not None and (type(kind := body["kind"]) is not str
                                          or kind not in kinds):
                    raise MessageError(f"unknown {label} kind {kind!r}")
                for name in counters:
                    value = body[name]
                    if type(value) is not int or value < 0:
                        raise MessageError(f"{label} {name} must be a non-negative integer")
                for name in required:
                    if body[name] is None:
                        raise MessageError(f"{label} {name} must not be null")
            except KeyError as exc:
                raise MessageError(f"{label} body lacks {exc.args[0]!r}") from None
            if rule is not None:
                rule(body)
            for name, want, noun in typed:
                value = body.get(name)
                if value is not None and type(value) is not want:
                    raise MessageError(f"{label} {name} must be {noun}")
            return body

        def copy_body(body: Any) -> dict[str, Any]:
            copy = dict(check_body(body))
            for name in objects:
                if copy.get(name) is not None:
                    copy[name] = dict(copy[name])
            return copy

        cls.to_dict = to_dict
        cls.from_dict = classmethod(from_dict)
        cls.check_body = staticmethod(check_body)
        cls.copy_body = staticmethod(copy_body)
        return cls

    return wrap


class _Message:
    """Base of the wire messages: building one checks its fields as a body."""

    def __post_init__(self) -> None:
        self.check_body(vars(self))


def _event_rule(body: dict[str, Any]) -> None:
    """Each subject field the event's kind names is a string."""
    for name in EVENT_SUBJECTS[body["kind"]]:
        if type(body.get(name)) is not str:
            raise MessageError(f"{body['kind']} event requires a string {name}")


@wire_message("event", EVENT_KINDS, _event_rule)
@dataclass(frozen=True)
class SimEvent(_Message):
    """One timestamped production event.

    (time, seq) strictly increases across a run's stream; seq has no gaps.
    The subject fields its kind names in ``EVENT_SUBJECTS`` are strings; the
    others are filled as applicable.  ``node`` is the transport-graph
    location for shuttle and release events.
    """

    time: int
    seq: int
    kind: str
    machine: str | None = None
    shuttle: str | None = None
    order: str | None = None
    node: str | None = None
    info: dict[str, Any] = field(default_factory=dict)


@wire_message("command", COMMAND_KINDS)
@dataclass(frozen=True)
class ControlCommand(_Message):
    """A control decision sent to the emulation.

    move-shuttle may name a ``carry`` order to load at the shuttle's current
    node before departing; start-op names the ``operation`` kind because the
    emulation holds no routing data.  release-order materializes an order at
    the input station; cancel-order removes a product resting at a node.
    """

    kind: str
    shuttle: str | None = None
    destination: str | None = None
    carry: str | None = None
    machine: str | None = None
    order: str | None = None
    operation: str | None = None


def _directive_rule(body: dict[str, Any]) -> None:
    """Each target field the directive's kind names is set."""
    for name in DIRECTIVE_TARGETS[body["kind"]]:
        if body.get(name) is None:
            raise MessageError(f"{body['kind']} directive requires {name}")


@wire_message("directive", DIRECTIVE_KINDS, _directive_rule)
@dataclass(frozen=True)
class ControlDirective(_Message):
    """A scenario-manager instruction to the control system; the target
    fields its kind names in ``DIRECTIVE_TARGETS`` are set."""

    kind: str
    order: dict[str, Any] | None = None  # insert-order payload
    order_id: str | None = None
    priority: int | None = None
    machine: str | None = None


def _injection_rule(body: dict[str, Any]) -> None:
    """A positive duration; a product-reject's order and policy, else a machine."""
    duration = body.get("duration")
    if type(duration) is int and duration <= 0:  # the type pass refuses a non-integer
        raise MessageError("injection duration must be > 0")
    if body["kind"] == "product-reject":
        policy = body.get("policy")
        if type(policy) is not str or policy not in REJECT_POLICIES:
            raise MessageError(f"product-reject policy must be one of {sorted(REJECT_POLICIES)}")
        if body.get("order") is None:
            raise MessageError("product-reject requires an order target")
    elif body.get("machine") is None:
        raise MessageError(f"{body['kind']} requires a machine target")


@wire_message("injection", INJECTION_KINDS, _injection_rule)
@dataclass(frozen=True)
class Injection(_Message):
    """A disturbance applied directly to the emulation."""

    kind: str
    machine: str | None = None
    order: str | None = None
    duration: int | None = None
    policy: str | None = None  # product-reject: rework | scrap


@wire_message("notice")
@dataclass(frozen=True)
class Notice(_Message):
    """Emulation-side notification outside the production event stream.

    Covers rejected commands and ignored injections; delivered with the next
    event batch so the control can clear stale claims.
    """

    time: int
    kind: str  # command-rejected | injection-ignored
    reason: str
    command: dict[str, Any] | None = None
    injection: dict[str, Any] | None = None


@wire_message("tap")
@dataclass(frozen=True)
class Tap(_Message):
    """One entry of a tapped stream, such as a control counter on FLOW7."""

    flow: str
    name: str
    value: int
    i: int
