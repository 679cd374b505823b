"""Shared message vocabulary: production events, commands, directives, injections.

These are the payloads that cross the interface layer between the emulation,
the control system, and the scenario manager.  Event kinds form a closed set;
every event carries the pair (time, seq) that totally orders the stream.
Each class gets its dict form from ``wire_message``, driven by its fields.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Any

# Closed vocabulary of production events emitted by the emulation.
EVENT_KINDS = frozenset(
    {
        "order-released",
        "shuttle-departed",
        "shuttle-arrived",
        "op-started",
        "op-finished",
        "machine-down",
        "machine-up",
        "product-rejected",
        "supply-blocked",
        "supply-restored",
        "order-completed",
        "order-cancelled",
    }
)

COMMAND_KINDS = frozenset(
    {"move-shuttle", "start-op", "release-order", "cancel-order", "end-of-round"}
)

DIRECTIVE_KINDS = frozenset(
    {
        "insert-order",
        "cancel-order",
        "set-priority",
        "announce-breakdown",
        "announce-supply-block",
    }
)

INJECTION_KINDS = frozenset(
    {"machine-down", "machine-up", "supply-shortage", "supply-restore", "product-reject"}
)

REJECT_POLICIES = frozenset({"rework", "scrap"})


class MessageError(ValueError):
    """Malformed or inconsistent message payload."""


def wire_message(cls):
    """Give a message dataclass its ``to_dict`` and ``from_dict``.

    ``to_dict`` leaves out every field whose value equals its default;
    ``from_dict`` ignores keys that name no field.  Dict values are copied
    both ways.  Both are set on the class itself, ``from_dict`` as a
    classmethod.
    """
    spec = tuple(
        (f.name, f.default if f.default_factory is MISSING else f.default_factory())
        for f in fields(cls)
    )
    names = frozenset(name for name, _ in spec)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {}
        for name, default in spec:
            value = getattr(self, name)
            # the identity test settles the common case, a field left at None
            if value is not default and value != default:
                d[name] = dict(value) if type(value) is dict else value
        return d

    def from_dict(cls, d: dict[str, Any]):
        kwargs: dict[str, Any] = {}
        for name, value in d.items():
            if name in names:
                kwargs[name] = dict(value) if type(value) is dict else value
        return cls(**kwargs)

    cls.to_dict = to_dict
    cls.from_dict = classmethod(from_dict)
    return cls


@wire_message
@dataclass(frozen=True)
class SimEvent:
    """One timestamped production event.

    (time, seq) strictly increases across a run's stream; seq has no gaps.
    Subject fields are filled as applicable for the kind; ``node`` is the
    transport-graph location for shuttle and release events.
    """

    time: int
    seq: int
    kind: str
    machine: str | None = None
    shuttle: str | None = None
    order: str | None = None
    node: str | None = None
    info: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise MessageError(f"unknown event kind {self.kind!r}")
        if self.time < 0 or self.seq < 0:
            raise MessageError("time and seq must be non-negative")


class EventBatch(list):
    """One kernel batch: a list of ``SimEvent``s with their wire bodies.

    ``bodies[i]`` is the dict form of ``self[i]``, equal to its ``to_dict()``
    and sharing no mutable dict with it, so the batch goes on the wire
    without a second conversion.  As a list, a batch compares, iterates and
    measures like its events alone.
    """

    __slots__ = ("bodies",)

    def __init__(self, events: list[SimEvent], bodies: list[dict[str, Any]]):
        super().__init__(events)
        self.bodies = bodies


@wire_message
@dataclass(frozen=True)
class ControlCommand:
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

    def __post_init__(self) -> None:
        if self.kind not in COMMAND_KINDS:
            raise MessageError(f"unknown command kind {self.kind!r}")


@wire_message
@dataclass(frozen=True)
class ControlDirective:
    """A scenario-manager instruction to the control system."""

    kind: str
    order: dict[str, Any] | None = None  # insert-order payload
    order_id: str | None = None
    priority: int | None = None
    machine: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in DIRECTIVE_KINDS:
            raise MessageError(f"unknown directive kind {self.kind!r}")


@wire_message
@dataclass(frozen=True)
class Injection:
    """A disturbance applied directly to the emulation."""

    kind: str
    machine: str | None = None
    order: str | None = None
    duration: int | None = None
    policy: str | None = None  # product-reject: rework | scrap

    def __post_init__(self) -> None:
        if self.kind not in INJECTION_KINDS:
            raise MessageError(f"unknown injection kind {self.kind!r}")
        if self.duration is not None and self.duration <= 0:
            raise MessageError("injection duration must be > 0")
        if self.kind == "product-reject":
            if self.policy not in REJECT_POLICIES:
                raise MessageError(f"product-reject policy must be one of {sorted(REJECT_POLICIES)}")
            if self.order is None:
                raise MessageError("product-reject requires an order target")
        elif self.machine is None:
            raise MessageError(f"{self.kind} requires a machine target")


@wire_message
@dataclass(frozen=True)
class Notice:
    """Emulation-side notification outside the production event stream.

    Covers rejected commands and ignored injections; delivered with the next
    event batch so the control can clear stale claims.
    """

    time: int
    kind: str  # command-rejected | injection-ignored
    reason: str
    command: dict[str, Any] | None = None
    injection: dict[str, Any] | None = None
