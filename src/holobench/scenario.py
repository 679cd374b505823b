"""Event-triggered scenario manager and disturbance category registry.

A scenario is a declarative JSON document: named, categorized, with rules
that bind triggers to actions.  Triggers fire on simulation time (at-time),
on matching production events (on-event, with a field filter and an
occurrence threshold), or a fixed delay after another trigger (after,
nesting at most two deep; the parser flattens a chain into its primitive
trigger and the summed delay).  Actions either inject a disturbance into the
emulation or direct the control system.

An action payload is the dict form of its message class, where any value
may be a placeholder: ``{"sample": name}`` draws from a distribution and
``"$event.<field>"`` reads the triggering event.  At load, each payload is
resolved with stand-ins and checked by its class's ``check_body``, which
passes exactly the bodies the class builds from, and its targets are
checked, so whatever loads also fires.  A sample stands in as its
least draw; an event stands in per trigger as the fields its kind may carry
(``EVENT_FIELDS``), each its own reference, and time 0, so a reference to a
field the kind never carries is refused, as is one in an inserted order's
routing, since no event field names an operation.  A firing whose
``$event.`` field is empty on its event (one its kind carries only
sometimes) is skipped, and the rule stays armed.

All randomness is drawn from named distributions, each seeded from
(run seed, scenario id, stream label), so streams are independent of one
another and reproducible per run.  The sampling algorithms below use only
integer bits from random.Random, keeping values stable across platforms.

The scenario manager sits beside the wire: it watches event batches, never
blocks them, and cannot touch the shop model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .canon import decode_document, is_int, read_document
from .control import OrderBookError, ProductOrder
from .messages import EVENT_FIELDS, EVENT_KINDS, ControlDirective, Injection, MessageError

CATEGORIES = ("dynamic-reconfiguration", "order-management", "quality", "supply")

# The packaged registry, found once, next to this module; its sha256 as
# shipped is checked at load time.
REGISTRY_PATH = os.path.join(os.path.dirname(__file__), "data", "registry.json")
REGISTRY_SHA256 = "7a2aa8496292085cec0b65fcc52a6f1b999af7dd9f074dc362380dd1dcb528da"

TRIGGER_KINDS = ("at-time", "on-event", "after")
DISTRIBUTION_KINDS = ("constant", "uniform-int", "exponential-int")

# Per action kind: the key of its payload, the message class it builds, the
# keys an action may hold and the keys its payload may hold.
_ACTIONS = {
    kind: (key, cls, frozenset({"kind", key}), frozenset(cls.__dataclass_fields__))
    for kind, key, cls in (("inject", "injection", Injection),
                           ("direct", "directive", ControlDirective))
}

SCENARIO_KEYS = frozenset({"id", "category", "description", "rules", "distributions"})
_RULE_KEYS = frozenset({"id", "trigger", "actions", "max_occurrences"})
_TRIGGER_KEYS = {
    "at-time": frozenset({"kind", "time"}),
    "on-event": frozenset({"kind", "event", "where", "occurrence"}),
    "after": frozenset({"kind", "base", "delay"}),
}

MAX_AFTER_NESTING = 2


class ScenarioError(ValueError):
    """Invalid scenario document; message names the offending field."""


class RegistryError(ValueError):
    """Unknown disturbance label or damaged registry data."""


def _only_keys(doc: dict[str, Any], keys: frozenset[str], path: str) -> None:
    extra = doc.keys() - keys
    if extra:
        raise ScenarioError(f"{path} has unknown keys: {sorted(extra)}")


def _build(cls, **fields: Any) -> Any:
    """A frozen ``cls`` with every field set from values already checked,
    without the dataclass constructor, which would only set them again,
    one call each (as ``ProductOrder.from_dict`` builds an order)."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


# -- category registry -----------------------------------------------------------


def _normalize_label(label: str) -> str:
    return " ".join(label.lstrip("#").split()).casefold()


@dataclass(frozen=True)
class CategoryRegistry:
    """Maps disturbance labels from the benchmarking literature to categories."""

    labels: dict[str, str]
    sha256: str
    _lookup: dict[str, str] = field(repr=False, default_factory=dict)

    @classmethod
    def load(cls) -> "CategoryRegistry":
        with open(REGISTRY_PATH, "rb") as f:
            raw = f.read()
        digest = hashlib.sha256(raw).hexdigest()
        if digest != REGISTRY_SHA256:
            raise RegistryError(
                f"registry.json hash {digest} does not match the recorded {REGISTRY_SHA256}"
            )
        doc = json.loads(decode_document(raw, REGISTRY_PATH, RegistryError))
        labels = doc["labels"]
        for label, category in labels.items():
            if category not in CATEGORIES:
                raise RegistryError(f"label {label!r} maps to unknown category {category!r}")
        lookup = {_normalize_label(label): cat for label, cat in labels.items()}
        if len(lookup) != len(labels):
            raise RegistryError("labels collide after normalization")
        return cls(labels=dict(labels), sha256=digest, _lookup=lookup)

    def classify(self, label: str) -> str:
        key = _normalize_label(label)
        if key not in self._lookup:
            raise RegistryError(f"unknown disturbance label {label!r}")
        return self._lookup[key]


# -- distributions ----------------------------------------------------------------


def stream_rng(run_seed: int, scenario_id: str, label: str) -> random.Random:
    """Independent, reproducible RNG for one named stream of one run."""
    digest = hashlib.sha256(f"{run_seed}:{scenario_id}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _uniform_int(rng: random.Random, low: int, high: int) -> int:
    # Rejection sampling over getrandbits: unbiased and platform-stable.
    span = high - low
    if span == 0:
        return low
    bits = span.bit_length()
    while True:
        value = rng.getrandbits(bits)
        if value <= span:
            return low + value


def _exponential_int(rng: random.Random, mean: int) -> int:
    u = rng.getrandbits(53) / (1 << 53)
    return int(math.floor(-mean * math.log(1.0 - u))) + 1


@dataclass(frozen=True)
class Distribution:
    kind: str
    params: dict[str, int]

    @classmethod
    def from_doc(cls, name: str, doc: Any) -> "Distribution":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ScenarioError(f"distributions.{name} must be an object with a kind")
        kind = doc["kind"]
        if kind not in DISTRIBUTION_KINDS:
            raise ScenarioError(f"distributions.{name}.kind {kind!r} is not supported")
        params = {k: v for k, v in doc.items() if k != "kind"}
        if kind == "constant":
            if set(params) != {"value"} or not is_int(params["value"]):
                raise ScenarioError(f"distributions.{name} needs an integer value")
        elif kind == "uniform-int":
            if set(params) != {"low", "high"}:
                raise ScenarioError(f"distributions.{name} needs low and high")
            if not all(is_int(params[k]) for k in ("low", "high")):
                raise ScenarioError(f"distributions.{name}: low and high must be integers")
            if params["low"] > params["high"]:
                raise ScenarioError(f"distributions.{name}: low exceeds high")
        else:
            if set(params) != {"mean"} or not is_int(params["mean"]) or params["mean"] <= 0:
                raise ScenarioError(f"distributions.{name} needs a positive integer mean")
        return cls(kind=kind, params=params)

    def sample(self, rng: random.Random) -> int:
        if self.kind == "constant":
            return self.params["value"]
        if self.kind == "uniform-int":
            return _uniform_int(rng, self.params["low"], self.params["high"])
        return _exponential_int(rng, self.params["mean"])

    def least(self) -> int:
        """The smallest value ``sample`` can return: the constant, the
        uniform low, or 1 for an exponential."""
        return self.params.get("value", self.params.get("low", 1))


# -- triggers and rules --------------------------------------------------------------


@dataclass(frozen=True)
class Trigger:
    """A primitive trigger: at-time or on-event."""

    kind: str
    time: int | None = None  # at-time
    event: str | None = None  # on-event
    where: dict[str, Any] = field(default_factory=dict)
    occurrence: int = 1

    @classmethod
    def from_doc(cls, doc: Any, path: str, depth: int = 0, model=None) -> tuple["Trigger", int]:
        """The primitive trigger and the summed delay of the after-chain
        above it (0 without one).  A ``where`` field must be one the event
        kind carries (``EVENT_FIELDS``).  With a model, each ``where``
        machine, shuttle and node must be a part of it; orders may be
        inserted mid-run, so a ``where`` order is only checked to be a
        string here, and against the book and the inserts by
        ``load_scenario_doc``."""
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ScenarioError(f"{path} must be an object with a kind")
        kind = doc["kind"]
        if kind not in TRIGGER_KINDS:
            raise ScenarioError(f"{path}.kind {kind!r} is not a trigger kind")
        if kind == "at-time":
            t = doc.get("time")
            if not is_int(t) or t < 0:
                raise ScenarioError(f"{path}.time must be a non-negative integer")
            _only_keys(doc, _TRIGGER_KEYS[kind], path)
            return _build(cls, kind=kind, time=t, event=None, where={}, occurrence=1), 0
        if kind == "on-event":
            event = doc.get("event")
            if not isinstance(event, str) or event not in EVENT_KINDS:
                raise ScenarioError(f"{path}.event {event!r} is not a production event kind")
            where = doc.get("where", {})
            if not isinstance(where, dict):
                raise ScenarioError(f"{path}.where must be an object")
            for fld, value in where.items():
                if fld not in ("machine", "shuttle", "order", "node"):
                    raise ScenarioError(f"{path}.where.{fld} is not a filterable field")
                if fld not in EVENT_FIELDS[event]:
                    raise ScenarioError(f"{path}.where.{fld}: {event} events carry no {fld}")
                if not isinstance(value, str):
                    raise ScenarioError(f"{path}.where.{fld} must be a string")
                # the model's machines, shuttles or nodes
                if model is not None and fld != "order" and value not in getattr(model, fld + "s"):
                    raise ScenarioError(f"{path}.where.{fld} {value!r} is not in the model")
            occurrence = doc.get("occurrence", 1)
            if not is_int(occurrence) or occurrence < 1:
                raise ScenarioError(f"{path}.occurrence must be a positive integer")
            _only_keys(doc, _TRIGGER_KEYS[kind], path)
            return _build(cls, kind=kind, time=None, event=event, where=dict(where),
                          occurrence=occurrence), 0
        # after
        if depth + 1 > MAX_AFTER_NESTING:
            raise ScenarioError(f"{path}: after-triggers nest at most {MAX_AFTER_NESTING} deep")
        delay = doc.get("delay")
        if not is_int(delay) or delay < 0:
            raise ScenarioError(f"{path}.delay must be a non-negative integer")
        if "base" not in doc:
            raise ScenarioError(f"{path}.base is required")
        _only_keys(doc, _TRIGGER_KEYS[kind], path)
        base, below = cls.from_doc(doc["base"], f"{path}.base", depth + 1, model)
        return base, delay + below


@dataclass(frozen=True)
class Action:
    kind: str  # a key of _ACTIONS
    payload: dict[str, Any]

    @classmethod
    def from_doc(cls, doc: Any, path: str) -> "Action":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ScenarioError(f"{path} must be an object with a kind")
        kind = doc["kind"]
        if not isinstance(kind, str) or kind not in _ACTIONS:
            raise ScenarioError(f"{path}.kind {kind!r} is not an action kind")
        key, _, keys, _ = _ACTIONS[kind]
        payload = doc.get(key)
        if not isinstance(payload, dict):
            raise ScenarioError(f"{path}.{key} must be an object")
        _only_keys(doc, keys, path)
        return _build(cls, kind=kind, payload=payload)


@dataclass(frozen=True)
class Rule:
    id: str
    trigger: Trigger
    actions: tuple[Action, ...]
    max_occurrences: int = 1
    delay: int = 0  # summed after-delay between the trigger and the firing


@dataclass(frozen=True)
class Scenario:
    id: str
    category: str | None
    description: str
    rules: tuple[Rule, ...]
    distributions: dict[str, Distribution]


class _Unbound(Exception):
    """A ``$event.`` reference names a field that is empty on the event, or
    at load one its trigger's event kind never carries."""


# Per event kind, the event that ``$event.`` references resolve against at
# load: time 0 and each field the kind may carry as its own reference, which
# target checks pass over.  ``_resolve`` only reads it.
_STAND_INS = {
    kind: {"time": 0, **{f: f"$event.{f}" for f in carried}}
    for kind, carried in EVENT_FIELDS.items()
}


def _resolve(value: Any, sample: Callable[[Any], int], event: dict[str, Any] | None) -> Any:
    """A payload value with each ``{"sample": name}`` replaced by
    ``sample(name)`` and each ``"$event.<field>"`` by that field of
    ``event``, an event body, walked depth first in key order."""
    if isinstance(value, dict):
        if set(value) == {"sample"}:
            return sample(value["sample"])
        return {k: _resolve(v, sample, event) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolve(v, sample, event) for v in value]
    if isinstance(value, str) and value.startswith("$event."):
        if event is None:
            raise ScenarioError(f"{value!r} needs an on-event trigger")
        resolved = event.get(value[len("$event.") :])
        if resolved is None:
            raise _Unbound(f"{value!r} names no field the event carries")
        return resolved
    return value


def load_scenario(text: str, model=None, orders=None) -> Scenario:
    """Parse and validate a scenario document from JSON text.

    With a model, injection and directive targets are checked against it.
    With an order book, every literal order reference (a ``where`` order, a
    directive's ``order_id``, a product-reject's ``order``) must name a book
    order or one a rule inserts, a later rule's included.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario document is not valid JSON: {exc}") from exc
    return load_scenario_doc(doc, model=model, orders=orders)


def load_scenario_doc(doc: Any, model=None, orders=None) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    # A scenario must not smuggle in model changes or other payloads.
    _only_keys(doc, SCENARIO_KEYS, "scenario")
    sid = doc.get("id")
    if not isinstance(sid, str) or not sid:
        raise ScenarioError("scenario id must be a non-empty string")
    rules_doc = doc.get("rules")
    if not isinstance(rules_doc, list):
        raise ScenarioError("scenario rules must be a list")
    category = doc.get("category")
    if category is None:
        if rules_doc:
            raise ScenarioError("scenario category is required when rules are present")
    elif category not in CATEGORIES:
        raise ScenarioError(f"scenario category {category!r} is not one of {list(CATEGORIES)}")
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise ScenarioError("scenario description must be a string")

    dists: dict[str, Distribution] = {}
    dists_doc = doc.get("distributions", {})
    if not isinstance(dists_doc, dict):
        raise ScenarioError("scenario distributions must be an object")
    for name, d in dists_doc.items():
        dists[name] = Distribution.from_doc(name, d)

    def least(name: Any) -> int:
        if not isinstance(name, str) or name not in dists:
            raise ScenarioError(f"samples unknown distribution {name!r}")
        return dists[name].least()

    rules: list[Rule] = []
    inserted: dict[str, str] = {}  # literal insert-order id -> the path inserting it
    refs: list[tuple[str, str]] = []  # (path, id) of each literal order reference
    book = None if orders is None else {o.id for o in orders}
    for i, rd in enumerate(rules_doc):
        path = f"rules[{i}]"
        if not isinstance(rd, dict):
            raise ScenarioError(f"{path} must be an object")
        _only_keys(rd, _RULE_KEYS, path)
        rule_id = rd.get("id", f"rule{i}")
        if not isinstance(rule_id, str) or not rule_id:
            raise ScenarioError(f"{path}.id must be a non-empty string")
        trigger, delay = Trigger.from_doc(rd.get("trigger"), f"{path}.trigger", model=model)
        if "order" in trigger.where:  # a filter compares literally, "$event." or not
            refs.append((f"{path}.trigger: where.order", trigger.where["order"]))
        actions_doc = rd.get("actions")
        if not isinstance(actions_doc, list) or not actions_doc:
            raise ScenarioError(f"{path}.actions must be a non-empty list")
        actions = tuple(
            Action.from_doc(ad, f"{path}.actions[{j}]") for j, ad in enumerate(actions_doc)
        )
        max_occ = rd.get("max_occurrences", 1)
        if not is_int(max_occ) or max_occ < 1:
            raise ScenarioError(f"{path}.max_occurrences must be a positive integer")
        event = _STAND_INS[trigger.event] if trigger.kind == "on-event" else None
        for j, a in enumerate(actions):
            payload = _check_action(a, f"{path}.actions[{j}]", least, event, model, book)
            kind = payload["kind"]
            ref = "order" if kind == "product-reject" else "order_id"
            if _literal(payload.get(ref)):
                refs.append((f"{path}.actions[{j}].{_ACTIONS[a.kind][0]}.{ref}", payload[ref]))
            if kind != "insert-order" or not _literal(payload["order"]["id"]):
                continue
            # The control drops an insert whose id it already holds, so a
            # literal id inserted twice would lose every firing after the
            # first.  An at-time rule fires once, whatever its max_occurrences.
            oid, where = payload["order"]["id"], f"{path}.actions[{j}].directive.order"
            if trigger.kind == "on-event" and max_occ > 1:
                raise ScenarioError(
                    f"{where}: id {oid!r} is inserted by a rule that fires up to {max_occ} times"
                )
            if oid in inserted:
                raise ScenarioError(f"{where}: id {oid!r} is inserted by {inserted[oid]} too")
            inserted[oid] = where
        rules.append(_build(Rule, id=rule_id, trigger=trigger, actions=actions,
                            max_occurrences=max_occ, delay=delay))
    rule_ids = [r.id for r in rules]
    if len(set(rule_ids)) != len(rule_ids):
        raise ScenarioError("rule ids must be unique")
    if book is not None:  # a reference may name what a later rule inserts
        for where, oid in refs:
            if oid not in book and oid not in inserted:
                raise ScenarioError(f"{where} {oid!r} is neither in the order book "
                                    "nor inserted by a rule")
    return Scenario(sid, category, description, tuple(rules), dists)


def _check_action(action: Action, path: str, least: Callable[[Any], int],
                  event: dict[str, Any] | None, model, book: set[str] | None) -> dict[str, Any]:
    """Check the action's payload, every placeholder stood in, with its
    message class's ``check_body``, which passes exactly the bodies the class
    builds from, then check its literal targets against the model and an
    inserted order's id against the book (``$event.`` references pass,
    except as an inserted order's routing step); returns the stood-in
    payload.  The caller checks order references once every rule is read."""
    key, cls, _, keys = _ACTIONS[action.kind]
    path = f"{path}.{key}"
    _only_keys(action.payload, keys, path)
    try:
        payload = {k: _resolve(v, least, event) for k, v in action.payload.items()}
        cls.check_body(payload)
    except (ScenarioError, _Unbound, MessageError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    machine = payload.get("machine")
    if model is not None and _literal(machine) and machine not in model.machines:
        raise ScenarioError(f"{path}.machine {machine!r} is not in the model")
    if payload["kind"] == "insert-order":
        # The control builds the order as the book loader does, and drops
        # one it refuses or whose id it already holds.
        try:
            spec = ProductOrder.from_dict(payload["order"])
        except OrderBookError as exc:
            raise ScenarioError(f"{path}.order: {exc}") from None
        for op in spec.routing:
            # an event names machines, shuttles, orders and nodes, never an
            # operation, so the control would drop the insert for its routing
            if not _literal(op):
                raise ScenarioError(f"{path}.order: routing step {op!r} reads the "
                                    "triggering event, which names no operation")
            if model is not None and not any(op in m.operations
                                             for m in model.machines.values()):
                raise ScenarioError(f"{path}.order: no machine performs {op!r}")
        if book is not None and _literal(spec.id) and spec.id in book:
            raise ScenarioError(f"{path}.order: id {spec.id!r} is already in the order book")
    return payload


def _literal(value: Any) -> bool:
    return isinstance(value, str) and not value.startswith("$event.")


def load_scenario_file(path: str, model=None, orders=None) -> Scenario:
    """``load_scenario`` on the document file at ``path``.  A refusal names
    the file, since a suite loads several scenarios through here."""
    text = read_document(path, ScenarioError)
    try:
        return load_scenario(text, model=model, orders=orders)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# -- runtime -----------------------------------------------------------------------


@dataclass
class Firing:
    """One resolved rule firing, ready to apply."""

    rule_id: str
    injections: list[Injection]
    directives: list[ControlDirective]


class ScenarioManager:
    """Watches the event stream of one run and fires scenario rules."""

    def __init__(self, scenario: Scenario, run_seed: int):
        self.scenario = scenario
        self._rngs = {
            name: stream_rng(run_seed, scenario.id, name) for name in scenario.distributions
        }
        self._fired: dict[str, int] = {r.id: 0 for r in scenario.rules}
        self._matches: dict[str, int] = {r.id: 0 for r in scenario.rules}
        # At-time rules not yet fired, and on-event rules by event kind, both
        # in rule order; the parser has already flattened after-chains.
        self._at_time = [rule for rule in scenario.rules if rule.trigger.kind == "at-time"]
        self._on_event: dict[str, list[Rule]] = {}
        for rule in scenario.rules:
            if rule.trigger.kind == "on-event":
                self._on_event.setdefault(rule.trigger.event, []).append(rule)
        # Matured after-triggers waiting for the clock: (due, order no, rule, event)
        self._delayed: list[tuple[int, int, Rule, dict[str, Any] | None]] = []
        self._delay_counter = 0

    def _sample(self, name: str) -> int:
        return self.scenario.distributions[name].sample(self._rngs[name])

    def _fire(self, firings: list[Firing], rule: Rule, event: dict[str, Any] | None) -> None:
        firing = Firing(rule_id=rule.id, injections=[], directives=[])
        try:
            for action in rule.actions:
                # Keys were checked at load, and _resolve builds new dicts
                # and lists, so the class takes the payload as it is.
                payload = {k: _resolve(v, self._sample, event) for k, v in action.payload.items()}
                message = _ACTIONS[action.kind][1](**payload)
                (firing.injections if action.kind == "inject" else firing.directives).append(message)
        except _Unbound:
            return  # skip this firing, keep its draws; the rule stays armed
        self._fired[rule.id] += 1
        firings.append(firing)

    def _disarmed(self, rule: Rule) -> bool:
        return self._fired[rule.id] >= rule.max_occurrences

    def _queue(self, firings: list[Firing], rule: Rule, event: dict | None, t: int) -> None:
        if rule.delay == 0:
            self._fire(firings, rule, event)
        else:
            # The batch's bodies go on the wire, so a delayed firing keeps its own.
            self._delay_counter += 1
            event = None if event is None else dict(event)
            self._delayed.append((t + rule.delay, self._delay_counter, rule, event))

    # -- batch processing ---------------------------------------------------------

    def process_batch(self, t: int, events: list[dict[str, Any]]) -> list[Firing]:
        """Fire every rule a batch of event bodies triggers, in deterministic order.

        Time-based fires come first (rule order), then matured delayed fires
        (maturation order), then event-based fires in (event, rule) order.
        A time trigger fires at the first batch whose tick reaches it; time
        between batches is never observed.
        """
        firings: list[Firing] = []

        if self._at_time:
            waiting = []
            for rule in self._at_time:
                if t < rule.trigger.time:
                    waiting.append(rule)
                else:
                    self._queue(firings, rule, None, t)
            self._at_time = waiting

        if self._delayed:
            # (due, order no) is unique, so the sort never compares rules
            due = sorted(entry for entry in self._delayed if entry[0] <= t)
            self._delayed = [entry for entry in self._delayed if entry[0] > t]
            for _due, _n, rule, event in due:
                if not self._disarmed(rule):
                    self._fire(firings, rule, event)

        for event in events:
            for rule in self._on_event.get(event["kind"], ()):
                trigger = rule.trigger
                if self._disarmed(rule) or not self._event_matches(trigger, event):
                    continue
                self._matches[rule.id] += 1
                if self._matches[rule.id] < trigger.occurrence:
                    continue
                self._queue(firings, rule, event, t)

        if firings:
            # A disarmed rule never fires again, so later batches skip it.
            # It goes only now: removing it from the list being walked
            # would skip the rule after it.
            self._on_event = {
                kind: live
                for kind, rules in self._on_event.items()
                if (live := [rule for rule in rules if not self._disarmed(rule)])
            }

        return firings

    @staticmethod
    def _event_matches(trigger: Trigger, event: dict[str, Any]) -> bool:
        for fld, expected in trigger.where.items():
            if event.get(fld) != expected:
                return False
        return True
