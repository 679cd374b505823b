"""Event-triggered scenario manager and disturbance category registry.

A scenario is a declarative JSON document: named, categorized, with rules
that bind triggers to actions.  Triggers fire on simulation time (at-time),
on matching production events (on-event, with a field filter and an
occurrence threshold), or a fixed delay after another trigger (after,
nesting at most two deep).  Actions either inject a disturbance into the
emulation or direct the control system.

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
import random
from dataclasses import dataclass, field
from importlib import resources
from typing import Any

from .canon import is_int
from .messages import ControlDirective, Injection, SimEvent

CATEGORIES = (
    "dynamic-reconfiguration",
    "order-management",
    "quality",
    "supply",
)

# sha256 of data/registry.json as shipped; checked at load time.
REGISTRY_SHA256 = "7a2aa8496292085cec0b65fcc52a6f1b999af7dd9f074dc362380dd1dcb528da"

TRIGGER_KINDS = frozenset({"at-time", "on-event", "after"})
ACTION_KINDS = frozenset({"inject", "direct"})
DISTRIBUTION_KINDS = frozenset({"constant", "uniform-int", "exponential-int"})

SCENARIO_KEYS = frozenset({"id", "category", "description", "rules", "distributions"})

MAX_AFTER_NESTING = 2


class ScenarioError(ValueError):
    """Invalid scenario document; message names the offending field."""


class RegistryError(ValueError):
    """Unknown disturbance label or damaged registry data."""


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
        raw = resources.files("holobench.data").joinpath("registry.json").read_bytes()
        digest = hashlib.sha256(raw).hexdigest()
        if digest != REGISTRY_SHA256:
            raise RegistryError(
                f"registry.json hash {digest} does not match the recorded {REGISTRY_SHA256}"
            )
        doc = json.loads(raw)
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


# -- triggers and rules --------------------------------------------------------------


@dataclass(frozen=True)
class Trigger:
    kind: str
    time: int | None = None  # at-time
    event: str | None = None  # on-event
    where: dict[str, Any] = field(default_factory=dict)
    occurrence: int = 1
    base: "Trigger | None" = None  # after
    delay: int | None = None

    @classmethod
    def from_doc(cls, doc: Any, path: str, depth: int = 0) -> "Trigger":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ScenarioError(f"{path} must be an object with a kind")
        kind = doc["kind"]
        if kind not in TRIGGER_KINDS:
            raise ScenarioError(f"{path}.kind {kind!r} is not a trigger kind")
        if kind == "at-time":
            t = doc.get("time")
            if not is_int(t) or t < 0:
                raise ScenarioError(f"{path}.time must be a non-negative integer")
            extra = set(doc) - {"kind", "time"}
            if extra:
                raise ScenarioError(f"{path} has unknown keys: {sorted(extra)}")
            return cls(kind=kind, time=t)
        if kind == "on-event":
            from .messages import EVENT_KINDS

            event = doc.get("event")
            if event not in EVENT_KINDS:
                raise ScenarioError(f"{path}.event {event!r} is not a production event kind")
            where = doc.get("where", {})
            if not isinstance(where, dict):
                raise ScenarioError(f"{path}.where must be an object")
            for fld in where:
                if fld not in ("machine", "shuttle", "order", "node"):
                    raise ScenarioError(f"{path}.where.{fld} is not a filterable field")
            occurrence = doc.get("occurrence", 1)
            if not is_int(occurrence) or occurrence < 1:
                raise ScenarioError(f"{path}.occurrence must be a positive integer")
            extra = set(doc) - {"kind", "event", "where", "occurrence"}
            if extra:
                raise ScenarioError(f"{path} has unknown keys: {sorted(extra)}")
            return cls(kind=kind, event=event, where=dict(where), occurrence=occurrence)
        # after
        if depth + 1 > MAX_AFTER_NESTING:
            raise ScenarioError(f"{path}: after-triggers nest at most {MAX_AFTER_NESTING} deep")
        delay = doc.get("delay")
        if not is_int(delay) or delay < 0:
            raise ScenarioError(f"{path}.delay must be a non-negative integer")
        if "base" not in doc:
            raise ScenarioError(f"{path}.base is required")
        extra = set(doc) - {"kind", "base", "delay"}
        if extra:
            raise ScenarioError(f"{path} has unknown keys: {sorted(extra)}")
        base = cls.from_doc(doc["base"], f"{path}.base", depth + 1)
        return cls(kind=kind, base=base, delay=delay)


def _chain(trigger: Trigger) -> tuple[Trigger, int]:
    """Innermost primitive trigger and the summed after-delay above it."""
    delay = 0
    while trigger.kind == "after":
        delay += trigger.delay
        trigger = trigger.base
    return trigger, delay


@dataclass(frozen=True)
class Action:
    kind: str  # inject | direct
    payload: dict[str, Any]

    @classmethod
    def from_doc(cls, doc: Any, path: str) -> "Action":
        if not isinstance(doc, dict) or "kind" not in doc:
            raise ScenarioError(f"{path} must be an object with a kind")
        kind = doc["kind"]
        if kind not in ACTION_KINDS:
            raise ScenarioError(f"{path}.kind {kind!r} is not an action kind")
        key = "injection" if kind == "inject" else "directive"
        payload = doc.get(key)
        if not isinstance(payload, dict):
            raise ScenarioError(f"{path}.{key} must be an object")
        extra = set(doc) - {"kind", key}
        if extra:
            raise ScenarioError(f"{path} has unknown keys: {sorted(extra)}")
        return cls(kind=kind, payload=payload)


@dataclass(frozen=True)
class Rule:
    id: str
    trigger: Trigger
    actions: tuple[Action, ...]
    max_occurrences: int = 1


@dataclass(frozen=True)
class Scenario:
    id: str
    category: str | None
    description: str
    rules: tuple[Rule, ...]
    distributions: dict[str, Distribution]


def _walk_refs(value: Any, path: str, scenario_dists: dict[str, Distribution],
               allow_event_refs: bool) -> None:
    if isinstance(value, dict):
        if set(value) == {"sample"}:
            name = value["sample"]
            if name not in scenario_dists:
                raise ScenarioError(f"{path} samples unknown distribution {name!r}")
            return
        for k, v in value.items():
            _walk_refs(v, f"{path}.{k}", scenario_dists, allow_event_refs)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _walk_refs(v, f"{path}[{i}]", scenario_dists, allow_event_refs)
    elif isinstance(value, str) and value.startswith("$event."):
        fld = value[len("$event.") :]
        if fld not in ("machine", "shuttle", "order", "node", "time"):
            raise ScenarioError(f"{path}: {value!r} names no event field")
        if not allow_event_refs:
            raise ScenarioError(f"{path}: {value!r} needs an on-event trigger")


def load_scenario(text: str, model=None, orders=None) -> Scenario:
    """Parse and validate a scenario document from JSON text.

    With a model, injection and directive targets are checked against it;
    with an order book, literal order references are checked as well.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario document is not valid JSON: {exc}") from exc
    return load_scenario_doc(doc, model=model, orders=orders)


def load_scenario_doc(doc: Any, model=None, orders=None) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    extra = set(doc) - SCENARIO_KEYS
    if extra:
        # A scenario must not smuggle in model changes or other payloads.
        raise ScenarioError(f"scenario has unknown keys: {sorted(extra)}")
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

    rules: list[Rule] = []
    for i, rd in enumerate(rules_doc):
        path = f"rules[{i}]"
        if not isinstance(rd, dict):
            raise ScenarioError(f"{path} must be an object")
        extra = set(rd) - {"id", "trigger", "actions", "max_occurrences"}
        if extra:
            raise ScenarioError(f"{path} has unknown keys: {sorted(extra)}")
        rule_id = rd.get("id", f"rule{i}")
        if not isinstance(rule_id, str) or not rule_id:
            raise ScenarioError(f"{path}.id must be a non-empty string")
        trigger = Trigger.from_doc(rd.get("trigger"), f"{path}.trigger")
        actions_doc = rd.get("actions")
        if not isinstance(actions_doc, list) or not actions_doc:
            raise ScenarioError(f"{path}.actions must be a non-empty list")
        actions = tuple(
            Action.from_doc(ad, f"{path}.actions[{j}]") for j, ad in enumerate(actions_doc)
        )
        max_occ = rd.get("max_occurrences", 1)
        if not is_int(max_occ) or max_occ < 1:
            raise ScenarioError(f"{path}.max_occurrences must be a positive integer")
        allow_event_refs = _chain(trigger)[0].kind == "on-event"
        for j, a in enumerate(actions):
            _walk_refs(a.payload, f"{path}.actions[{j}]", dists, allow_event_refs)
            _validate_action_shape(a, f"{path}.actions[{j}]", model, orders)
        rules.append(Rule(id=rule_id, trigger=trigger, actions=actions, max_occurrences=max_occ))
    rule_ids = [r.id for r in rules]
    if len(set(rule_ids)) != len(rule_ids):
        raise ScenarioError("rule ids must be unique")

    return Scenario(
        id=sid,
        category=category,
        description=description,
        rules=tuple(rules),
        distributions=dists,
    )


def _is_placeholder(value: Any) -> bool:
    if isinstance(value, dict) and set(value) == {"sample"}:
        return True
    return isinstance(value, str) and value.startswith("$event.")


def _validate_action_shape(action: Action, path: str, model, orders) -> None:
    payload = action.payload
    kind = payload.get("kind")
    if action.kind == "inject":
        from .messages import INJECTION_KINDS

        if kind not in INJECTION_KINDS:
            raise ScenarioError(f"{path}.injection.kind {kind!r} is not an injection kind")
        machine = payload.get("machine")
        if model is not None and isinstance(machine, str) and not _is_placeholder(machine):
            if machine not in model.machines:
                raise ScenarioError(f"{path}.injection.machine {machine!r} is not in the model")
    else:
        from .messages import DIRECTIVE_KINDS

        if kind not in DIRECTIVE_KINDS:
            raise ScenarioError(f"{path}.directive.kind {kind!r} is not a directive kind")
        machine = payload.get("machine")
        if model is not None and isinstance(machine, str) and not _is_placeholder(machine):
            if machine not in model.machines:
                raise ScenarioError(f"{path}.directive.machine {machine!r} is not in the model")
        if kind == "insert-order":
            order = payload.get("order")
            if not isinstance(order, dict):
                raise ScenarioError(f"{path}.directive.order must be an object")
            if model is not None and isinstance(order.get("routing"), list):
                for op in order["routing"]:
                    if isinstance(op, str) and not model.capable_machines(op):
                        raise ScenarioError(
                            f"{path}.directive.order: no machine performs {op!r}"
                        )
        if kind in ("cancel-order", "set-priority") and orders is not None:
            target = payload.get("order_id")
            if isinstance(target, str) and not _is_placeholder(target):
                if target not in {o.id for o in orders}:
                    raise ScenarioError(
                        f"{path}.directive.order_id {target!r} is not in the order book"
                    )


def load_scenario_file(path: str, model=None, orders=None) -> Scenario:
    with open(path, encoding="utf-8") as f:
        return load_scenario(f.read(), model=model, orders=orders)


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
        self.run_seed = run_seed
        self._rngs = {
            name: stream_rng(run_seed, scenario.id, name) for name in scenario.distributions
        }
        self._fired: dict[str, int] = {r.id: 0 for r in scenario.rules}
        self._matches: dict[str, int] = {r.id: 0 for r in scenario.rules}
        # Each trigger resolved once into its primitive and summed delay:
        # at-time rules not yet fired as (rule, time, delay), and on-event
        # rules by event kind as (rule, trigger, delay), both in rule order.
        self._at_time: list[tuple[Rule, int, int]] = []
        self._on_event: dict[str, list[tuple[Rule, Trigger, int]]] = {}
        for rule in scenario.rules:
            prim, delay = _chain(rule.trigger)
            if prim.kind == "at-time":
                self._at_time.append((rule, prim.time, delay))
            else:
                self._on_event.setdefault(prim.event, []).append((rule, prim, delay))
        # Matured after-triggers waiting for the clock: (due, order no, rule, event)
        self._delayed: list[tuple[int, int, Rule, SimEvent | None]] = []
        self._delay_counter = 0

    # -- resolution ------------------------------------------------------------

    def _sample(self, name: str) -> int:
        return self.scenario.distributions[name].sample(self._rngs[name])

    def _resolve(self, value: Any, event: SimEvent | None) -> Any:
        if isinstance(value, dict):
            if set(value) == {"sample"}:
                return self._sample(value["sample"])
            return {k: self._resolve(v, event) for k, v in value.items()}
        if isinstance(value, list):
            return [self._resolve(v, event) for v in value]
        if isinstance(value, str) and value.startswith("$event."):
            fld = value[len("$event.") :]
            if event is None:
                raise ScenarioError(f"{value!r} used without a triggering event")
            resolved = getattr(event, fld)
            if resolved is None:
                raise ScenarioError(f"{value!r} is empty on the triggering event")
            return resolved
        return value

    def _fire(self, rule: Rule, event: SimEvent | None) -> Firing:
        self._fired[rule.id] += 1
        firing = Firing(rule_id=rule.id, injections=[], directives=[])
        for action in rule.actions:
            payload = self._resolve(action.payload, event)
            if action.kind == "inject":
                firing.injections.append(Injection.from_dict(payload))
            else:
                firing.directives.append(ControlDirective.from_dict(payload))
        return firing

    def _disarmed(self, rule: Rule) -> bool:
        return self._fired[rule.id] >= rule.max_occurrences

    def _queue(self, firings: list[Firing], rule: Rule, event: SimEvent | None,
               t: int, delay: int) -> None:
        if delay == 0:
            firings.append(self._fire(rule, event))
        else:
            self._delay_counter += 1
            self._delayed.append((t + delay, self._delay_counter, rule, event))

    # -- batch processing ---------------------------------------------------------

    def process_batch(self, t: int, events: list[SimEvent]) -> list[Firing]:
        """Fire every rule the batch triggers, in deterministic order.

        Time-based fires come first (rule order), then matured delayed fires
        (maturation order), then event-based fires in (event, rule) order.
        A time trigger fires at the first batch whose tick reaches it; time
        between batches is never observed.
        """
        firings: list[Firing] = []

        if self._at_time:
            waiting = []
            for entry in self._at_time:
                rule, at, delay = entry
                if t < at:
                    waiting.append(entry)
                else:
                    self._queue(firings, rule, None, t, delay)
            self._at_time = waiting

        if self._delayed:
            due = sorted(
                (entry for entry in self._delayed if entry[0] <= t),
                key=lambda entry: (entry[0], entry[1]),
            )
            self._delayed = [entry for entry in self._delayed if entry[0] > t]
            for _due, _n, rule, event in due:
                if not self._disarmed(rule):
                    firings.append(self._fire(rule, event))

        for event in events:
            for rule, prim, delay in self._on_event.get(event.kind, ()):
                if self._disarmed(rule) or not self._event_matches(prim, event):
                    continue
                self._matches[rule.id] += 1
                if self._matches[rule.id] < prim.occurrence:
                    continue
                self._queue(firings, rule, event, t, delay)

        return firings

    @staticmethod
    def _event_matches(trigger: Trigger, event: SimEvent) -> bool:
        for fld, expected in trigger.where.items():
            if getattr(event, fld) != expected:
                return False
        return True
