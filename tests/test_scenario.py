"""Scenario documents, seeded streams, trigger runtime and the label registry."""

import hashlib
import json
import re
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holobench.control import load_orders
from holobench.harness import run_single
from holobench.interface import encode_record, iter_records, make_record
from holobench.messages import (
    DIRECTIVE_KINDS,
    EVENT_FIELDS,
    EVENT_KINDS,
    EVENT_SUBJECTS,
    INJECTION_KINDS,
    SimEvent,
)
from holobench.model import load_model
from holobench.scenario import (
    CATEGORIES,
    REGISTRY_SHA256,
    CategoryRegistry,
    Distribution,
    RegistryError,
    ScenarioError,
    ScenarioManager,
    Trigger,
    load_scenario,
    load_scenario_doc,
    stream_rng,
)


DATA = resources.files("holobench.data")
MODEL = load_model((DATA / "minicell" / "model.json").read_text(encoding="utf-8"))
ORDERS = load_orders((DATA / "minicell" / "orders.json").read_text(encoding="utf-8"))


def ev(kind, time=0, seq=1, **kw):
    """An event body; each subject its kind names defaults to M1, O1 or S1."""
    for name in EVENT_SUBJECTS[kind]:
        kw.setdefault(name, {"machine": "M1", "order": "O1", "shuttle": "S1"}[name])
    return SimEvent(time=time, seq=seq, kind=kind, **kw).to_dict()


def scenario_doc(rules=None, distributions=None, category="dynamic-reconfiguration"):
    return {
        "id": "sx",
        "category": category if rules else None,
        "description": "",
        "rules": rules or [],
        "distributions": distributions or {},
    }


def down_rule(trigger, rule_id="r1", machine="M1", max_occurrences=None):
    rule = {
        "id": rule_id,
        "trigger": trigger,
        "actions": [
            {"kind": "inject",
             "injection": {"kind": "machine-down", "machine": machine, "duration": 5}},
        ],
    }
    if max_occurrences is not None:
        rule["max_occurrences"] = max_occurrences
    return rule


class TestRegistry:
    def test_full_census(self):
        reg = CategoryRegistry.load()
        assert len(reg.labels) == 30
        counts = Counter(reg.labels.values())
        assert counts == {
            "dynamic-reconfiguration": 17,
            "quality": 2,
            "order-management": 10,
            "supply": 1,
        }
        assert reg.sha256 == REGISTRY_SHA256

    @pytest.mark.parametrize(
        "label, category",
        [
            ("#PS9", "dynamic-reconfiguration"),
            ("ps9", "dynamic-reconfiguration"),
            ("  PS9 ", "dynamic-reconfiguration"),
            ("#PS8", "supply"),
            ("#PS6", "quality"),
            ("#PS11", "quality"),
            ("#PS5", "dynamic-reconfiguration"),
            ("Query 7", "order-management"),
            ("query   7", "order-management"),
            ("BD1", "order-management"),
            ("Example 2", "dynamic-reconfiguration"),
        ],
    )
    def test_classification(self, label, category):
        assert CategoryRegistry.load().classify(label) == category

    def test_unknown_label_raises(self):
        with pytest.raises(RegistryError, match="unknown"):
            CategoryRegistry.load().classify("PS99")

    def test_every_label_has_a_known_category(self):
        reg = CategoryRegistry.load()
        assert set(reg.labels.values()) <= set(CATEGORIES)


class _Resources:
    """Stands in for ``importlib.resources``: serves ``raw`` as the
    packaged registry.json."""

    def __init__(self, raw):
        self.raw = raw

    def files(self, package):
        assert package == "holobench.data"
        return self

    def joinpath(self, name):
        assert name == "registry.json"
        return self

    def read_bytes(self):
        return self.raw


def _registry_bytes(labels):
    return json.dumps({"version": 1, "categories": list(CATEGORIES), "labels": labels}).encode()


class TestDamagedRegistry:
    """Each refusal of ``CategoryRegistry.load``, read from crafted registry
    bytes.  The last two need bytes whose hash is the recorded one, so the
    recorded hash is set to the crafted bytes' own."""

    def test_bytes_other_than_the_recorded_ones_are_refused(self, monkeypatch):
        raw = _registry_bytes({"#PS1": "order-management"})
        monkeypatch.setattr("holobench.scenario.resources", _Resources(raw))
        with pytest.raises(RegistryError) as refused:
            CategoryRegistry.load()
        assert str(refused.value) == (
            f"registry.json hash {hashlib.sha256(raw).hexdigest()} "
            f"does not match the recorded {REGISTRY_SHA256}"
        )

    @pytest.mark.parametrize(
        "labels, message",
        [
            ({"#PS1": "order-management", "#PS2": "weather"},
             "label '#PS2' maps to unknown category 'weather'"),
            ({"#PS1": "order-management", "ps1": "quality"},
             "labels collide after normalization"),
            ({"Query 2": "order-management", " query  2": "order-management"},
             "labels collide after normalization"),
        ],
    )
    def test_refusal_reads_exactly(self, monkeypatch, labels, message):
        raw = _registry_bytes(labels)
        monkeypatch.setattr("holobench.scenario.resources", _Resources(raw))
        monkeypatch.setattr("holobench.scenario.REGISTRY_SHA256", hashlib.sha256(raw).hexdigest())
        with pytest.raises(RegistryError) as refused:
            CategoryRegistry.load()
        assert str(refused.value) == message

    def test_crafted_bytes_with_the_recorded_hash_load(self, monkeypatch):
        raw = _registry_bytes({"#PS1": "order-management", "Query 2": "quality"})
        monkeypatch.setattr("holobench.scenario.resources", _Resources(raw))
        monkeypatch.setattr("holobench.scenario.REGISTRY_SHA256", hashlib.sha256(raw).hexdigest())
        reg = CategoryRegistry.load()
        assert reg.classify("ps1") == "order-management"
        assert reg.classify("query  2") == "quality"


class TestStreams:
    def test_streams_are_reproducible(self):
        d = Distribution.from_doc("d", {"kind": "uniform-int", "low": 20, "high": 40})
        out = [d.sample(stream_rng(1, "supply-shortage", "d_block")) for _ in range(2)]
        again = [d.sample(stream_rng(1, "supply-shortage", "d_block")) for _ in range(2)]
        assert out == again

    def test_pinned_samples(self):
        # Frozen draws; any change here breaks replay of published results.
        d = Distribution.from_doc("d", {"kind": "uniform-int", "low": 20, "high": 40})
        rng = stream_rng(1, "supply-shortage", "d_block")
        assert [d.sample(rng) for _ in range(4)] == [32, 29, 38, 28]
        rng = stream_rng(2, "supply-shortage", "d_block")
        assert [d.sample(rng) for _ in range(4)] == [23, 32, 29, 29]
        e = Distribution.from_doc("d", {"kind": "exponential-int", "mean": 30})
        rng = stream_rng(7, "sx", "lab")
        assert [e.sample(rng) for _ in range(6)] == [29, 6, 19, 11, 31, 15]

    def test_streams_with_different_labels_are_independent(self):
        d = Distribution.from_doc("d", {"kind": "uniform-int", "low": 20, "high": 40})
        a = stream_rng(5, "sc", "alpha")
        b = stream_rng(5, "sc", "beta")
        assert [d.sample(a) for _ in range(3)] != [d.sample(b) for _ in range(3)]

    def test_seed_changes_the_draws(self):
        d = Distribution.from_doc("d", {"kind": "uniform-int", "low": 0, "high": 1000})
        a = [d.sample(stream_rng(1, "s", "l")) for _ in range(4)]
        b = [d.sample(stream_rng(2, "s", "l")) for _ in range(4)]
        assert a != b

    def test_uniform_stays_in_range(self):
        d = Distribution.from_doc("d", {"kind": "uniform-int", "low": 3, "high": 7})
        rng = stream_rng(11, "s", "l")
        draws = [d.sample(rng) for _ in range(500)]
        assert set(draws) == {3, 4, 5, 6, 7}

    def test_exponential_is_positive(self):
        d = Distribution.from_doc("d", {"kind": "exponential-int", "mean": 4})
        rng = stream_rng(11, "s", "l")
        assert all(d.sample(rng) >= 1 for _ in range(500))

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "gaussian", "mean": 3},
            {"kind": "constant"},
            {"kind": "constant", "value": 1.5},
            {"kind": "uniform-int", "low": 9, "high": 3},
            {"kind": "uniform-int", "low": 1},
            {"kind": "uniform-int", "low": 1, "high": 2, "step": 1},
            {"kind": "exponential-int", "mean": 0},
            {"kind": "exponential-int"},
            {"kind": "constant", "value": True},
            {"kind": "uniform-int", "low": False, "high": 2},
            {"kind": "exponential-int", "mean": True},
            {"kind": ["constant"], "value": 1},
        ],
    )
    def test_distribution_validation(self, doc):
        with pytest.raises(ScenarioError):
            Distribution.from_doc("d", doc)


class TestTriggerParsing:
    def test_after_nesting_limit(self):
        inner = {"kind": "at-time", "time": 0}
        one = {"kind": "after", "base": inner, "delay": 1}
        two = {"kind": "after", "base": one, "delay": 3}
        # two levels are allowed, and flatten to the primitive and the summed delay
        assert Trigger.from_doc(two, "t") == (Trigger(kind="at-time", time=0), 4)
        assert Trigger.from_doc(inner, "t") == (Trigger(kind="at-time", time=0), 0)
        three = {"kind": "after", "base": two, "delay": 1}
        with pytest.raises(ScenarioError, match="nest"):
            Trigger.from_doc(three, "t")

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"kind": "at-time", "time": -1}, "non-negative"),
            ({"kind": "at-time", "time": 3, "x": 1}, "unknown keys"),
            ({"kind": "on-event", "event": "teleport"}, "event kind"),
            ({"kind": "on-event", "event": "op-started", "where": {"speed": 3}}, "filterable"),
            ({"kind": "on-event", "event": "op-started", "occurrence": 0}, "positive"),
            ({"kind": "after", "delay": 3}, "base"),
            ({"kind": "after", "base": {"kind": "at-time", "time": 1}, "delay": -1}, "delay"),
            ({"kind": "sometimes"}, "trigger kind"),
            ({"kind": "at-time", "time": True}, "non-negative"),
            ({"kind": "on-event", "event": "op-started", "occurrence": True}, "positive"),
            ({"kind": "after", "base": {"kind": "at-time", "time": 1}, "delay": False}, "delay"),
            ({"kind": ["at-time"], "time": 1}, "trigger kind"),
            ({"kind": "on-event", "event": ["op-started"]}, "event kind"),
            ({"kind": "on-event", "event": "op-started", "where": {"machine": 5}}, "string"),
            ({"kind": "on-event", "event": "order-released", "where": {"order": None}},
             "string"),
        ],
    )
    def test_trigger_validation(self, doc, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            Trigger.from_doc(doc, "t")

    @pytest.mark.parametrize(
        "where", [{"machine": "M9"}, {"shuttle": "S9"}, {"node": "M1", "machine": "X"},
                  {"node": "DOCK"}],
    )
    def test_where_names_a_part_of_the_model(self, where):
        """A filter the run can never match is refused with the model, and
        not without it; under an after-trigger too."""
        doc = {"kind": "after", "delay": 1,
               "base": {"kind": "on-event", "event": "product-rejected", "where": where}}
        Trigger.from_doc(doc, "t")
        with pytest.raises(ScenarioError, match=r"t\.base\.where\.\w+ '\w+' is not in the model"):
            Trigger.from_doc(doc, "t", model=MODEL)

    @pytest.mark.parametrize("event, fld", [
        (event, fld) for event in sorted(EVENT_FIELDS)
        for fld in ("machine", "shuttle", "order", "node") if fld not in EVENT_FIELDS[event]
    ])
    def test_where_names_a_field_the_event_carries(self, event, fld):
        """A filter on a field the kind never carries could never match."""
        trigger = {"kind": "on-event", "event": event, "where": {fld: "O1"}}
        with pytest.raises(ScenarioError, match=re.escape(
            f"rules[0].trigger.where.{fld}: {event} events carry no {fld}"
        )):
            load_scenario_doc(scenario_doc([down_rule(trigger)]))

    def test_where_order_is_only_type_checked(self):
        """An order filter may name an order a rule inserts mid-run."""
        doc = {"kind": "on-event", "event": "product-rejected",
               "where": {"order": "R1", "machine": "M1", "shuttle": "S1", "node": "IN"}}
        trigger, _ = Trigger.from_doc(doc, "t", model=MODEL)
        assert trigger.where["order"] == "R1"


class TestScenarioLoading:
    # Scenario documents each refused for one fault, as a text or as a change
    # to a one-rule document, with the exact text of the refusal.
    @pytest.mark.parametrize("change, message", [
        ("not json",
         "scenario document is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "scenario document must be a JSON object"),
        (lambda d: d.pop("id"), "scenario id must be a non-empty string"),
        (lambda d: d.update(id=""), "scenario id must be a non-empty string"),
        (lambda d: d.update(rules={}), "scenario rules must be a list"),
        (lambda d: d.update(description=None), "scenario description must be a string"),
        (lambda d: d.update(distributions=[]), "scenario distributions must be an object"),
        (lambda d: d["distributions"].update(gap=3),
         "distributions.gap must be an object with a kind"),
        (lambda d: d["distributions"].update(gap={"value": 3}),
         "distributions.gap must be an object with a kind"),
        (lambda d: d["rules"].append(["r2"]), "rules[1] must be an object"),
        (lambda d: d["rules"][0].update(id=""), "rules[0].id must be a non-empty string"),
        (lambda d: d["rules"][0].update(id=5), "rules[0].id must be a non-empty string"),
        (lambda d: d["rules"][0].update(actions=[]), "rules[0].actions must be a non-empty list"),
        (lambda d: d["rules"][0].pop("actions"), "rules[0].actions must be a non-empty list"),
        (lambda d: d["rules"][0].pop("trigger"), "rules[0].trigger must be an object with a kind"),
        (lambda d: d["rules"][0].update(trigger={"time": 1}),
         "rules[0].trigger must be an object with a kind"),
        (lambda d: d["rules"][0].update(trigger={"kind": "after", "delay": 1, "base": []}),
         "rules[0].trigger.base must be an object with a kind"),
        (lambda d: d["rules"][0].update(
            trigger={"kind": "on-event", "event": "op-started", "where": ["M1"]}),
         "rules[0].trigger.where must be an object"),
        (lambda d: d["rules"][0]["actions"].append("inject"),
         "rules[0].actions[1] must be an object with a kind"),
        (lambda d: d["rules"][0]["actions"][0].pop("kind"),
         "rules[0].actions[0] must be an object with a kind"),
        (lambda d: d["rules"][0]["actions"][0].update(injection="M1"),
         "rules[0].actions[0].injection must be an object"),
        (lambda d: d["rules"][0]["actions"][0].pop("injection"),
         "rules[0].actions[0].injection must be an object"),
    ])
    def test_every_refusal_reads_exactly(self, change, message):
        if isinstance(change, str):
            text = change
        else:
            doc = scenario_doc([down_rule({"kind": "at-time", "time": 1})])
            change(doc)
            text = json.dumps(doc)
        with pytest.raises(ScenarioError) as refused:
            load_scenario(text, model=MODEL, orders=ORDERS)
        assert str(refused.value) == message

    def test_packaged_scenarios_validate_against_the_model(self, minicell_model,
                                                           minicell_orders):
        base = resources.files("holobench.data").joinpath("scenarios")
        for name in ("null", "ps9", "rush_order", "reject_rework", "supply_shortage"):
            text = base.joinpath(name + ".json").read_text(encoding="utf-8")
            s = load_scenario(text, model=minicell_model, orders=minicell_orders)
            assert s.id

    def test_max_occurrences_must_be_an_integer(self):
        rule = down_rule({"kind": "at-time", "time": 1}, max_occurrences=True)
        with pytest.raises(ScenarioError, match="max_occurrences"):
            load_scenario_doc(scenario_doc(rules=[rule]))

    def test_unknown_top_level_key_rejected(self):
        doc = scenario_doc()
        doc["model"] = {"machines": {}}
        with pytest.raises(ScenarioError, match="unknown keys"):
            load_scenario_doc(doc)

    def test_category_required_with_rules(self):
        doc = scenario_doc(rules=[down_rule({"kind": "at-time", "time": 1})])
        doc["category"] = None
        with pytest.raises(ScenarioError, match="category"):
            load_scenario_doc(doc)

    def test_null_scenario_has_no_category(self, null_scenario):
        assert not null_scenario.rules and null_scenario.category is None

    def test_unknown_category_rejected(self):
        doc = scenario_doc(rules=[down_rule({"kind": "at-time", "time": 1})])
        doc["category"] = "weather"
        with pytest.raises(ScenarioError, match="category"):
            load_scenario_doc(doc)

    def test_duplicate_rule_ids_rejected(self):
        doc = scenario_doc(rules=[
            down_rule({"kind": "at-time", "time": 1}, rule_id="r"),
            down_rule({"kind": "at-time", "time": 2}, rule_id="r"),
        ])
        with pytest.raises(ScenarioError, match="unique"):
            load_scenario_doc(doc)

    def test_sample_must_reference_a_distribution(self):
        rule = down_rule({"kind": "at-time", "time": 1})
        rule["actions"][0]["injection"]["duration"] = {"sample": "ghost"}
        with pytest.raises(ScenarioError, match="unknown distribution"):
            load_scenario_doc(scenario_doc(rules=[rule]))

    def test_unhashable_action_kind_and_sample_name(self):
        rule = down_rule({"kind": "at-time", "time": 1})
        rule["actions"][0]["kind"] = ["inject"]
        with pytest.raises(ScenarioError, match="action kind"):
            load_scenario_doc(scenario_doc(rules=[rule]))
        rule = down_rule({"kind": "at-time", "time": 1})
        rule["actions"][0]["injection"]["duration"] = {"sample": ["d"]}
        with pytest.raises(ScenarioError, match="unknown distribution"):
            load_scenario_doc(scenario_doc(rules=[rule]))

    def test_event_refs_need_an_event_trigger(self):
        rule = down_rule({"kind": "at-time", "time": 1})
        rule["actions"][0]["injection"]["machine"] = "$event.machine"
        with pytest.raises(ScenarioError, match="on-event"):
            load_scenario_doc(scenario_doc(rules=[rule]))

    def test_event_refs_allowed_under_after_event(self):
        rule = down_rule({
            "kind": "after",
            "base": {"kind": "on-event", "event": "op-started"},
            "delay": 2,
        })
        rule["actions"][0]["injection"]["machine"] = "$event.machine"
        load_scenario_doc(scenario_doc(rules=[rule]))

    def test_machine_target_checked_against_model(self, minicell_model):
        rule = down_rule({"kind": "at-time", "time": 1}, machine="M9")
        with pytest.raises(ScenarioError, match="M9"):
            load_scenario_doc(scenario_doc(rules=[rule]), model=minicell_model)

    def test_insert_order_routing_checked_against_model(self, minicell_model):
        rule = {
            "id": "r1",
            "trigger": {"kind": "at-time", "time": 1},
            "actions": [{"kind": "direct", "directive": {
                "kind": "insert-order",
                "order": {"id": "OX", "routing": ["Z"], "release": 0, "due": 9},
            }}],
        }
        with pytest.raises(ScenarioError, match="performs"):
            load_scenario_doc(scenario_doc(rules=[rule]), model=minicell_model)

    def test_cancel_target_checked_against_book(self, minicell_orders):
        rule = {
            "id": "r1",
            "trigger": {"kind": "at-time", "time": 1},
            "actions": [{"kind": "direct", "directive": {
                "kind": "cancel-order", "order_id": "O99",
            }}],
        }
        with pytest.raises(ScenarioError, match="order book"):
            load_scenario_doc(scenario_doc(rules=[rule]), orders=minicell_orders)


def _inject(**injection):
    return {"kind": "inject", "injection": injection}


def _insert_rule(trigger, *ids, rule_id="r1", max_occurrences=None):
    """A rule inserting one order per id, each with the same small body."""
    rule = {"id": rule_id, "trigger": trigger, "actions": [
        {"kind": "direct", "directive": {"kind": "insert-order", "order": {
            "id": oid, "routing": ["A"], "release": 0, "due": 90}}}
        for oid in ids
    ]}
    if max_occurrences is not None:
        rule["max_occurrences"] = max_occurrences
    return rule


class TestActionPayloads:
    """Each payload is built from its message class at load, placeholders
    stood in, so a document that loads never fails when a rule fires."""

    @pytest.mark.parametrize(
        "action",
        [
            _inject(kind="product-reject", order="O1"),
            _inject(kind="machine-down", machine="M1", duration=0),
            _inject(kind="machine-down", duration=5),
            _inject(kind="machine-down", machine="M1", duration="5"),
            {"kind": "direct",
             "directive": {"kind": "set-priority", "order_id": "O1", "priority": "high"}},
            _inject(kind="machine-down", machine="M1", durration=5),
            _inject(kind="machine-down", machine="M1", duration=True),
            _inject(kind="machine-down", machine="$event.time", duration=5),
            _inject(kind="machine-down", machine="M1", duration={"sample": "from_zero"}),
            _inject(machine="M1", duration=5),
            _inject(kind="machine-down", machine="M1", duration=5, policy=["scrap"]),
            {"kind": "direct", "directive": {"kind": "evacuate"}},
            {"kind": "direct", "directive": {"kind": "insert-order", "order": {
                "id": "R1", "routing": ["A"], "release": -1, "due": 90}}},
            {"kind": "direct", "directive": {"kind": "insert-order", "order": {
                "id": "R1", "routing": "A", "release": 0, "due": 90}}},
            {"kind": "direct", "directive": {"kind": "insert-order", "order": {
                "id": "R1", "routing": ["A"], "release": "$event.order", "due": 90}}},
            {"kind": "direct",
             "directive": {"kind": "set-priority", "order_id": "O1", "priority": True}},
            {"kind": "direct",
             "directive": {"kind": "set-priority", "order_id": "O1", "priority": 1.5}},
            {"kind": "direct", "directive": {"kind": "set-priority", "order_id": "O1"}},
            {"kind": "direct", "directive": {"kind": "cancel-order"}},
            {"kind": "direct", "directive": {"kind": "announce-breakdown"}},
            {"kind": "direct", "directive": {"kind": "insert-order"}},
        ],
        ids=[
            "reject-without-policy",
            "zero-duration",
            "down-without-machine",
            "string-duration",
            "string-priority",
            "misspelt-key",
            "boolean-duration",
            "event-time-in-a-string-field",
            "sample-whose-least-is-zero",
            "no-kind",
            "list-policy",
            "unknown-directive-kind",
            "insert-order-negative-release",
            "insert-order-routing-not-a-list",
            "insert-order-event-string-as-release",
            "boolean-priority",
            "float-priority",
            "set-priority-without-priority",
            "cancel-order-without-order-id",
            "announce-breakdown-without-machine",
            "insert-order-without-order",
        ],
    )
    def test_payload_rejected_at_load_with_its_path(self, action):
        rule = down_rule({"kind": "on-event", "event": "op-started"})
        rule["actions"].append(action)
        doc = scenario_doc(
            rules=[rule], distributions={"from_zero": {"kind": "uniform-int", "low": 0, "high": 9}}
        )
        path = f"rules[0].actions[1].{'injection' if action['kind'] == 'inject' else 'directive'}"
        for model, orders in ((None, None), (MODEL, ORDERS)):
            with pytest.raises(ScenarioError, match=re.escape(path)):
                load_scenario_doc(doc, model=model, orders=orders)

    @pytest.mark.parametrize("event, fld, ref", [
        ("order-released", "machine", "$event.machine"),
        ("machine-down", "machine", "$event.shuttle"),
        ("op-started", "duration", "$event.seq"),
    ])
    def test_reference_the_event_never_carries_is_refused_with_its_path(self, event, fld, ref):
        """A firing whose reference is empty is skipped, so a reference to
        a field the trigger's event kind never carries could never fire."""
        rule = down_rule({"kind": "after", "delay": 1,
                          "base": {"kind": "on-event", "event": event}})
        rule["actions"][0]["injection"][fld] = ref
        for model, orders in ((None, None), (MODEL, ORDERS)):
            with pytest.raises(ScenarioError, match=re.escape(
                    f"rules[0].actions[0].injection: {ref!r} names no field")):
                load_scenario_doc(scenario_doc(rules=[rule]), model=model, orders=orders)

    @pytest.mark.parametrize("order, ok", [("O2", True), ("R1", True), ("R2", False)])
    def test_where_order_names_a_book_order_or_an_inserted_one(self, order, ok):
        """With the book at hand, an order filter must name one of its
        orders or an id some rule inserts, a later rule's too."""
        doc = scenario_doc(rules=[
            down_rule({"kind": "on-event", "event": "order-completed", "where": {"order": order}}),
            _insert_rule({"kind": "at-time", "time": 1}, "R1", rule_id="r2"),
        ])
        load_scenario_doc(doc, model=MODEL)
        if ok:
            load_scenario_doc(doc, model=MODEL, orders=ORDERS)
        else:
            with pytest.raises(ScenarioError, match=re.escape(
                    f"rules[0].trigger: where.order {order!r} is neither in the order book")):
                load_scenario_doc(doc, model=MODEL, orders=ORDERS)

    @pytest.mark.parametrize("action, field_path", [
        ({"kind": "direct", "directive": {"kind": "cancel-order", "order_id": "?"}},
         "directive.order_id"),
        ({"kind": "direct", "directive": {"kind": "set-priority", "order_id": "?",
                                          "priority": 3}},
         "directive.order_id"),
        (_inject(kind="product-reject", order="?", policy="rework"), "injection.order"),
    ], ids=["cancel-order", "set-priority", "product-reject"])
    @pytest.mark.parametrize("order, ok", [("O2", True), ("R1", True), ("R2", False)])
    def test_action_order_names_a_book_order_or_an_inserted_one(self, action, field_path,
                                                                 order, ok):
        """A directive's order_id and a product-reject's order follow the
        rule of a where order: a book order or an id some rule inserts, a
        later rule's too.  Otherwise a directive targets nothing the control
        holds, and a reject only draws an injection-ignored notice."""
        key, name = field_path.split(".")
        action[key][name] = order
        doc = scenario_doc(rules=[
            {"id": "r1", "trigger": {"kind": "at-time", "time": 5}, "actions": [action]},
            _insert_rule({"kind": "at-time", "time": 1}, "R1", rule_id="r2"),
        ])
        load_scenario_doc(doc, model=MODEL)
        if ok:
            load_scenario_doc(doc, model=MODEL, orders=ORDERS)
        else:
            with pytest.raises(ScenarioError) as info:
                load_scenario_doc(doc, model=MODEL, orders=ORDERS)
            assert str(info.value) == (f"rules[0].actions[0].{field_path} {order!r} is "
                                       "neither in the order book nor inserted by a rule")

    def test_action_order_read_from_the_event_is_not_checked_against_the_book(self):
        rule = {"id": "r1", "trigger": {"kind": "on-event", "event": "op-finished"},
                "actions": [_inject(kind="product-reject", order="$event.order",
                                    policy="scrap"),
                            {"kind": "direct", "directive": {"kind": "cancel-order",
                                                             "order_id": "$event.order"}}]}
        load_scenario_doc(scenario_doc(rules=[rule]), model=MODEL, orders=ORDERS)

    def test_payload_without_a_kind_is_refused_by_its_body_check(self):
        """The body check's own text, not the constructor's TypeError,
        whose wording differs between interpreter versions."""
        rule = down_rule({"kind": "at-time", "time": 1})
        del rule["actions"][0]["injection"]["kind"]
        with pytest.raises(ScenarioError) as info:
            load_scenario_doc(scenario_doc(rules=[rule]))
        assert str(info.value) == "rules[0].actions[0].injection: injection body lacks 'kind'"

    def test_insert_order_id_already_in_the_book(self):
        """The control keeps the book's order and drops the inserted one,
        so with the book at hand the loader refuses it."""
        rule = {"id": "r1", "trigger": {"kind": "at-time", "time": 1},
                "actions": [{"kind": "direct", "directive": {"kind": "insert-order", "order": {
                    "id": "O1", "routing": ["A"], "release": 0, "due": 90}}}]}
        doc = scenario_doc(rules=[rule])
        load_scenario_doc(doc, model=MODEL)
        with pytest.raises(ScenarioError, match=re.escape(
                "rules[0].actions[0].directive.order: id 'O1' is already in the order book")):
            load_scenario_doc(doc, model=MODEL, orders=ORDERS)
        rule["actions"][0]["directive"]["order"]["id"] = "$event.order"
        rule["trigger"] = {"kind": "on-event", "event": "order-released"}
        load_scenario_doc(doc, model=MODEL, orders=ORDERS)

    @pytest.mark.parametrize("step", ["$event.machine", "$event.order", "$event.node"])
    def test_insert_routing_step_that_reads_the_event_is_refused(self, step):
        """An event names machines, orders and nodes but no operation, so
        the control would drop the insert for its routing while the KPI
        folds keep its due; with or without a model the loader refuses it."""
        rule = _insert_rule({"kind": "on-event", "event": "op-started"}, "R1")
        rule["actions"][0]["directive"]["order"]["routing"] = ["A", step]
        doc = scenario_doc(rules=[rule])
        for model, orders in ((None, None), (MODEL, None), (MODEL, ORDERS)):
            with pytest.raises(ScenarioError) as info:
                load_scenario_doc(doc, model=model, orders=orders)
            assert str(info.value) == (
                f"rules[0].actions[0].directive.order: routing step {step!r} reads the "
                "triggering event, which names no operation")

    @pytest.mark.parametrize(
        "rules, message",
        [
            ([_insert_rule({"kind": "on-event", "event": "op-started"}, "R1",
                           max_occurrences=2)],
             "rules[0].actions[0].directive.order: id 'R1' is inserted by a rule that "
             "fires up to 2 times"),
            ([_insert_rule({"kind": "after", "delay": 3,
                            "base": {"kind": "on-event", "event": "op-finished"}}, "R1",
                           max_occurrences=3)],
             "rules[0].actions[0].directive.order: id 'R1' is inserted by a rule that "
             "fires up to 3 times"),
            ([_insert_rule({"kind": "at-time", "time": 1}, "R1", "R1")],
             "rules[0].actions[1].directive.order: id 'R1' is inserted by "
             "rules[0].actions[0].directive.order too"),
            ([_insert_rule({"kind": "at-time", "time": 1}, "R1"),
              _insert_rule({"kind": "on-event", "event": "op-started"}, "R2", "R1",
                           rule_id="r2")],
             "rules[1].actions[1].directive.order: id 'R1' is inserted by "
             "rules[0].actions[0].directive.order too"),
        ],
        ids=["repeating-on-event-rule", "repeating-after-chain", "twice-in-one-rule",
             "once-in-each-of-two-rules"],
    )
    def test_insert_order_id_that_can_be_inserted_twice(self, rules, message):
        """The control drops an insert whose id it already holds, so every
        firing after the first would be lost without a word."""
        for model, orders in ((None, None), (MODEL, ORDERS)):
            with pytest.raises(ScenarioError, match=re.escape(message)):
                load_scenario_doc(scenario_doc(rules=rules), model=model, orders=orders)

    @pytest.mark.parametrize(
        "rules",
        [
            [_insert_rule({"kind": "at-time", "time": 1}, "R1", max_occurrences=2)],
            [_insert_rule({"kind": "on-event", "event": "order-released"}, "$event.order",
                          "$event.order", max_occurrences=2)],
            [_insert_rule({"kind": "at-time", "time": 1}, "R1"),
             _insert_rule({"kind": "on-event", "event": "op-started"}, "R2", rule_id="r2")],
        ],
        ids=["at-time-fires-once", "event-ids", "distinct-literal-ids"],
    )
    def test_insert_order_ids_inserted_at_most_once_still_load(self, rules):
        load_scenario_doc(scenario_doc(rules=rules), model=MODEL, orders=ORDERS)

    @pytest.mark.parametrize(
        "dist, ok",
        [
            ({"kind": "constant", "value": 1}, True),
            ({"kind": "constant", "value": 0}, False),
            ({"kind": "uniform-int", "low": 1, "high": 9}, True),
            ({"kind": "exponential-int", "mean": 1}, True),
        ],
    )
    def test_samples_stand_in_as_their_least_value(self, dist, ok):
        rule = down_rule({"kind": "at-time", "time": 1})
        rule["actions"][0]["injection"]["duration"] = {"sample": "d"}
        doc = scenario_doc(rules=[rule], distributions={"d": dist})
        if ok:
            load_scenario_doc(doc)
        else:
            with pytest.raises(ScenarioError, match="duration must be > 0"):
                load_scenario_doc(doc)

    def test_least_values(self):
        least = [
            Distribution.from_doc("d", doc).least()
            for doc in (
                {"kind": "constant", "value": 7},
                {"kind": "uniform-int", "low": 3, "high": 9},
                {"kind": "exponential-int", "mean": 30},
            )
        ]
        assert least == [7, 3, 1]

    def test_loading_draws_nothing_from_the_run_streams(self):
        rule = down_rule({"kind": "at-time", "time": 0})
        rule["actions"][0]["injection"]["duration"] = {"sample": "d"}
        doc = scenario_doc(rules=[rule], distributions={"d": {"kind": "uniform-int",
                                                               "low": 20, "high": 40}})
        (firing,) = ScenarioManager(load_scenario_doc(doc), 1).process_batch(0, [])
        rng = stream_rng(1, "sx", "d")
        assert firing.injections[0].duration == Distribution.from_doc(
            "d", doc["distributions"]["d"]).sample(rng)


# -- generated documents over MiniCell --------------------------------------------

_REFS = ("$event.machine", "$event.order", "$event.node", "$event.shuttle", "$event.time",
         "$event.speed")
_SAMPLE = st.fixed_dictionaries({"sample": st.sampled_from(["d", "d", "ghost"])})
_INSERTED = st.fixed_dictionaries({
    "id": st.just("R1"),
    "routing": st.sampled_from([["A", "B"], ["B"], ["Z"]]),
    "release": st.integers(0, 40) | _SAMPLE,
    "due": st.just(90),
})
_VALUES = st.one_of(
    st.integers(-1, 40),
    st.booleans(),
    st.none(),
    st.sampled_from(["M1", "M2", "M9", "O1", "O7", "rework", "scrap", "", "5"]),
    st.sampled_from(sorted(INJECTION_KINDS | DIRECTIVE_KINDS)),
    st.sampled_from(_REFS),
    _SAMPLE,
    st.sampled_from([[], {}, 2.5]),
    _INSERTED,
)
_FIELDS = {
    "machine": st.sampled_from(["M1", "M2", "$event.machine"]),
    "order": st.sampled_from(["O1", "O2", "$event.order"]),
    "duration": st.integers(1, 40) | _SAMPLE | st.just("$event.time"),
    "policy": st.sampled_from(["rework", "scrap"]),
    "order_id": st.sampled_from(["O1", "O3", "$event.order"]),
    "priority": st.integers(-2, 9) | _SAMPLE,
}
# The fields each action kind acts on.
_SHAPES = {
    "machine-down": ("machine", "duration"),
    "machine-up": ("machine",),
    "supply-shortage": ("machine", "duration"),
    "supply-restore": ("machine",),
    "product-reject": ("order", "policy"),
    "insert-order": ("order",),
    "cancel-order": ("order_id",),
    "set-priority": ("order_id", "priority"),
    "announce-breakdown": ("machine",),
    "announce-supply-block": ("machine",),
}
_PRIMITIVE = st.one_of(
    st.builds(lambda t: {"kind": "at-time", "time": t}, st.integers(0, 80)),
    st.builds(lambda e, n: {"kind": "on-event", "event": e, "occurrence": n},
              st.sampled_from(sorted(EVENT_KINDS)), st.integers(1, 3)),
)
_TRIGGERS = _PRIMITIVE | st.builds(
    lambda base, delay: {"kind": "after", "base": base, "delay": delay},
    _PRIMITIVE, st.integers(0, 20),
)
_DISTRIBUTIONS = st.sampled_from([
    {"kind": "constant", "value": 0},
    {"kind": "constant", "value": 30},
    {"kind": "uniform-int", "low": 0, "high": 9},
    {"kind": "uniform-int", "low": 5, "high": 40},
    {"kind": "exponential-int", "mean": 20},
])


@st.composite
def _actions(draw, max_faults=2, kinds=tuple(sorted(_SHAPES))):
    """A well-formed action of one of ``kinds``, then up to ``max_faults``
    faults: a field set to any value (a wrong type, a boolean, zero, a bad
    reference), a field dropped, a misspelt key, or an unknown action kind."""
    kind = draw(st.sampled_from(kinds))
    payload = {"kind": kind}
    for key in _SHAPES[kind]:
        payload[key] = draw(_INSERTED if kind == "insert-order" else _FIELDS[key])
    action = {"kind": "inject" if kind in INJECTION_KINDS else "direct"}
    for _ in range(draw(st.integers(0, max_faults))):
        fault = draw(st.sampled_from(["set", "set", "drop", "misspell", "kind"]))
        if fault == "set":
            payload[draw(st.sampled_from(["kind", *_FIELDS]))] = draw(_VALUES)
        elif fault == "drop":
            payload.pop(draw(st.sampled_from(sorted(payload))), None)
        elif fault == "misspell":
            payload["durration"] = draw(_VALUES)
        else:
            action["kind"] = draw(st.sampled_from(["inject", "direct", "explode"]))
    action["directive" if action["kind"] == "direct" else "injection"] = payload
    return action


@st.composite
def _scenario_docs(draw, max_faults=2, kinds=tuple(sorted(_SHAPES))):
    rules = [
        {
            "id": f"r{i}",
            "trigger": draw(_TRIGGERS),
            "actions": draw(st.lists(_actions(max_faults, kinds), min_size=1, max_size=2)),
            "max_occurrences": draw(st.integers(1, 2)),
        }
        for i in range(draw(st.integers(1, 2)))
    ]
    return scenario_doc(rules=rules, distributions={"d": draw(_DISTRIBUTIONS)})


_OUTAGE_KINDS = ("machine-down", "machine-up", "supply-restore", "supply-shortage")
# Outage start event -> (its end event, the injection that ends it early).
_OUTAGE_ENDS = {"machine-down": ("machine-up", "machine-up"),
                "supply-blocked": ("supply-restored", "supply-restore")}


def _outage_timing_faults(log):
    """Read only from the log: each outage start carrying ``info.duration``
    d at time t must be ended by its end event at exactly t + d, earlier
    only at a tick where an injection ended that outage of that machine,
    and may lack an end only if the log ends before t + d."""
    faults = []
    injected = set()  # (end event kind, machine, tick) of each injected end
    open_ = {}  # (end event kind, machine) -> (start time, due)
    last = 0
    ended_by = {injection: end for end, injection in _OUTAGE_ENDS.values()}
    for _line, record in iter_records(log):
        last = record["t"]
        if record["kind"] == "injection":
            inj = record["body"]["injection"]
            if inj["kind"] in ended_by:
                injected.add((ended_by[inj["kind"]], inj["machine"], record["t"]))
        elif record["kind"] == "event-batch":
            for ev in record["body"]["events"]:
                kind, t = ev["kind"], ev["time"]
                if kind in _OUTAGE_ENDS and "duration" in ev.get("info", {}):
                    open_[_OUTAGE_ENDS[kind][0], ev["machine"]] = (t, t + ev["info"]["duration"])
                elif (kind, ev.get("machine")) in open_:
                    start, due = open_.pop((kind, ev["machine"]))
                    if t != due and (t > due or (kind, ev["machine"], t) not in injected):
                        faults.append(f"{kind} {ev['machine']} at {t}, started {start}, due {due}")
    faults += [f"{kind} {mid} due {due} missing, log ends at {last}"
               for (kind, mid), (_start, due) in open_.items() if last >= due]
    return faults


class TestWhateverLoadsRuns:
    @settings(max_examples=100, deadline=None)
    @given(doc=_scenario_docs(), seed=st.integers(0, 3))
    def test_document_fails_at_load_or_runs_to_a_verdict(self, doc, seed):
        try:
            scenario = load_scenario_doc(doc, model=MODEL, orders=ORDERS)
        except ScenarioError:
            return
        result = run_single(MODEL, ORDERS, scenario, seed)
        assert result.status in ("completed", "stalled", "cap-exceeded")

    @settings(max_examples=100, deadline=None)
    @given(doc=_scenario_docs() | _scenario_docs(max_faults=0, kinds=_OUTAGE_KINDS),
           seed=st.integers(0, 3))
    def test_each_timed_outage_ends_on_time(self, doc, seed):
        """Half the documents are drawn without faults and with outage
        actions only, so that most of them load and many time an outage."""
        try:
            scenario = load_scenario_doc(doc, model=MODEL, orders=ORDERS)
        except ScenarioError:
            return
        assert _outage_timing_faults(run_single(MODEL, ORDERS, scenario, seed).log) == []

    def test_outage_timing_reads_ends_from_the_log(self):
        """The checker itself: an end on time, an injected early end, a
        late end, an early end with no injection, and a missing end."""
        def batch(t, *events):
            return make_record("emulation", 1, t, "event-batch",
                               {"events": [dict(e, time=t, seq=1) for e in events],
                                "notices": []})

        down = {"kind": "machine-down", "machine": "M1", "node": "M1",
                "info": {"duration": 10}}
        up = {"kind": "machine-up", "machine": "M1", "node": "M1"}
        early = make_record("scenario-manager", 1, 4, "injection",
                            {"rule": "r", "injection": {"kind": "machine-up", "machine": "M1"}})
        logs = {
            "on-time": [batch(0, down), batch(10, up)],
            "injected-early": [batch(0, down), early, batch(4, up)],
            "late": [batch(0, down), batch(11, up)],
            "early": [batch(0, down), batch(4, up)],
            "missing": [batch(0, down), batch(12)],
            "run-ends-first": [batch(0, down), batch(9)],
        }
        faults = {name: _outage_timing_faults(b"".join(map(encode_record, records)))
                  for name, records in logs.items()}
        assert {name for name, found in faults.items() if found} == {"late", "early", "missing"}


class TestManagerRuntime:
    def _manager(self, rules, distributions=None, seed=1):
        return ScenarioManager(
            load_scenario_doc(scenario_doc(rules=rules, distributions=distributions)),
            seed,
        )

    def test_at_time_fires_at_first_batch_reaching_it(self):
        m = self._manager([down_rule({"kind": "at-time", "time": 10})])
        assert m.process_batch(4, []) == []
        # no batch lands exactly on 10; the first one past it fires
        (firing,) = m.process_batch(17, [])
        assert firing.rule_id == "r1"
        assert firing.injections[0].kind == "machine-down"
        assert m.process_batch(18, []) == []  # once only

    def test_on_event_with_where_and_occurrence(self):
        trigger = {
            "kind": "on-event",
            "event": "op-started",
            "where": {"machine": "M2"},
            "occurrence": 2,
        }
        m = self._manager([down_rule(trigger)])
        assert m.process_batch(0, [ev("op-started", machine="M1")]) == []
        assert m.process_batch(1, [ev("op-started", machine="M2", seq=2)]) == []
        (firing,) = m.process_batch(2, [ev("op-started", machine="M2", seq=3)])
        assert firing.rule_id == "r1"

    def test_max_occurrences_recurrence(self):
        trigger = {"kind": "on-event", "event": "op-finished"}
        m = self._manager([down_rule(trigger, max_occurrences=2)])
        assert len(m.process_batch(0, [ev("op-finished", machine="M1")])) == 1
        assert len(m.process_batch(1, [ev("op-finished", machine="M1", seq=2)])) == 1
        assert m.process_batch(2, [ev("op-finished", machine="M1", seq=3)]) == []

    def test_after_event_delay(self):
        trigger = {
            "kind": "after",
            "base": {"kind": "on-event", "event": "op-started"},
            "delay": 7,
        }
        m = self._manager([down_rule(trigger)])
        assert m.process_batch(3, [ev("op-started", machine="M1", time=3)]) == []
        assert m.process_batch(8, []) == []  # 3 + 7 = 10 not reached
        (firing,) = m.process_batch(12, [])
        assert firing.injections[0].machine == "M1"

    def test_delayed_firing_keeps_its_own_copy_of_the_event(self):
        """The batch's event bodies go on the wire and to the recorder's
        taps, which may alter them once recorded; a delayed firing reads
        the event as it was."""
        rule = down_rule({"kind": "after", "delay": 7,
                          "base": {"kind": "on-event", "event": "op-started"}})
        rule["actions"][0]["injection"]["machine"] = "$event.machine"
        m = self._manager([rule])
        batch = [ev("op-started", machine="M2", time=3)]
        assert m.process_batch(3, batch) == []
        batch[0].clear()
        (firing,) = m.process_batch(10, [])
        assert firing.injections[0].machine == "M2"

    def test_after_at_time_chains_sum(self):
        trigger = {
            "kind": "after",
            "delay": 5,
            "base": {"kind": "after", "delay": 5, "base": {"kind": "at-time", "time": 10}},
        }
        m = self._manager([down_rule(trigger)])
        assert m.process_batch(10, []) == []
        assert m.process_batch(19, []) == []
        assert len(m.process_batch(20, [])) == 1

    def test_event_fields_bind_into_actions(self):
        rule = down_rule({"kind": "on-event", "event": "op-started"})
        rule["actions"][0]["injection"]["machine"] = "$event.machine"
        m = self._manager([rule])
        (firing,) = m.process_batch(0, [ev("op-started", machine="M2")])
        assert firing.injections[0].machine == "M2"

    def test_sampled_parameters_draw_from_named_stream(self):
        rule = down_rule({"kind": "at-time", "time": 0})
        rule["actions"][0]["injection"]["duration"] = {"sample": "d"}
        dists = {"d": {"kind": "uniform-int", "low": 20, "high": 40}}
        a = self._manager([rule], distributions=dists, seed=1)
        b = self._manager([rule], distributions=dists, seed=1)
        assert a.process_batch(0, [])[0].injections[0].duration == \
               b.process_batch(0, [])[0].injections[0].duration

    def test_firing_order_is_rule_then_event(self):
        rules = [
            down_rule({"kind": "at-time", "time": 5}, rule_id="tick", machine="M1"),
            down_rule({"kind": "on-event", "event": "op-started"}, rule_id="evt",
                      machine="M2"),
        ]
        m = self._manager(rules)
        firings = m.process_batch(5, [ev("op-started", machine="M1", time=5)])
        assert [f.rule_id for f in firings] == ["tick", "evt"]

    def test_firing_order_time_then_delayed_then_event_rule(self):
        rules = [
            down_rule({"kind": "on-event", "event": "op-finished"}, rule_id="a"),
            down_rule({"kind": "on-event", "event": "op-started"}, rule_id="b",
                      max_occurrences=1),
            down_rule({"kind": "on-event", "event": "op-finished"}, rule_id="c"),
            down_rule({"kind": "at-time", "time": 5}, rule_id="t"),
            down_rule({"kind": "after", "delay": 3, "base": {"kind": "at-time", "time": 2}},
                      rule_id="d"),
        ]
        m = self._manager(rules)
        assert m.process_batch(2, []) == []
        batch = [
            ev("op-finished", machine="M1", time=5, seq=1),
            ev("op-started", machine="M2", time=5, seq=2),
            ev("op-started", machine="M1", time=5, seq=3),
        ]
        firings = m.process_batch(5, batch)
        # b is disarmed by its first match and skips the second op-started.
        assert [f.rule_id for f in firings] == ["t", "d", "a", "c", "b"]
        assert m.process_batch(9, [ev("op-started", machine="M1", time=9, seq=4)]) == []

    def test_empty_event_field_skips_the_firing_and_keeps_the_rule_armed(self):
        """A product rejected in transit names no machine; the rule waits
        for one rejected in process."""
        rule = down_rule({"kind": "on-event", "event": "product-rejected"})
        rule["actions"][0]["injection"]["machine"] = "$event.machine"
        m = self._manager([rule])
        assert m.process_batch(0, [ev("product-rejected", order="O1", shuttle="S1")]) == []
        (firing,) = m.process_batch(1, [ev("product-rejected", order="O2", machine="M2", seq=2)])
        assert firing.injections[0].machine == "M2"

    def test_never_carried_event_field_is_refused_at_load(self, minicell_model,
                                                          minicell_orders):
        """Released orders name no machine, so this rule would never fire
        and the run would end ``completed`` without its disturbance."""
        rule = down_rule({"kind": "on-event", "event": "order-released"})
        rule["actions"][0]["injection"]["machine"] = "$event.machine"
        with pytest.raises(ScenarioError, match=re.escape(
                "rules[0].actions[0].injection: '$event.machine' names no field")):
            load_scenario_doc(scenario_doc(rules=[rule]), model=minicell_model,
                              orders=minicell_orders)

    def test_null_scenario_never_fires(self, null_scenario):
        m = ScenarioManager(null_scenario, 1)
        assert m.process_batch(0, [ev("op-started", machine="M1")]) == []
        assert m.process_batch(10**6, []) == []
