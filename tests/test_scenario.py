"""Scenario documents, seeded streams, trigger runtime and the label registry."""

import json
from collections import Counter
from importlib import resources

import pytest

from holobench.messages import SimEvent
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


def ev(kind, time=0, seq=1, **kw):
    return SimEvent(time=time, seq=seq, kind=kind, **kw)


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
        ],
    )
    def test_distribution_validation(self, doc):
        with pytest.raises(ScenarioError):
            Distribution.from_doc("d", doc)


class TestTriggerParsing:
    def test_after_nesting_limit(self):
        inner = {"kind": "at-time", "time": 0}
        one = {"kind": "after", "base": inner, "delay": 1}
        two = {"kind": "after", "base": one, "delay": 1}
        Trigger.from_doc(two, "t")  # two levels are allowed
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
        ],
    )
    def test_trigger_validation(self, doc, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            Trigger.from_doc(doc, "t")


class TestScenarioLoading:
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

    def test_null_scenario_never_fires(self, null_scenario):
        m = ScenarioManager(null_scenario, 1)
        assert m.process_batch(0, [ev("op-started", machine="M1")]) == []
        assert m.process_batch(10**6, []) == []
