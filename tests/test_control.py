"""Reference control: order book, belief updates, dispatch policy and the
closed loop against the kernel."""

import json
import re
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings

from holobench import harness
from holobench.control import (
    ControlProtocolError,
    OrderBookError,
    ProductOrder,
    ReferenceControl,
    load_orders,
)
from holobench.harness import run_single
from holobench.interface import InProcEndpoint, extract_command_log, replay_session
from holobench.kernel import EmulationKernel
from holobench.messages import ControlDirective, Notice, SimEvent
from holobench.model import load_model, load_model_doc
from holobench.scenario import load_scenario_doc
from strategies import ORACLE_SHOP, oracle_sessions


def order(oid, routing=("A",), release=0, due=60, priority=0):
    return ProductOrder(id=oid, routing=tuple(routing), release=release, due=due,
                        priority=priority)


def ev(kind, **kw):
    kw.setdefault("time", 0)
    kw.setdefault("seq", 1)
    return SimEvent(kind=kind, **kw).to_dict()


def fields(cmd, *names):
    """The named fields of a command body, None where it leaves one out."""
    return tuple(cmd.get(name) for name in names)


def drive_to_completion(model, orders, cap=500):
    """Minimal lock-step loop: control and kernel, no wire in between."""
    kernel = EmulationKernel(model)
    ctl = ReferenceControl(model)
    ctl.load_orders(orders)
    stream = []
    commands, _ = ctl.on_round(0, [], [], [])
    for _ in range(cap):
        batch = kernel.advance(commands)
        stream.extend(batch)
        notices = kernel.drain_notices()
        if not batch and not notices and not commands and not kernel.has_pending():
            break
        now = batch[0]["time"] if batch else kernel.clock
        commands, idle = ctl.on_round(now, [], batch, notices)
    else:
        raise AssertionError("loop did not converge")
    return stream, ctl, idle


class TestOrderBook:
    def test_load_orders_names_an_entry_that_is_no_object(self):
        with pytest.raises(OrderBookError, match=re.escape("order [] must be an object")):
            load_orders('{"orders": [{"id": "O1", "routing": ["A"], "release": 0, "due": 9}, []]}')

    @pytest.mark.parametrize("text, message", [
        ("not json", "order book is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "order book must be an object with an orders list"),
        ('{"order": []}', "order book must be an object with an orders list"),
        ('{"orders": {}}', "orders must be a list"),
        ('{"orders": null}', "orders must be a list"),
    ])
    def test_load_orders_refusals_read_exactly(self, text, message):
        with pytest.raises(OrderBookError) as refused:
            load_orders(text)
        assert str(refused.value) == message

    def test_load_orders_rejects_duplicates(self):
        text = ('{"orders": [{"id": "O1", "routing": ["A"], "release": 0, "due": 9},'
                ' {"id": "O1", "routing": ["A"], "release": 0, "due": 9}]}')
        with pytest.raises(OrderBookError, match="duplicate"):
            load_orders(text)

    @pytest.mark.parametrize(
        "doc, fragment",
        [
            ({"id": "O1", "routing": [], "release": 0, "due": 1}, "routing"),
            ({"id": "O1", "routing": ["A", 3], "release": 0, "due": 1}, "strings"),
            ({"id": "O1", "routing": ["A"], "release": -1, "due": 1}, "release"),
            ({"id": "O1", "routing": ["A"], "release": 0}, "due"),
            ({"id": "", "routing": ["A"], "release": 0, "due": 1}, "id"),
            ({"id": "O1", "routing": ["A"], "release": 0, "due": 1, "priority": "hi"}, "priority"),
            ({"id": "O1", "routing": ["A"], "release": True, "due": 1}, "release"),
            ({"id": "O1", "routing": ["A"], "release": 0, "due": False}, "due"),
            ({"id": "O1", "routing": ["A"], "release": 0, "due": 1, "priority": True}, "priority"),
            *((entry, "must be an object") for entry in (5, "x", None, True, [])),
        ],
    )
    def test_order_validation(self, doc, fragment):
        with pytest.raises(OrderBookError, match=fragment):
            ProductOrder.from_dict(doc)

    def test_model_hash_check(self, minicell_model, control):
        control.check_model_hash(minicell_model.model_hash)
        with pytest.raises(ControlProtocolError):
            control.check_model_hash("0" * 64)


class TestDispatch:
    def test_bootstrap_releases_in_id_order(self, control):
        control.load_orders([order("O2"), order("O1")])
        commands, idle = control.on_round(0, [], [], [])
        assert [(c["kind"], c.get("order")) for c in commands] == [
            ("release-order", "O1"),
            ("release-order", "O2"),
        ]
        assert not idle

    def test_release_respects_release_time(self, control):
        control.load_orders([order("O1", release=30)])
        assert control.on_round(0, [], [], [])[0] == []
        (cmd,) = control.on_round(30, [], [], [])[0]
        assert cmd["kind"] == "release-order"

    def test_released_order_gets_carry_move(self, control):
        control.load_orders([order("O1", routing=("A",))])
        control.on_round(0, [], [], [])
        (cmd,) = control.on_round(0, [], [ev("order-released", order="O1", node="IN")], [])[0]
        # shuttle and product share a node: a single loaded move
        assert cmd["kind"] == "move-shuttle"
        assert cmd.get("carry") == "O1" and cmd.get("destination") == "M1"
        assert cmd.get("shuttle") == "S1"  # id tiebreak among the idle pair at IN

    def test_fetch_then_carry_when_apart(self, control):
        control.load_orders([order("O1", routing=("B",))])
        control.on_round(0, [], [], [])
        # order waits at M1 while both shuttles sit at IN: fetch leg first
        (fetch,) = control.on_round(
            0, [], [ev("order-released", order="O1", node="M1")], []
        )[0]
        assert fields(fetch, "kind", "carry", "destination") == ("move-shuttle", None, "M1")
        arrive = [
            ev("shuttle-departed", shuttle="S1", node="IN"),
            ev("shuttle-arrived", shuttle="S1", node="M1", seq=2),
        ]
        (carry,) = control.on_round(5, [], arrive, [])[0]
        assert (carry.get("carry"), carry.get("destination")) == ("O1", "M2")

    def test_rank_prefers_priority_then_due(self, control):
        control.load_orders([
            order("O1", due=50, priority=0),
            order("O2", due=90, priority=5),
            order("O3", due=40, priority=0),
        ])
        control.on_round(0, [], [], [])
        released = [
            ev("order-released", order=oid, node="IN", seq=i + 1)
            for i, oid in enumerate(["O1", "O2", "O3"])
        ]
        commands, _ = control.on_round(0, [], released, [])
        # two shuttles: O2 (priority) and O3 (earlier due) win them
        carried = {c.get("carry") for c in commands if c["kind"] == "move-shuttle"}
        assert carried == {"O2", "O3"}

    def test_start_issued_when_product_waits_at_machine(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        batch = [
            ev("order-released", order="O1", node="IN"),
            ev("shuttle-departed", shuttle="S1", order="O1", node="IN", seq=2),
            ev("shuttle-arrived", shuttle="S1", order="O1", node="M1", seq=3),
        ]
        (cmd,) = control.on_round(5, [], batch, [])[0]
        assert (cmd["kind"], cmd.get("machine"), cmd.get("operation"), cmd.get("order")) == (
            "start-op", "M1", "A", "O1",
        )

    def test_no_start_while_machine_believed_down(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        batch = [
            ev("order-released", order="O1", node="M1"),
            ev("machine-down", machine="M1", node="M1", seq=2),
        ]
        assert control.on_round(0, [], batch, [])[0] == []
        (cmd,) = control.on_round(9, [], [ev("machine-up", machine="M1", node="M1", time=9)], [])[0]
        assert cmd["kind"] == "start-op"


class TestDirectives:
    def test_insert_order_joins_book(self, control):
        d = ControlDirective(kind="insert-order", order={
            "id": "OX", "routing": ["A"], "release": 0, "due": 99, "priority": 1,
        })
        commands, _ = control.on_round(0, [d], [], [])
        assert [(c["kind"], c.get("order")) for c in commands] == [("release-order", "OX")]
        assert control.export_kpi()["directives_handled"] == 1

    def test_insert_order_without_capable_machine_is_dropped(self, control):
        d = ControlDirective(kind="insert-order", order={
            "id": "OX", "routing": ["Z"], "release": 0, "due": 99,
        })
        commands, _ = control.on_round(0, [d], [], [])
        assert commands == []
        assert control.export_kpi()["directives_handled"] == 0

    @pytest.mark.parametrize("directive", [
        ControlDirective(kind="cancel-order", order_id="OX"),
        ControlDirective(kind="set-priority", order_id="OX", priority=9),
    ], ids=["cancel-order", "set-priority"])
    def test_directive_for_an_order_not_held_is_dropped(self, control, directive):
        control.load_orders([order("O1", release=50)])
        assert control.on_round(0, [], [], [])[0] == []
        before = control.export_kpi()
        commands, _ = control.on_round(1, [directive], [], [])
        assert commands == []
        assert control.export_kpi() == before and before["directives_handled"] == 0
        (release,) = control.on_round(50, [], [], [])[0]
        assert (release["kind"], release.get("order")) == ("release-order", "O1")

    def test_cancel_before_release_closes_on_the_book(self, control):
        control.load_orders([order("O1", release=50)])
        d = ControlDirective(kind="cancel-order", order_id="O1")
        commands, idle = control.on_round(0, [d], [], [])
        assert commands == [] and idle

    def test_cancel_on_floor_issues_command(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        batch = [ev("order-released", order="O1", node="IN")]
        d = ControlDirective(kind="cancel-order", order_id="O1")
        commands, _ = control.on_round(0, [d], batch, [])
        assert ("cancel-order", "O1") in [(c["kind"], c.get("order")) for c in commands]

    def test_cancel_frees_the_shuttle_on_its_fetch_leg(self, line_model):
        control = ReferenceControl(line_model)
        control.load_orders([order("O1"), order("O2", release=50, due=90)])
        control.on_round(0, [], [], [])
        park = [ev("shuttle-departed", shuttle="S1", node="IN", seq=1),
                ev("shuttle-arrived", shuttle="S1", node="OUT", seq=2, time=10)]
        assert control.on_round(10, [], park, [])[0] == []
        released = [ev("order-released", order="O1", node="IN", seq=3, time=10)]
        (fetch,) = control.on_round(10, [], released, [])[0]
        assert fields(fetch, "shuttle", "destination", "carry") == ("S1", "IN", None)
        d = ControlDirective(kind="cancel-order", order_id="O1")
        (cancel,) = control.on_round(11, [d], [], [])[0]
        assert (cancel["kind"], cancel.get("order")) == ("cancel-order", "O1")
        leg = [ev("shuttle-departed", shuttle="S1", node="OUT", seq=4, time=11),
               ev("order-cancelled", order="O1", node="IN", seq=5, time=11),
               ev("shuttle-arrived", shuttle="S1", node="IN", seq=6, time=21)]
        assert control.on_round(21, [], leg, [])[0] == []
        (release,) = control.on_round(50, [], [], [])[0]
        assert (release["kind"], release.get("order")) == ("release-order", "O2")
        released = [ev("order-released", order="O2", node="IN", seq=7, time=50)]
        (carry,) = control.on_round(50, [], released, [])[0]
        # S1 is no longer reserved by the cancelled O1
        assert fields(carry, "shuttle", "destination", "carry") == ("S1", "M1", "O2")

    def test_set_priority_reorders_dispatch(self, control):
        control.load_orders([order("O1", due=10), order("O2", due=20)])
        control.on_round(0, [], [], [])
        released = [
            ev("order-released", order="O1", node="IN"),
            ev("order-released", order="O2", node="IN", seq=2),
        ]
        d = ControlDirective(kind="set-priority", order_id="O2", priority=9)
        commands, _ = control.on_round(0, [d], released, [])
        moves = [c for c in commands if c["kind"] == "move-shuttle"]
        assert moves[0]["carry"] == "O2"

    def test_announce_breakdown_steers_beliefs(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        d = ControlDirective(kind="announce-breakdown", machine="M1")
        batch = [ev("order-released", order="O1", node="M1")]
        assert control.on_round(0, [d], batch, [])[0] == []


class TestBeliefRepair:
    def test_preemption_counts_reschedule_and_restarts(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        walk = [
            ev("order-released", order="O1", node="M1"),
            ev("op-started", machine="M1", order="O1", node="M1", seq=2),
        ]
        control.on_round(0, [], walk, [])
        down = ev("machine-down", machine="M1", node="M1", time=3,
                  info={"preempted": "O1"})
        assert control.on_round(3, [], [down], [])[0] == []
        assert control.export_kpi()["reschedules"] == 1
        # recovery restarts the same step from zero
        (cmd,) = control.on_round(8, [], [ev("machine-up", machine="M1", node="M1", time=8)], [])[0]
        assert (cmd["kind"], cmd.get("operation")) == ("start-op", "A")

    def test_rejected_start_retries_and_counts(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        control.on_round(0, [], [ev("order-released", order="O1", node="M1")], [])
        n = Notice(time=0, kind="command-rejected", reason="busy",
                   command={"kind": "start-op", "machine": "M1", "order": "O1",
                            "operation": "A"})
        (cmd,) = control.on_round(0, [], [], [n])[0]
        assert cmd["kind"] == "start-op"
        assert control.export_kpi()["reschedules"] == 1

    def test_rejected_release_is_retried(self, control):
        control.load_orders([order("O1")])
        (first,) = control.on_round(0, [], [], [])[0]
        n = Notice(time=0, kind="command-rejected", reason="nope",
                   command=first)
        (again,) = control.on_round(0, [], [], [n])[0]
        assert again["kind"] == "release-order" and again.get("order") == "O1"

    def test_rejected_cancel_is_retried(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        d = ControlDirective(kind="cancel-order", order_id="O1")
        batch = [ev("order-released", order="O1", node="IN")]
        (first,) = control.on_round(0, [d], batch, [])[0]
        assert (first["kind"], first.get("order")) == ("cancel-order", "O1")
        assert control.on_round(1, [], [], [])[0] == []
        n = Notice(time=1, kind="command-rejected", reason="nope",
                   command=first)
        (again,) = control.on_round(1, [], [], [n])[0]
        assert again == first

    def test_rework_at_rest_repeats_the_step(self, control):
        control.load_orders([order("O1", routing=("A", "B"))])
        control.on_round(0, [], [], [])
        walk = [
            ev("order-released", order="O1", node="M1"),
            ev("op-started", machine="M1", order="O1", node="M1", seq=2),
            ev("op-finished", machine="M1", order="O1", node="M1", seq=3, time=10),
        ]
        control.on_round(10, [], walk, [])
        reject = ev("product-rejected", order="O1", node="M1", time=10, seq=4,
                    info={"policy": "rework"})
        commands, _ = control.on_round(10, [], [reject], [])
        # progress dropped back to step A, still at its machine
        assert ("start-op", "A") in [(c["kind"], c.get("operation")) for c in commands]

    def test_scrap_closes_the_holon(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        control.on_round(0, [], [ev("order-released", order="O1", node="IN")], [])
        reject = ev("product-rejected", order="O1", node="IN", seq=2,
                    info={"policy": "scrap"})
        commands, idle = control.on_round(0, [], [reject], [])
        assert commands == [] and idle


# Two machines both perform A; M1 is nearer to IN than M2.
TWIN_MODEL = {
    "machines": {
        "M1": {"node": "M1", "operations": {"A": 10}},
        "M2": {"node": "M2", "operations": {"A": 10}},
    },
    "transport": {
        "nodes": ["IN", "M1", "M2", "OUT"],
        "edges": [
            {"from": a, "to": b, "travel": 3 if "M1" in (a, b) else 6}
            for a in ("IN", "M1", "M2", "OUT")
            for b in ("IN", "M1", "M2", "OUT")
            if a != b
        ],
    },
    "shuttles": {"S1": {"home": "IN"}, "S2": {"home": "IN"}, "S3": {"home": "IN"}},
    "stations": {"input": "IN", "output": "OUT"},
}


def rejected(cmd):
    return Notice(time=0, kind="command-rejected", reason="test", command=dict(cmd))


class TestDecisionIndexes:
    """Every way a cached decision table can go stale, seen through on_round."""

    def test_set_priority_after_rank_cache_is_built(self, control):
        control.load_orders([order("O1", due=10), order("O2", due=20), order("O3", due=30)])
        control.on_round(0, [], [], [])
        released = [ev("order-released", order=o, node="M1", seq=i + 1)
                    for i, o in enumerate(["O1", "O2", "O3"])]
        (start,) = control.on_round(0, [], released, [])[0]
        assert (start["kind"], start.get("order")) == ("start-op", "O1")
        walk = [ev("op-started", machine="M1", order="O1", node="M1", seq=4),
                ev("op-finished", machine="M1", order="O1", node="M1", seq=5, time=10)]
        promote = ControlDirective(kind="set-priority", order_id="O3", priority=9)
        commands, _ = control.on_round(10, [promote], walk, [])
        starts = [c.get("order") for c in commands if c["kind"] == "start-op"]
        assert starts == ["O3"]

    def test_insert_order_sorting_before_pending_releases(self, control):
        control.load_orders([order("O2"), order("O3", release=50), order("O5", release=20)])
        assert [c.get("order") for c in control.on_round(0, [], [], [])[0]] == ["O2"]
        inserts = [
            ControlDirective(kind="insert-order", order={
                "id": oid, "routing": ["A"], "release": release, "due": 99})
            for oid, release in (("O1", 50), ("O4", 20))
        ]
        assert control.on_round(10, inserts, [], [])[0] == []
        commands, _ = control.on_round(20, [], [], [])
        assert [(c["kind"], c.get("order")) for c in commands] == [
            ("release-order", "O4"), ("release-order", "O5"),
        ]
        commands, _ = control.on_round(50, [], [], [])
        assert [(c["kind"], c.get("order")) for c in commands] == [
            ("release-order", "O1"), ("release-order", "O3"),
        ]

    def test_rejected_move_is_retried(self, control):
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        (move,) = control.on_round(0, [], [ev("order-released", order="O1", node="IN")], [])[0]
        assert (move.get("shuttle"), move.get("carry")) == ("S1", "O1")
        (again,) = control.on_round(1, [], [], [rejected(move)])[0]
        assert again == move
        assert control.export_kpi()["reschedules"] == 1

    def test_breakdown_and_repair_flip_the_destination(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        control.load_orders([order("O1"), order("O2", release=1), order("O3", release=2)])
        control.on_round(0, [], [], [])
        (m1,) = control.on_round(0, [], [ev("order-released", order="O1", node="IN")], [])[0]
        assert (m1.get("carry"), m1.get("destination")) == ("O1", "M1")
        down = [ev("shuttle-departed", shuttle="S1", order="O1", node="IN", time=1, seq=2),
                ev("machine-down", machine="M1", node="M1", time=1, seq=3)]
        control.on_round(1, [], down, [])  # releases O2
        (m2,) = control.on_round(
            1, [], [ev("order-released", order="O2", node="IN", time=1, seq=4)], [])[0]
        assert (m2.get("carry"), m2.get("destination")) == ("O2", "M2")
        up = [ev("shuttle-departed", shuttle="S2", order="O2", node="IN", time=2, seq=5),
              ev("machine-up", machine="M1", node="M1", time=2, seq=6)]
        control.on_round(2, [], up, [])  # releases O3
        (m3,) = control.on_round(
            2, [], [ev("order-released", order="O3", node="IN", time=2, seq=7)], [])[0]
        assert (m3.get("carry"), m3.get("destination")) == ("O3", "M1")

    def test_closed_holons_never_reappear(self, control):
        control.load_orders([order("O1"), order("O2"), order("O3", release=90)])
        control.on_round(0, [], [], [])
        walk = [
            ev("order-released", order="O1", node="M1", seq=1),
            ev("order-released", order="O2", node="OUT", seq=2),
            ev("op-started", machine="M1", order="O1", node="M1", seq=3),
            ev("op-finished", machine="M1", order="O1", node="M1", seq=4, time=10),
            ev("product-rejected", order="O1", node="M1", seq=5, time=10,
               info={"policy": "scrap"}),
            ev("order-completed", order="O2", node="OUT", seq=6, time=10),
        ]
        assert control.on_round(10, [], walk, [])[0] == []
        # neither a re-rank nor a later arrival may bring either back
        directives = [ControlDirective(kind="set-priority", order_id=o, priority=9)
                      for o in ("O1", "O2")]
        assert control.on_round(11, directives, [], [])[0] == []
        commands, idle = control.on_round(90, [], [], [])
        assert [(c["kind"], c.get("order")) for c in commands] == [("release-order", "O3")]
        commands, idle = control.on_round(
            90, [], [ev("order-released", order="O3", node="IN", time=90, seq=7)], [])
        assert {c.get("carry") for c in commands} == {"O3"} and not idle

    @staticmethod
    def _queued_behind_o1(control):
        """O1 in process at M1, O2 queued there, S1 idle at M1, S2 and S3 at IN."""
        control.load_orders([order("O1", due=10), order("O2", due=20)])
        control.on_round(0, [], [], [])
        released = [ev("order-released", order=o, node="M1", seq=i + 1)
                    for i, o in enumerate(["O1", "O2"])]
        (start,) = control.on_round(0, [], released, [])[0]
        assert (start.get("machine"), start.get("order")) == ("M1", "O1")
        settle = [ev("op-started", machine="M1", order="O1", node="M1", seq=3),
                  ev("shuttle-departed", shuttle="S1", node="IN", seq=4),
                  ev("shuttle-arrived", shuttle="S1", node="M1", seq=5, time=3)]
        assert control.on_round(3, [], settle, [])[0] == []

    @pytest.mark.parametrize("disturbance, restore, moved", [
        ("announce-breakdown", "machine-up", [("S1", "M2", "O2")]),
        ("machine-down", "machine-up", [("S1", "M2", "O1"), ("S2", "M1", None)]),
        ("supply-blocked", "supply-restored", [("S1", "M2", "O2")]),
        ("announce-supply-block", "supply-restored", [("S1", "M2", "O2")]),
    ])
    def test_queued_product_leaves_a_stopped_machine_and_stays_once_it_restarts(
        self, disturbance, restore, moved
    ):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        self._queued_behind_o1(control)
        if disturbance.startswith("announce"):
            directives, events = [ControlDirective(kind=disturbance, machine="M1")], []
        else:
            directives, events = [], [ev(disturbance, machine="M1", node="M1", seq=6, time=4)]
        commands = control.on_round(4, directives, events, [])[0]
        assert [fields(c, "kind", "shuttle", "destination", "carry") for c in commands] == [
            ("move-shuttle", *m) for m in moved
        ]
        # The moves are refused and the machine restarts: nothing moves again.
        back = [ev(restore, machine="M1", node="M1", seq=7, time=5)]
        commands = control.on_round(5, [], back, [rejected(c) for c in commands])[0]
        if disturbance == "machine-down":  # the preempted O1 restarts first
            assert [(c["kind"], c.get("order")) for c in commands] == [("start-op", "O1")]
            control.on_round(5, [], [ev("op-started", machine="M1", order="O1",
                                        node="M1", seq=8, time=5)], [])
        else:
            assert commands == []
        # O2 is still queued at M1: it starts there, and the finished O1 is
        # sent to the output station from its machine's node.
        done = [ev("op-finished", machine="M1", order="O1", node="M1", seq=9, time=15)]
        commands = control.on_round(15, [], done, [])[0]
        assert [fields(c, "kind", "machine", "order", "shuttle", "destination", "carry")
                for c in commands] == [
            ("start-op", "M1", "O2", None, None, None),
            ("move-shuttle", None, None, "S1", "OUT", "O1"),
        ]

    def test_rework_at_rest_sends_the_product_back_into_its_queue(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        self._queued_behind_o1(control)
        done = [ev("op-finished", machine="M1", order="O1", node="M1", seq=6, time=10)]
        start, carry = control.on_round(10, [], done, [])[0]
        assert (start["order"], *fields(carry, "carry", "destination")) == ("O2", "O1", "OUT")
        control.on_round(10, [], [ev("op-started", machine="M1", order="O2",
                                     node="M1", seq=7, time=10)], [])
        reject = ev("product-rejected", order="O1", node="M1", seq=8, time=11,
                    info={"policy": "rework"})
        assert control.on_round(11, [], [reject], [rejected(carry)])[0] == []
        finish = ev("op-finished", machine="M1", order="O2", node="M1", seq=9, time=20)
        commands = control.on_round(20, [], [finish], [])[0]
        assert [fields(c, "kind", "machine", "order", "carry") for c in commands] == [
            ("start-op", "M1", "O1", None), ("move-shuttle", None, None, "O2"),
        ]

    def test_rework_in_process_requeues_and_restarts_the_product(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        self._queued_behind_o1(control)
        reject = ev("product-rejected", order="O1", node="M1", seq=6, time=4,
                    info={"policy": "rework"})
        commands = control.on_round(4, [], [reject], [])[0]
        assert [fields(c, "kind", "machine", "order") for c in commands] == [
            ("start-op", "M1", "O1")]

    def test_set_priority_reorders_a_machine_queue(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        control.load_orders([order("O1", due=10), order("O2", due=20), order("O3", due=30),
                             order("O4", due=40)])
        control.on_round(0, [], [], [])
        released = [ev("order-released", order=o, node="M1", seq=i + 1)
                    for i, o in enumerate(["O1", "O2", "O3", "O4"])]
        control.on_round(0, [], released, [])
        control.on_round(1, [], [ev("op-started", machine="M1", order="O1", node="M1",
                                    seq=5, time=1)], [])
        reorder = [ControlDirective(kind="set-priority", order_id="O4", priority=5),
                   ControlDirective(kind="set-priority", order_id="O2", priority=-1)]
        assert control.on_round(2, reorder, [], [])[0] == []
        starts = []
        for i, running in enumerate(["O1", "O4", "O3"]):
            t = 10 * (i + 1)
            walk = [ev("op-finished", machine="M1", order=running, node="M1",
                       seq=10 + 2 * i, time=t)]
            commands = control.on_round(t, [], walk, [])[0]
            (start,) = [c for c in commands if c["kind"] == "start-op"]
            starts.append(start.get("order"))
            control.on_round(t, [], [ev("op-started", machine="M1", order=start.get("order"),
                                        node="M1", seq=11 + 2 * i, time=t)], [])
        assert starts == ["O4", "O3", "O2"]

    def test_start_rejected_rounds_after_dispatch_is_retried(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        (start,) = control.on_round(0, [], [ev("order-released", order="O1", node="M1")], [])[0]
        assert control.on_round(1, [], [], [])[0] == []
        assert control.on_round(2, [], [], [rejected(start)])[0] == [start]

    def test_cancel_reaches_a_product_already_queued(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        self._queued_behind_o1(control)
        cancel = ControlDirective(kind="cancel-order", order_id="O2")
        commands = control.on_round(4, [cancel], [], [])[0]
        assert [(c["kind"], c.get("order")) for c in commands] == [("cancel-order", "O2")]
        # Cancelled, O2 is no longer offered to M1 once O1 is done.
        done = [ev("op-finished", machine="M1", order="O1", node="M1", seq=6, time=10)]
        commands = control.on_round(10, [], done, [])[0]
        assert [c["kind"] for c in commands] == ["move-shuttle"]

    def test_dispatched_product_stays_when_its_machine_stops_before_starting(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        control.load_orders([order("O1")])
        control.on_round(0, [], [], [])
        (start,) = control.on_round(0, [], [ev("order-released", order="O1", node="M1")], [])[0]
        assert start["kind"] == "start-op"
        assert control.on_round(1, [], [], [])[0] == []
        blocked = [ev("supply-blocked", machine="M1", node="M1", seq=2, time=2)]
        assert control.on_round(2, [], blocked, [])[0] == []

    def test_set_priority_in_a_round_that_touches_no_product(self):
        control = ReferenceControl(load_model(json.dumps(TWIN_MODEL)))
        control.load_orders([order("O1", due=10), order("O2", due=20), order("O3", due=30)])
        control.on_round(0, [], [], [])
        # Both machines are believed down, so the products wait at M1 unmoved.
        down = [ControlDirective(kind="announce-breakdown", machine=m) for m in ("M1", "M2")]
        released = [ev("order-released", order=o, node="M1", seq=i + 1)
                    for i, o in enumerate(["O1", "O2", "O3"])]
        assert control.on_round(0, down, released, [])[0] == []
        # No event names a product this round, yet the queue must be re-sorted.
        promote = ControlDirective(kind="set-priority", order_id="O3", priority=9)
        (start,) = control.on_round(
            5, [promote], [ev("machine-up", machine="M1", node="M1", seq=4, time=5)], [])[0]
        assert (start["kind"], start.get("machine"), start.get("order")) == ("start-op", "M1", "O3")

    @pytest.mark.parametrize("last_closure", ["completed", "cancelled-before-release"])
    def test_idle_exactly_when_last_holon_closes(self, control, last_closure):
        control.load_orders([order("O1"), order("O2", release=50)])
        assert control.on_round(0, [], [], [])[1] is False
        walk = [
            ev("order-released", order="O1", node="OUT", seq=1),
            ev("order-completed", order="O1", node="OUT", seq=2, time=5),
        ]
        cancel = ControlDirective(kind="cancel-order", order_id="O2")
        if last_closure == "completed":
            commands, idle = control.on_round(1, [cancel], [], [])
            assert commands == [] and idle is False  # O1 is still on the floor
            commands, idle = control.on_round(5, [], walk, [])
        else:
            commands, idle = control.on_round(5, [], walk, [])
            assert commands == [] and idle is False  # O2 still waits for t=50
            commands, idle = control.on_round(6, [cancel], [], [])
        assert commands == [] and idle is True


class TestClosedLoop:
    def test_minicell_runs_to_completion(self, minicell_model, minicell_orders):
        stream, ctl, idle = drive_to_completion(minicell_model, minicell_orders)
        assert idle
        done = [e for e in stream if e["kind"] == "order-completed"]
        assert sorted(e.get("order") for e in done) == ["O1", "O2", "O3"]
        assert max(e["time"] for e in stream) == 75
        assert ctl.export_kpi()["reschedules"] == 0

    def test_lone_shuttle_copes(self, line_model):
        stream, ctl, idle = drive_to_completion(
            line_model,
            [order("O1", due=40), order("O2", due=80)],
        )
        assert idle
        done = [e.get("order") for e in stream if e["kind"] == "order-completed"]
        assert sorted(done) == ["O1", "O2"]
        seqs = [e["seq"] for e in stream]
        assert seqs == list(range(1, len(seqs) + 1))


class FullScanControl(ReferenceControl):
    """The oracle: the decision phase that walked every released open holon.

    ``_decide`` is the full-scan body the per-machine queues replaced,
    copied verbatim, except that the rank list is rebuilt from every holon
    each round, by (priority desc, due asc, id asc), instead of being kept up
    to date.
    """

    def _decide(self, now):
        commands: list[dict] = []
        self._release_due(now, commands)
        self._ranked = sorted(
            (h for h in self._orders.values() if h.open_ and h.released),
            key=lambda h: (-h.spec.priority, h.spec.due, h.spec.id),
        )

        # Each node hosts at most one machine, so an idle machine takes the
        # first waiting product at its node that it can serve.
        idle = {
            r.node: r for r in self._machines.values()
            if r.up and not r.blocked and r.busy_order is None and not r.claimed
        }
        picks = {}
        waiting = []
        for h in self._ranked:
            if h.cancel_requested:
                if (
                    not h.cancel_sent
                    and h.processing_at is None
                    and h.node is not None
                ):
                    commands.append({"kind": "cancel-order", "order": h.spec.id})
                    h.cancel_sent = True
            elif not (h.processing_at or h.dispatched_to or h.node is None):
                waiting.append(h)
                r = idle.get(h.node)
                if r is not None and r.id not in picks and h.next_operation in r.operations:
                    picks[r.id] = h

        for mid in sorted(picks):
            h = picks[mid]
            commands.append({
                "kind": "start-op", "machine": mid, "order": h.spec.id,
                "operation": h.next_operation,
            })
            h.dispatched_to = mid
            self._machines[mid].claimed = True

        free = sum(
            1 for s in self._shuttles.values()
            if s.assigned_order is None and s.node is not None
        )
        for h in waiting:
            if h.dispatched_to or (h.assigned_shuttle is None and not free):
                continue
            dest = self._dest_for(h)
            if dest is None or dest == h.node:
                continue
            shuttle = self._pick_shuttle(h)
            if shuttle is None:
                continue
            if h.assigned_shuttle is None:
                free -= 1
            if shuttle.node == h.node:
                commands.append({
                    "kind": "move-shuttle", "shuttle": shuttle.id, "destination": dest,
                    "carry": h.spec.id,
                })
            else:
                commands.append(
                    {"kind": "move-shuttle", "shuttle": shuttle.id, "destination": h.node}
                )
            shuttle.assigned_order = h.spec.id
            h.assigned_shuttle = shuttle.id

        return commands


class TestFullScanOracle:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_indexed_control_issues_what_the_full_scan_issues(self, session):
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
        log = run_single(model, book, scenario, seed).log
        assert extract_command_log(log)
        assert replay_session(log, FullScanControl(model)) == extract_command_log(log)


def beliefs_off_the_floor(control, kernel):
    """Where the control's beliefs about products and machines differ from
    the kernel's state, as (subject, believed, actual) triples."""
    floor = json.loads(kernel.snapshot())
    off = []
    for oid, h in control._orders.items():
        if h.released and h.open_:
            product = floor["products"].get(oid, {})
            actual = (product.get("node"), product.get("processing"))
            if (h.node, h.processing_at) != actual:
                off.append((oid, (h.node, h.processing_at), actual))
    for mid, r in control._machines.items():
        if r.busy_order != floor["machines"][mid]["busy_order"]:
            off.append((mid, r.busy_order, floor["machines"][mid]["busy_order"]))
    return off


class TestBeliefsTrackTheFloor:
    """When the kernel is advanced, the control has been handed every event
    the floor has written, so each released open holon's node (None in
    transit) and running machine, and each resource holon's running order,
    are the floor's."""

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_beliefs_match_the_kernel_at_every_advance(self, session):
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
        control = ReferenceControl(model)
        kernels = []

        class CheckedKernel(EmulationKernel):
            def advance(self, commands):
                kernels.append(self)
                assert beliefs_off_the_floor(control, self) == []
                return super().advance(commands)

        with mock.patch.object(harness, "EmulationKernel", CheckedKernel):
            run_single(model, book, scenario, seed, endpoint=InProcEndpoint(control))
        assert beliefs_off_the_floor(control, kernels[-1]) == []
