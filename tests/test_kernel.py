"""Emulation kernel: hand-traced runs, rejection notices, disturbances,
snapshot round-trips and determinism."""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import holobench
from holobench.harness import load_suite, run_single
from holobench.interface import extract_event_stream
from holobench.kernel import EmulationKernel
from holobench.messages import EVENT_FIELDS, ControlCommand, Injection, SimEvent
from holobench.model import load_model_doc
from holobench.scenario import load_scenario_doc
from conftest import LINE_MODEL
from strategies import ORACLE_SHOP, oracle_sessions


def release(order):
    return ControlCommand(kind="release-order", order=order).to_dict()


def move(shuttle, dest, carry=None):
    return ControlCommand(
        kind="move-shuttle", shuttle=shuttle, destination=dest, carry=carry
    ).to_dict()


def start(machine, op, order):
    return ControlCommand(kind="start-op", machine=machine, operation=op, order=order).to_dict()


def cancel(order):
    return ControlCommand(kind="cancel-order", order=order).to_dict()


def kinds(events):
    return [e["kind"] for e in events]


def state(kernel):
    """The kernel's full state, read through its public snapshot."""
    return json.loads(kernel.snapshot())


def drive_one_order(kernel):
    """Walk O1 through the line model: IN -> M1 (op A) -> OUT."""
    batches = [kernel.advance([release("O1")])]
    batches.append(kernel.advance([move("S1", "M1", carry="O1")]))
    batches.append(kernel.advance())  # arrival at M1
    batches.append(kernel.advance([start("M1", "A", "O1")]))
    batches.append(kernel.advance())  # op finish
    batches.append(kernel.advance([move("S1", "OUT", carry="O1")]))
    batches.append(kernel.advance())  # arrival at OUT completes the order
    return batches


class TestHappyPath:
    def test_hand_traced_timeline(self, line_model):
        k = EmulationKernel(line_model)
        b = drive_one_order(k)
        assert [ev["time"] for batch in b for ev in batch] == [0, 0, 5, 5, 15, 15, 20, 20]
        assert kinds(b[0]) == ["order-released"]
        assert kinds(b[1]) == ["shuttle-departed"]
        assert kinds(b[2]) == ["shuttle-arrived"]
        assert kinds(b[3]) == ["op-started"]
        assert kinds(b[4]) == ["op-finished"]
        assert kinds(b[5]) == ["shuttle-departed"]
        # completion sorts before the arrival inside the batch
        assert kinds(b[6]) == ["order-completed", "shuttle-arrived"]
        assert k.advance() == []
        assert not k.has_pending()
        assert state(k)["products"] == {}
        assert k.drain_notices() == []

    def test_seqs_are_gapless_from_one(self, line_model):
        k = EmulationKernel(line_model)
        seqs = [ev["seq"] for batch in drive_one_order(k) for ev in batch]
        assert seqs == list(range(1, len(seqs) + 1))

    def test_events_in_batch_share_tick(self, line_model):
        k = EmulationKernel(line_model)
        for batch in drive_one_order(k):
            assert len({ev["time"] for ev in batch}) <= 1

    def test_same_tick_batch_orders_by_kind_then_subjects(self, minicell_model):
        k = EmulationKernel(minicell_model)
        # ties within a kind break on the subject ids, not on command order
        released = k.advance([release("O1"), release("O0")])
        assert [ev["order"] for ev in released] == ["O0", "O1"]
        k.advance([move("S2", "M2", carry="O0")])
        k.advance()  # t=5: S2 at M2
        k.advance([start("M2", "B", "O0"), move("S1", "M1", carry="O1")])  # M2 ends at 20
        k.advance()  # t=10: S1 at M1
        k.advance([start("M1", "A", "O1"), move("S2", "IN")])  # M1 ends at 20
        k.advance()  # t=15: S2 at IN
        k.advance([move("S2", "M1")])  # S2 arrives at 20
        # The arrival leaves the pending queue first, yet the batch is sorted
        # by kind, then machine, shuttle, order and node, and numbered after.
        batch = k.advance()
        assert [(ev["kind"], ev.get("machine"), ev.get("shuttle"), ev.get("order"))
                for ev in batch] == [
            ("op-finished", "M1", None, "O1"),
            ("op-finished", "M2", None, "O0"),
            ("shuttle-arrived", None, "S2", None),
        ]
        assert {ev["time"] for ev in batch} == {20}
        assert [ev["seq"] for ev in batch] == [batch[0]["seq"] + i for i in range(3)]

    def test_commands_do_not_move_clock(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        assert k.clock == 0
        k.advance([move("S1", "M1", carry="O1")])
        assert k.clock == 0
        k.advance()
        assert k.clock == 5


class TestRejections:
    def test_duplicate_release(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        assert k.advance([release("O1")]) == []
        (n,) = k.drain_notices()
        assert n.kind == "command-rejected"
        assert "already released" in n.reason
        assert n.command["order"] == "O1"

    def test_move_while_in_transit(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([move("S1", "M1")])
        # the rejected command produces a notice, never an event, and the
        # clock is free to jump to the scheduled arrival
        out = k.advance([move("S1", "OUT")])
        assert kinds(out) == ["shuttle-arrived"]
        (n,) = k.drain_notices()
        assert "in transit" in n.reason and n.time == 0

    def test_move_to_current_node(self, line_model):
        k = EmulationKernel(line_model)
        assert k.advance([move("S1", "IN")]) == []
        assert "already at" in k.drain_notices()[0].reason

    def test_carry_validation(self, line_model):
        k = EmulationKernel(line_model)
        assert k.advance([move("S1", "M1", carry="ghost")]) == []
        assert "not on the floor" in k.drain_notices()[0].reason
        k.advance([release("O1")])
        k.advance([move("S1", "M1")])  # without the product
        k.advance()
        assert k.advance([move("S1", "OUT", carry="O1")]) == []
        assert "not at" in k.drain_notices()[0].reason

    def test_start_requires_product_at_machine(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        assert k.advance([start("M1", "A", "O1")]) == []
        assert "not at machine" in k.drain_notices()[0].reason

    def test_start_unsupported_operation(self, line_model):
        k = EmulationKernel(line_model)
        assert k.advance([start("M1", "Z", "O1")]) == []
        assert "does not perform" in k.drain_notices()[0].reason

    def test_start_on_busy_machine(self, minicell_model):
        k = EmulationKernel(minicell_model)
        k.advance([release("O1"), release("O2")])
        k.advance([move("S1", "M1", carry="O1"), move("S2", "M1", carry="O2")])
        k.advance()
        k.advance([start("M1", "A", "O1")])
        out = k.advance([start("M1", "A", "O2")])
        assert kinds(out) == ["op-finished"]  # rejected start let time move on
        assert "busy" in k.drain_notices()[0].reason

    def test_cancel_in_process_is_rejected(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        k.advance([move("S1", "M1", carry="O1")])
        k.advance()
        k.advance([start("M1", "A", "O1")])
        out = k.advance([cancel("O1")])
        assert kinds(out) == ["op-finished"]
        assert "processed" in k.drain_notices()[0].reason
        # once finished the cancel goes through
        (ev,) = k.advance([cancel("O1")])
        assert ev["kind"] == "order-cancelled"
        assert state(k)["products"] == {}


# The line model with a node no edge reaches, and a second shuttle at IN.
REJECTION_MODEL = {
    **LINE_MODEL,
    "transport": {**LINE_MODEL["transport"], "nodes": ["IN", "M1", "OUT", "X"]},
    "shuttles": {"S1": {"home": "IN"}, "S2": {"home": "IN"}},
}

# Setups: a step is a command batch, [] for a bare advance, or an injection.
RELEASED = ([release("O1")],)
CARRIED = (*RELEASED, [move("S1", "M1", carry="O1")])  # O1 in transit on S1
AT_M1 = (*CARRIED, [])
PROCESSING = (*AT_M1, [start("M1", "A", "O1")])
S1_AT_M1 = (*RELEASED, [move("S1", "M1")], [])  # O1 left at IN

# (setup, command, reason): one case for each way the kernel rejects a command.
REJECTIONS = {
    "unknown-kind": ((), {"kind": "teleport"}, "teleport is not an emulation command"),
    "release-no-order": ((), {"kind": "release-order"}, "release-order requires an order id"),
    "release-twice": (RELEASED, release("O1"), "order 'O1' was already released"),
    "move-unknown-shuttle": ((), move("S9", "M1"), "unknown shuttle 'S9'"),
    "move-in-transit": (CARRIED, move("S1", "OUT"), "shuttle 'S1' is in transit"),
    "move-unknown-destination": ((), move("S1", "Y"), "unknown destination 'Y'"),
    "move-already-there": ((), move("S1", "IN"), "shuttle 'S1' is already at 'IN'"),
    "move-no-route": ((), move("S1", "X"), "no route from 'IN' to 'X'"),
    "carry-not-on-floor": (
        (), move("S1", "M1", carry="O1"), "carry order 'O1' is not on the floor"
    ),
    "carry-in-transit": (
        CARRIED, move("S2", "M1", carry="O1"), "carry order 'O1' is already in transit"
    ),
    "carry-in-process": (
        PROCESSING, move("S1", "OUT", carry="O1"), "carry order 'O1' is being processed"
    ),
    "carry-elsewhere": (S1_AT_M1, move("S1", "OUT", carry="O1"), "carry order 'O1' is not at 'M1'"),
    "start-unknown-machine": ((), start("M9", "A", "O1"), "unknown machine 'M9'"),
    "start-down": (
        (Injection(kind="machine-down", machine="M1"),),
        start("M1", "A", "O1"),
        "machine 'M1' is down",
    ),
    "start-supply-blocked": (
        (Injection(kind="supply-shortage", machine="M1"),),
        start("M1", "A", "O1"),
        "machine 'M1' is supply-blocked",
    ),
    "start-busy": (PROCESSING, start("M1", "A", "O2"), "machine 'M1' is busy"),
    "start-unknown-operation": ((), start("M1", "Z", "O1"), "machine 'M1' does not perform 'Z'"),
    "start-not-on-floor": ((), start("M1", "A", "O1"), "order 'O1' is not on the floor"),
    "start-in-transit": (CARRIED, start("M1", "A", "O1"), "order 'O1' is not available"),
    "start-elsewhere": (RELEASED, start("M1", "A", "O1"), "order 'O1' is not at machine 'M1'"),
    "cancel-not-on-floor": ((), cancel("O1"), "order 'O1' is not on the floor"),
    "cancel-in-transit": (CARRIED, cancel("O1"), "order 'O1' is in transit"),
    "cancel-in-process": (PROCESSING, cancel("O1"), "order 'O1' is being processed"),
}


@pytest.mark.parametrize("setup, command, reason", REJECTIONS.values(), ids=REJECTIONS)
def test_rejected_command_changes_nothing_but_the_notices(setup, command, reason):
    """The rejected command's round ends as a bare advance would: the same
    events and, apart from the one notice, the same snapshot."""

    def kernel_after_setup():
        k = EmulationKernel(load_model_doc(REJECTION_MODEL))
        for step in setup:
            if isinstance(step, Injection):
                k.apply_injection(step)
            else:
                k.advance(step)
        assert k.drain_notices() == []
        return k

    k, bare = kernel_after_setup(), kernel_after_setup()
    clock = k.clock
    assert k.advance([command]) == bare.advance()
    notice = {"time": clock, "kind": "command-rejected", "reason": reason, "command": command}
    assert state(k) == dict(state(bare), notices=[notice])


class TestInjections:
    def test_down_preempts_and_recovers(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        k.advance([move("S1", "M1", carry="O1")])
        k.advance()
        k.advance([start("M1", "A", "O1")])  # would finish at 15
        (ev,) = k.apply_injection(Injection(kind="machine-down", machine="M1", duration=30))
        assert ev["kind"] == "machine-down" and ev["time"] == 5
        assert ev["info"] == {"preempted": "O1", "duration": 30}
        assert state(k)["machines"]["M1"]["busy_order"] is None
        # stale op-finish at 15 must not fire; next happening is machine-up
        (up,) = k.advance()
        assert (up["kind"], up["time"]) == ("machine-up", 35)
        # progress was lost; restart runs the full duration again
        k.advance([start("M1", "A", "O1")])
        (fin,) = k.advance()
        assert (fin["kind"], fin["time"]) == ("op-finished", 45)

    def test_down_blocks_start(self, line_model):
        k = EmulationKernel(line_model)
        k.apply_injection(Injection(kind="machine-down", machine="M1", duration=10))
        out = k.advance([start("M1", "A", "O1")])
        assert kinds(out) == ["machine-up"]  # clock moved to the repair
        assert "down" in k.drain_notices()[0].reason

    def test_duplicate_down_is_ignored_with_notice(self, line_model):
        k = EmulationKernel(line_model)
        k.apply_injection(Injection(kind="machine-down", machine="M1", duration=10))
        assert k.apply_injection(Injection(kind="machine-down", machine="M1", duration=10)) == []
        (n,) = k.drain_notices()
        assert n.kind == "injection-ignored"
        assert "already down" in n.reason

    def test_explicit_up_cancels_timer(self, line_model):
        k = EmulationKernel(line_model)
        k.apply_injection(Injection(kind="machine-down", machine="M1", duration=50))
        (up,) = k.apply_injection(Injection(kind="machine-up", machine="M1"))
        assert up["kind"] == "machine-up" and up["time"] == 0
        assert k.advance() == []  # the +50 timer is stale now

    @pytest.mark.parametrize("second", [100, None])
    @pytest.mark.parametrize(
        "down, up, fired, flag",
        [
            ("machine-down", "machine-up", "machine-up", "down"),
            ("supply-shortage", "supply-restore", "supply-restored", "blocked"),
        ],
    )
    def test_explicit_end_then_start_again_keeps_only_the_new_timer(
        self, line_model, down, up, fired, flag, second
    ):
        """The +50 timer dies with the explicit end; a second start
        schedules only its own end, or none without a duration."""
        k = EmulationKernel(line_model)
        k.apply_injection(Injection(kind=down, machine="M1", duration=50))
        k.apply_injection(Injection(kind=up, machine="M1"))
        k.apply_injection(Injection(kind=down, machine="M1", duration=second))
        if second is None:
            assert k.advance() == [] and state(k)["machines"]["M1"][flag]
        else:
            (ev,) = k.advance()
            assert (ev["kind"], ev["time"]) == (fired, 100)
            assert k.advance() == []

    def test_explicit_supply_restore_then_restore_again_is_ignored(self, line_model):
        k = EmulationKernel(line_model)
        (blocked,) = k.apply_injection(Injection(kind="supply-shortage", machine="M1"))
        assert blocked["kind"] == "supply-blocked"
        (restored,) = k.apply_injection(Injection(kind="supply-restore", machine="M1"))
        assert (restored["kind"], restored["machine"]) == ("supply-restored", "M1")
        assert k.apply_injection(Injection(kind="supply-restore", machine="M1")) == []
        (n,) = k.drain_notices()
        assert n.kind == "injection-ignored"
        assert "not supply-blocked" in n.reason

    def test_up_on_a_running_machine_is_ignored_with_notice(self, line_model):
        k = EmulationKernel(line_model)
        assert k.apply_injection(Injection(kind="machine-up", machine="M1")) == []
        (n,) = k.drain_notices()
        assert n.kind == "injection-ignored"
        assert "not down" in n.reason

    @pytest.mark.parametrize(
        "begin, end, word",
        [
            ("machine-down", "machine-up", "down"),
            ("supply-shortage", "supply-restore", "supply-blocked"),
        ],
    )
    def test_outage_started_twice_or_never_is_ignored_with_its_notice(
        self, line_model, begin, end, word
    ):
        """Ending an outage that never started and starting one twice each
        emit no event and leave one exact notice; the ignored start
        schedules no second end."""
        k = EmulationKernel(line_model)
        never = Injection(kind=end, machine="M1")
        twice = Injection(kind=begin, machine="M1", duration=10)
        assert k.apply_injection(never) == []
        assert len(k.apply_injection(twice)) == 1
        assert k.apply_injection(twice) == []
        assert [(n.time, n.kind, n.reason, n.injection) for n in k.drain_notices()] == [
            (0, "injection-ignored", f"machine 'M1' is not {word}", never.to_dict()),
            (0, "injection-ignored", f"machine 'M1' is already {word}", twice.to_dict()),
        ]
        assert state(k)["next_seq"] == 2
        (ended,) = k.advance()
        assert (ended["time"], ended["seq"]) == (10, 2)
        assert k.advance() == []

    @pytest.mark.parametrize(
        "kind", ["machine-down", "machine-up", "supply-shortage", "supply-restore"]
    )
    def test_outage_on_an_unknown_machine_is_ignored_with_its_notice(self, line_model, kind):
        k = EmulationKernel(line_model)
        inj = Injection(kind=kind, machine="M9", duration=5)
        assert k.apply_injection(inj) == []
        (n,) = k.drain_notices()
        assert (n.kind, n.reason, n.injection) == (
            "injection-ignored", "unknown machine 'M9'", inj.to_dict()
        )
        assert not k.has_pending()

    def test_supply_block_gates_starts_only(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        (blocked,) = k.apply_injection(
            Injection(kind="supply-shortage", machine="M1", duration=7)
        )
        assert blocked["kind"] == "supply-blocked"
        # transport still works while the machine is starved
        k.advance([move("S1", "M1", carry="O1")])
        k.advance()
        (restored,) = k.advance([start("M1", "A", "O1")])
        assert "supply-blocked" in k.drain_notices()[0].reason
        assert (restored["kind"], restored["time"]) == ("supply-restored", 7)
        (started,) = k.advance([start("M1", "A", "O1")])
        assert started["kind"] == "op-started"

    def test_reject_rework_in_process(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        k.advance([move("S1", "M1", carry="O1")])
        k.advance()
        k.advance([start("M1", "A", "O1")])
        (ev,) = k.apply_injection(
            Injection(kind="product-reject", order="O1", policy="rework")
        )
        assert ev["kind"] == "product-rejected"
        assert ev["machine"] == "M1" and ev["info"]["policy"] == "rework"
        assert state(k)["machines"]["M1"]["busy_order"] is None
        assert state(k)["products"]["O1"] == {"node": "M1", "shuttle": None, "processing": None}
        # the aborted operation's finish at 15 never fires
        assert k.advance() == []
        assert not k.has_pending()

    def test_reject_scrap_removes_product(self, line_model):
        k = EmulationKernel(line_model)
        k.advance([release("O1")])
        (ev,) = k.apply_injection(
            Injection(kind="product-reject", order="O1", policy="scrap")
        )
        assert ev["info"]["policy"] == "scrap"
        assert state(k)["products"] == {}

    def test_scrap_in_transit_clears_cargo(self, line_model):
        k = EmulationKernel(line_model)
        events = k.advance([release("O1")]) + k.advance([move("S1", "M1", carry="O1")])
        (ev,) = k.apply_injection(
            Injection(kind="product-reject", order="O1", policy="scrap")
        )
        assert ev["shuttle"] == "S1"
        (arr,) = k.advance()
        assert arr["kind"] == "shuttle-arrived" and "order" not in arr
        assert state(k)["shuttles"]["S1"]["cargo"] is None
        # rare in the random scripts, so the floor-timing fold is run here too
        check_floor_timing(line_model, [SimEvent.from_dict(e) for e in [*events, ev, arr]])

    def test_reject_unknown_order_ignored(self, line_model):
        k = EmulationKernel(line_model)
        out = k.apply_injection(Injection(kind="product-reject", order="nope", policy="scrap"))
        assert out == []
        assert k.drain_notices()[0].kind == "injection-ignored"


class TestSnapshot:
    def test_snapshot_is_json(self, line_model):
        doc = json.loads(EmulationKernel(line_model).snapshot())
        assert doc["clock"] == 0 and doc["next_seq"] == 1


# Random scripts of commands and injections. Invalid commands and no-op
# injections only produce notices, so any generated script is safe to apply;
# determinism and the liveness of scheduled happenings must hold regardless.
_cmd = st.one_of(
    st.builds(release, st.sampled_from(["O1", "O2", "O3"])),
    st.builds(
        move,
        st.sampled_from(["S1", "S2", "SX"]),
        st.sampled_from(["IN", "M1", "M2", "OUT", "ghost"]),
        st.none() | st.sampled_from(["O1", "O2"]),
    ),
    st.builds(
        start,
        st.sampled_from(["M1", "M2"]),
        st.sampled_from(["A", "B"]),
        st.sampled_from(["O1", "O2", "O3"]),
    ),
    st.builds(cancel, st.sampled_from(["O1", "O2", "O3"])),
)
_machine = st.sampled_from(["M1", "M2"])
_inj = st.one_of(
    st.builds(Injection, st.sampled_from(["machine-down", "supply-shortage"]), _machine,
              duration=st.none() | st.integers(1, 30)),
    st.builds(Injection, st.sampled_from(["machine-up", "supply-restore"]), _machine),
    st.builds(Injection, st.just("product-reject"), order=st.sampled_from(["O1", "O2"]),
              policy=st.sampled_from(["rework", "scrap"])),
)


def check_floor_timing(model, events):
    """The floor-timing oracle: a fold over the model and a drained event
    stream, in seq order, that knows nothing of the kernel's state.

    Each op-finished comes exactly its machine's duration for
    ``info.operation`` after its op-started, unless a machine-down
    (``info.preempted``) or an in-process product-rejected stopped that
    operation first.  Each shuttle-arrived comes exactly ``travel_time(
    departure node, arrival node)`` after its shuttle-departed, with the
    same order, unless that cargo was scrapped in transit.  A shuttle
    departs from where it last arrived, or from its home.  Orders are
    released only at the input station and completed only at the output
    station.  At the end no operation runs and no shuttle moves.
    """
    running = {}  # machine -> (order, operation, start time)
    moving = {}  # shuttle -> [departure node, cargo order or None, departure time]
    parked = {sid: s.home for sid, s in model.shuttles.items()}  # shuttle -> node at rest
    for e in events:
        if e.kind == "order-released":
            assert e.node == model.input_station, e
        elif e.kind == "order-completed":
            assert e.node == model.output_station, e
        elif e.kind == "op-started":
            assert e.machine not in running, e
            running[e.machine] = (e.order, e.info["operation"], e.time)
        elif e.kind == "op-finished":
            order, op, started = running.pop(e.machine)
            assert (e.order, e.info["operation"]) == (order, op), e
            assert e.time == started + model.machines[e.machine].operations[op], e
        elif e.kind == "machine-down":
            assert running.pop(e.machine, (None,))[0] == e.info.get("preempted"), e
        elif e.kind == "product-rejected" and e.machine is not None:
            assert running.pop(e.machine)[0] == e.order, e
        elif e.kind == "product-rejected" and e.shuttle is not None:
            move = moving[e.shuttle]
            assert move[1] == e.order, e
            if e.info["policy"] == "scrap":
                move[1] = None
        elif e.kind == "shuttle-departed":
            assert e.shuttle not in moving, e
            assert e.node == parked.pop(e.shuttle), e
            moving[e.shuttle] = [e.node, e.order, e.time]
        elif e.kind == "shuttle-arrived":
            origin, order, departed = moving.pop(e.shuttle)
            assert e.order == order, e
            assert e.time == departed + model.travel_time(origin, e.node), e
            parked[e.shuttle] = e.node
    assert not running and not moving


def check_liveness(stream):
    """Every timed machine-up or supply-restored comes exactly its duration
    after the down or block, unless an explicit one came first."""
    timers = {"machine-up": {}, "supply-restored": {}}  # machine -> due tick or None
    for explicit, e in stream:
        if e.kind in ("machine-down", "supply-blocked"):
            duration = e.info.get("duration")
            up = "machine-up" if e.kind == "machine-down" else "supply-restored"
            timers[up][e.machine] = None if duration is None else e.time + duration
        elif e.kind in timers:
            due = timers[e.kind].pop(e.machine)
            assert explicit or due == e.time
    for pending in timers.values():
        assert all(due is None for due in pending.values())


# A step is a command batch, a tuple of injections at the current clock, or
# None for a bare advance to the next happening.  Restarting O1 on M1 or O2
# on M2 is drawn on its own, so that operations often run into injections.
_step = st.one_of(
    st.lists(_cmd, min_size=1, max_size=3),
    st.sampled_from([[start("M1", "A", "O1")], [start("M2", "B", "O2")]]),
    st.lists(_inj, min_size=1, max_size=3).map(tuple),
    st.none(),
)


@settings(max_examples=100, deadline=None)
@given(script=st.lists(_step, max_size=24))
def test_events_carry_only_their_kinds_fields(minicell_model_doc, script):
    """No event names a subject field its kind's ``EVENT_FIELDS`` lacks, so
    a scenario filter that table refuses could never match."""
    k = EmulationKernel(load_model_doc(minicell_model_doc))
    batches = [k.advance([
        release("O1"), release("O2"), move("S1", "M1", "O1"), move("S2", "M2", "O2"),
    ]), k.advance()]
    for step in script:
        if isinstance(step, tuple):
            batches.extend(k.apply_injection(inj) for inj in step)
        else:
            batches.append(k.advance(step or ()))
    while batch := k.advance():
        batches.append(batch)
    for e in (e for batch in batches for e in batch):
        assert set(e) - {"time", "seq", "kind", "info"} <= set(EVENT_FIELDS[e["kind"]]), e


def run_script(model_doc, script):
    """Play a script on a fresh kernel of the model and drain it; returns
    the stream of (injected, event) and the final snapshot."""

    def wire_checked(batch):
        """Each event body is its event's ``to_dict()``: a raw event dict
        holds no None and no empty ``info``.  Returns the events."""
        events = [SimEvent.from_dict(d) for d in batch]
        assert [e.to_dict() for e in events] == batch
        return events

    k = EmulationKernel(load_model_doc(model_doc))
    # O1 and O2 start out waiting at M1 and M2, so that starts can succeed.
    stream = [(False, e) for e in wire_checked(k.advance([
        release("O1"), release("O2"), move("S1", "M1", "O1"), move("S2", "M2", "O2"),
    ])) + wire_checked(k.advance())]
    for step in script:
        if isinstance(step, tuple):
            for inj in step:
                stream.extend((True, e) for e in wire_checked(k.apply_injection(inj)))
        else:
            stream.extend((False, e) for e in wire_checked(k.advance(step or ())))
        k.drain_notices()
    while batch := wire_checked(k.advance()):
        stream.extend((False, e) for e in batch)
    return stream, k.snapshot()


@settings(max_examples=200, deadline=None)
@given(script=st.lists(_step, max_size=24))
def test_determinism_under_random_scripts(minicell_model_doc, script):
    sa, snap_a = run_script(minicell_model_doc, script)
    sb, snap_b = run_script(minicell_model_doc, script)
    assert sa == sb
    assert snap_a == snap_b
    assert [e.seq for _, e in sa] == list(range(1, len(sa) + 1))
    check_liveness(sa)
    check_floor_timing(load_model_doc(minicell_model_doc), [e for _, e in sa])


# MiniCell's machines, shuttles and nodes on a one-way ring: no travel time
# equals its way back, so a travel lookup in the wrong direction shows here,
# where MiniCell's and the oracle shop's symmetric travel hide it.
ONE_WAY_SHOP = {
    "machines": {
        "M1": {"node": "M1", "operations": {"A": 10}},
        "M2": {"node": "M2", "operations": {"B": 15}},
    },
    "transport": {
        "nodes": ["IN", "M1", "M2", "OUT"],
        "edges": [
            {"from": "IN", "to": "M1", "travel": 2},
            {"from": "M1", "to": "M2", "travel": 3},
            {"from": "M2", "to": "OUT", "travel": 4},
            {"from": "OUT", "to": "IN", "travel": 6},
        ],
    },
    "shuttles": {"S1": {"home": "IN"}, "S2": {"home": "IN"}},
    "stations": {"input": "IN", "output": "OUT"},
}


@settings(max_examples=100, deadline=None)
@given(script=st.lists(_step, max_size=24))
def test_floor_timing_under_random_scripts_on_a_one_way_shop(script):
    stream, _ = run_script(ONE_WAY_SHOP, script)
    check_liveness(stream)
    check_floor_timing(load_model_doc(ONE_WAY_SHOP), [e for _, e in stream])


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(session=oracle_sessions())
def test_floor_timing_in_generated_sessions(session):
    """The same fold over the event stream of a logged session, where the
    control's commands and the scenario's disturbances drive the floor."""
    book, scenario_doc, seed = session
    model = load_model_doc(ORACLE_SHOP)
    scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
    result = run_single(model, book, scenario, seed)
    check_floor_timing(model, extract_event_stream(result.log))


def test_floor_timing_in_the_packaged_suite():
    """The fold over every session of the packaged suite: its five
    MiniCell scenarios, each at the suite's seeds."""
    suite = load_suite(str(Path(holobench.__file__).parent / "data" / "minicell" / "suite.json"))
    model, orders = suite.load_model(), suite.load_orders()
    scenarios = suite.load_scenarios()
    assert len(scenarios) == 5
    for scenario in scenarios:
        for seed in suite.seeds:
            result = run_single(model, orders, scenario, seed)
            assert result.status == "completed", result.run_id
            check_floor_timing(model, extract_event_stream(result.log))
