"""Lean shop-floor emulation kernel.

The kernel owns physical state only: machine status, shuttle positions, and
the locations of products, which it treats as opaque ids.  It holds no order
data, no routing, and makes no decisions.  Anything that looks like a choice
(which product to process, where to send a shuttle) must arrive as a command.

Time is an integer tick counter.  Every emitted event carries (time, seq);
seq is global, starts at 1, and has no gaps.  All happenings that share a
tick are processed in one step, and the resulting events are ordered by
(kind, machine, shuttle, order, node) before sequence numbers are assigned,
so a run is reproducible bit for bit.

Commands are applied at the current clock: the events they cause carry the
same tick as the batch that prompted them.  Invalid commands and no-op
injections never raise; they produce notices that ride along with the next
event batch.

A scheduled happening is live exactly while ``_live`` maps its (kind,
subject) to its push id; firing or cancelling it drops the mapping.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import Any, Iterable

from .canon import canon_dumps
from .messages import ControlCommand, EventBatch, Injection, Notice, SimEvent
from .model import ShopModel


@dataclass
class _Machine:
    down: bool = False
    blocked: bool = False
    busy_order: str | None = None
    busy_operation: str | None = None

    @property
    def busy(self) -> bool:
        return self.busy_order is not None

    def clear_busy(self) -> None:
        self.busy_order = None
        self.busy_operation = None


@dataclass
class _Shuttle:
    node: str | None  # None while in transit
    cargo: str | None = None
    dest: str | None = None

    @property
    def moving(self) -> bool:
        return self.dest is not None


@dataclass
class _Product:
    node: str | None  # resting node; machine node while in process
    shuttle: str | None = None  # carrying shuttle while in transit
    processing: str | None = None  # machine id while in process


# Pending-queue entry kinds; lexical order fixes same-tick processing order.
_ARRIVE = "arrive"
_MACHINE_UP = "machine-up"
_OP_FINISH = "op-finish"
_SUPPLY_RESTORE = "supply-restore"


class EmulationKernel:
    """Deterministic discrete-event emulation of one shop floor."""

    def __init__(self, model: ShopModel):
        self.model = model
        self.clock = 0
        self._next_seq = 1
        self._machines = {mid: _Machine() for mid in sorted(model.machines)}
        self._shuttles = {
            sid: _Shuttle(node=spec.home) for sid, spec in sorted(model.shuttles.items())
        }
        self._products: dict[str, _Product] = {}
        self._released: set[str] = set()
        # Heap entries: (time, kind, subject, push_id); push_id makes keys unique.
        self._pending: list[tuple[int, str, str, int]] = []
        self._live: dict[tuple[str, str], int] = {}
        self._push_counter = 0
        self._notices: list[Notice] = []

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, time: int, kind: str, subject: str) -> None:
        self._push_counter += 1
        self._live[kind, subject] = self._push_counter
        heapq.heappush(self._pending, (time, kind, subject, self._push_counter))

    def _is_live(self, entry: tuple[int, str, str, int]) -> bool:
        return self._live.get(entry[1:3]) == entry[3]

    def has_pending(self) -> bool:
        """True if any scheduled happening is still live."""
        while self._pending:
            if self._is_live(self._pending[0]):
                return True
            heapq.heappop(self._pending)
        return False

    # -- advancing ----------------------------------------------------------

    def advance(self, commands: Iterable[ControlCommand] = ()) -> EventBatch:
        """Apply commands, or advance time to the next live happening.

        Returns one batch of events, all at the same tick, with each event's
        wire body (see ``EventBatch``).  If the commands produce events, the
        batch is at the current clock and time does not move.  Otherwise the
        clock jumps to the earliest scheduled happening.  An empty batch
        means nothing is left to do.
        """
        raw: list[dict[str, Any]] = []
        for cmd in commands:
            raw.extend(self._apply_command(cmd))
        if raw:
            return self._seal(raw)
        while self.has_pending():
            t = self._pending[0][0]
            group: list[tuple[int, str, str, int]] = []
            while self._pending and self._pending[0][0] == t:
                group.append(heapq.heappop(self._pending))
            self.clock = t
            for entry in group:
                if self._is_live(entry):
                    _t, kind, subject, _pid = entry
                    del self._live[kind, subject]
                    raw.extend(self._fire(kind, subject))
            if raw:
                return self._seal(raw)
        return EventBatch([], [])

    def _seal(self, raw: list[dict[str, Any]]) -> EventBatch:
        """Order a tick's raw event dicts, stamp each with (time, seq) and
        build its event; each stamped dict becomes that event's wire body.

        A raw dict holds no None value and no empty ``info``, so its stamped
        form equals the event's ``to_dict()``.  The body gets its own copy
        of ``info``, so that event and body share no mutable dict.
        """

        def key(d: dict[str, Any]) -> tuple[str, str, str, str, str]:
            return (
                d["kind"],
                d.get("machine") or "",
                d.get("shuttle") or "",
                d.get("order") or "",
                d.get("node") or "",
            )

        bodies = sorted(raw, key=key)
        events: list[SimEvent] = []
        for d in bodies:
            d["time"] = self.clock
            d["seq"] = self._next_seq
            self._next_seq += 1
            events.append(SimEvent(**d))
            if "info" in d:
                d["info"] = dict(d["info"])
        return EventBatch(events, bodies)

    # -- scheduled happenings -----------------------------------------------

    def _fire(self, kind: str, subject: str) -> list[dict[str, Any]]:
        if kind == _ARRIVE:
            return self._fire_arrive(subject)
        if kind == _OP_FINISH:
            return self._fire_op_finish(subject)
        if kind == _MACHINE_UP:
            return self._fire_machine_up(subject)
        return self._fire_supply_restore(subject)

    def _fire_arrive(self, sid: str) -> list[dict[str, Any]]:
        sh = self._shuttles[sid]
        dest, cargo = sh.dest, sh.cargo
        sh.node, sh.dest, sh.cargo = dest, None, None
        out: list[dict[str, Any]] = [{"kind": "shuttle-arrived", "shuttle": sid, "node": dest}]
        if cargo is not None:
            out[0]["order"] = cargo
            if dest == self.model.output_station:
                del self._products[cargo]
                out.append({"kind": "order-completed", "order": cargo, "node": dest})
            else:
                p = self._products[cargo]
                p.node, p.shuttle = dest, None
        return out

    def _fire_op_finish(self, mid: str) -> list[dict[str, Any]]:
        m = self._machines[mid]
        order, op = m.busy_order, m.busy_operation
        m.clear_busy()
        self._products[order].processing = None
        return [
            {
                "kind": "op-finished",
                "machine": mid,
                "order": order,
                "node": self.model.machines[mid].node,
                "info": {"operation": op},
            }
        ]

    def _fire_machine_up(self, mid: str) -> list[dict[str, Any]]:
        m = self._machines[mid]
        m.down = False
        self._live.pop((_MACHINE_UP, mid), None)
        return [{"kind": "machine-up", "machine": mid, "node": self.model.machines[mid].node}]

    def _fire_supply_restore(self, mid: str) -> list[dict[str, Any]]:
        m = self._machines[mid]
        m.blocked = False
        self._live.pop((_SUPPLY_RESTORE, mid), None)
        return [{"kind": "supply-restored", "machine": mid, "node": self.model.machines[mid].node}]

    # -- commands -----------------------------------------------------------

    def _reject(self, cmd: ControlCommand, reason: str) -> list[dict[str, Any]]:
        self._notices.append(
            Notice(time=self.clock, kind="command-rejected", reason=reason, command=cmd.to_dict())
        )
        return []

    def _apply_command(self, cmd: ControlCommand) -> list[dict[str, Any]]:
        if cmd.kind == "release-order":
            return self._cmd_release(cmd)
        if cmd.kind == "move-shuttle":
            return self._cmd_move(cmd)
        if cmd.kind == "start-op":
            return self._cmd_start(cmd)
        if cmd.kind == "cancel-order":
            return self._cmd_cancel(cmd)
        return self._reject(cmd, f"{cmd.kind} is not an emulation command")

    def _cmd_release(self, cmd: ControlCommand) -> list[dict[str, Any]]:
        order = cmd.order
        if order is None:
            return self._reject(cmd, "release-order requires an order id")
        if order in self._released:
            return self._reject(cmd, f"order {order!r} was already released")
        node = self.model.input_station
        self._released.add(order)
        self._products[order] = _Product(node=node)
        return [{"kind": "order-released", "order": order, "node": node}]

    def _cmd_move(self, cmd: ControlCommand) -> list[dict[str, Any]]:
        sid, dest = cmd.shuttle, cmd.destination
        if sid not in self._shuttles:
            return self._reject(cmd, f"unknown shuttle {sid!r}")
        sh = self._shuttles[sid]
        if sh.moving:
            return self._reject(cmd, f"shuttle {sid!r} is in transit")
        if dest not in self.model.nodes:
            return self._reject(cmd, f"unknown destination {dest!r}")
        if dest == sh.node:
            return self._reject(cmd, f"shuttle {sid!r} is already at {dest!r}")
        travel = self.model.travel_time(sh.node, dest)
        if travel is None:
            return self._reject(cmd, f"no route from {sh.node!r} to {dest!r}")
        cargo = cmd.carry
        product: _Product | None = None
        if cargo is not None:
            product = self._products.get(cargo)
            if product is None:
                return self._reject(cmd, f"carry order {cargo!r} is not on the floor")
            if product.shuttle is not None:
                return self._reject(cmd, f"carry order {cargo!r} is already in transit")
            if product.processing is not None:
                return self._reject(cmd, f"carry order {cargo!r} is being processed")
            if product.node != sh.node:
                return self._reject(cmd, f"carry order {cargo!r} is not at {sh.node!r}")
        origin = sh.node
        sh.node, sh.dest = None, dest
        ev: dict[str, Any] = {"kind": "shuttle-departed", "shuttle": sid, "node": origin}
        if cargo is not None and product is not None:
            sh.cargo = cargo
            product.shuttle, product.node = sid, None
            ev["order"] = cargo
        self._schedule(self.clock + travel, _ARRIVE, sid)
        return [ev]

    def _cmd_start(self, cmd: ControlCommand) -> list[dict[str, Any]]:
        mid, order, op = cmd.machine, cmd.order, cmd.operation
        if mid not in self._machines:
            return self._reject(cmd, f"unknown machine {mid!r}")
        m = self._machines[mid]
        spec = self.model.machines[mid]
        if m.down:
            return self._reject(cmd, f"machine {mid!r} is down")
        if m.blocked:
            return self._reject(cmd, f"machine {mid!r} is supply-blocked")
        if m.busy:
            return self._reject(cmd, f"machine {mid!r} is busy")
        if op is None or op not in spec.operations:
            return self._reject(cmd, f"machine {mid!r} does not perform {op!r}")
        p = self._products.get(order)
        if p is None:
            return self._reject(cmd, f"order {order!r} is not on the floor")
        if p.shuttle is not None or p.processing is not None:
            return self._reject(cmd, f"order {order!r} is not available")
        if p.node != spec.node:
            return self._reject(cmd, f"order {order!r} is not at machine {mid!r}")
        m.busy_order, m.busy_operation = order, op
        p.processing = mid
        self._schedule(self.clock + spec.operations[op], _OP_FINISH, mid)
        return [
            {
                "kind": "op-started",
                "machine": mid,
                "order": order,
                "node": spec.node,
                "info": {"operation": op},
            }
        ]

    def _cmd_cancel(self, cmd: ControlCommand) -> list[dict[str, Any]]:
        order = cmd.order
        p = self._products.get(order)
        if p is None:
            return self._reject(cmd, f"order {order!r} is not on the floor")
        if p.shuttle is not None:
            return self._reject(cmd, f"order {order!r} is in transit")
        if p.processing is not None:
            return self._reject(cmd, f"order {order!r} is being processed")
        node = p.node
        del self._products[order]
        return [{"kind": "order-cancelled", "order": order, "node": node}]

    # -- injections ---------------------------------------------------------

    def _ignore(self, inj: Injection, reason: str) -> list[dict[str, Any]]:
        self._notices.append(
            Notice(
                time=self.clock, kind="injection-ignored", reason=reason, injection=inj.to_dict()
            )
        )
        return []

    def apply_injection(self, inj: Injection) -> EventBatch:
        """Apply a disturbance at the current clock; returns its events, as
        ``advance`` does."""
        if inj.kind == "product-reject":
            raw = self._inj_reject(inj)
        elif inj.machine not in self._machines:
            raw = self._ignore(inj, f"unknown machine {inj.machine!r}")
        elif inj.kind == "machine-down":
            raw = self._inj_down(inj)
        elif inj.kind == "machine-up":
            raw = self._inj_up(inj)
        elif inj.kind == "supply-shortage":
            raw = self._inj_block(inj)
        else:
            raw = self._inj_unblock(inj)
        return self._seal(raw)

    def _inj_down(self, inj: Injection) -> list[dict[str, Any]]:
        mid = inj.machine
        m = self._machines[mid]
        if m.down:
            return self._ignore(inj, f"machine {mid!r} is already down")
        m.down = True
        info: dict[str, Any] = {}
        if m.busy_order is not None:
            # Preemption loses all progress; the product waits at the machine.
            self._products[m.busy_order].processing = None
            info["preempted"] = m.busy_order
            m.clear_busy()
            del self._live[_OP_FINISH, mid]
        if inj.duration is not None:
            self._schedule(self.clock + inj.duration, _MACHINE_UP, mid)
            info["duration"] = inj.duration
        ev: dict[str, Any] = {
            "kind": "machine-down",
            "machine": mid,
            "node": self.model.machines[mid].node,
        }
        if info:
            ev["info"] = info
        return [ev]

    def _inj_up(self, inj: Injection) -> list[dict[str, Any]]:
        mid = inj.machine
        m = self._machines[mid]
        if not m.down:
            return self._ignore(inj, f"machine {mid!r} is not down")
        return self._fire_machine_up(mid)

    def _inj_block(self, inj: Injection) -> list[dict[str, Any]]:
        mid = inj.machine
        m = self._machines[mid]
        if m.blocked:
            return self._ignore(inj, f"machine {mid!r} is already supply-blocked")
        m.blocked = True
        ev: dict[str, Any] = {
            "kind": "supply-blocked",
            "machine": mid,
            "node": self.model.machines[mid].node,
        }
        if inj.duration is not None:
            self._schedule(self.clock + inj.duration, _SUPPLY_RESTORE, mid)
            ev["info"] = {"duration": inj.duration}
        return [ev]

    def _inj_unblock(self, inj: Injection) -> list[dict[str, Any]]:
        mid = inj.machine
        m = self._machines[mid]
        if not m.blocked:
            return self._ignore(inj, f"machine {mid!r} is not supply-blocked")
        return self._fire_supply_restore(mid)

    def _inj_reject(self, inj: Injection) -> list[dict[str, Any]]:
        order = inj.order
        p = self._products.get(order)
        if p is None:
            return self._ignore(inj, f"order {order!r} is not on the floor")
        ev: dict[str, Any] = {
            "kind": "product-rejected",
            "order": order,
            "info": {"policy": inj.policy},
        }
        if p.processing is not None:
            # Abort the running operation; the product stays at the machine.
            mid = p.processing
            self._machines[mid].clear_busy()
            del self._live[_OP_FINISH, mid]
            p.processing = None
            ev["machine"] = mid
            ev["node"] = p.node
        elif p.shuttle is not None:
            ev["shuttle"] = p.shuttle
        else:
            ev["node"] = p.node
        if inj.policy == "scrap":
            if p.shuttle is not None:
                self._shuttles[p.shuttle].cargo = None
            del self._products[order]
        return [ev]

    # -- notices ---------------------------------------------------------------

    def drain_notices(self) -> list[Notice]:
        out, self._notices = self._notices, []
        return out

    # -- snapshot --------------------------------------------------------------

    def snapshot(self) -> str:
        """Full state as canonical JSON; equal strings mean equal state.

        Pending lists the live entries only, those ``_live`` still maps."""
        doc = {
            "clock": self.clock,
            "next_seq": self._next_seq,
            "model_hash": self.model.model_hash,
            "machines": {mid: asdict(m) for mid, m in sorted(self._machines.items())},
            "shuttles": {sid: asdict(s) for sid, s in sorted(self._shuttles.items())},
            "products": {oid: asdict(p) for oid, p in sorted(self._products.items())},
            "released": sorted(self._released),
            "pending": sorted(e for e in self._pending if self._is_live(e)),
            "push_counter": self._push_counter,
            "notices": [n.to_dict() for n in self._notices],
        }
        return canon_dumps(doc)
