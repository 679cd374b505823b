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

Events and commands are the dict forms of ``SimEvent`` and ``ControlCommand``:
a batch's event bodies go on the wire as they are.
Commands are applied at the current clock: the events they cause carry the
same tick as the batch that prompted them.  Invalid commands and no-op
injections never raise; they produce notices that ride along with the next
event batch.

A scheduled happening is live exactly while ``_live`` maps its (kind,
subject) to its push id; firing or cancelling it drops the mapping.

The two outages, machine-down and supply-shortage, are one mechanism: the
``_OUTAGES`` table names each one's machine flag, ending happening, events
and notice word, and one start path and one end path serve both, the end
injected or scheduled.  Only machine-down preempts.  ``_stop_op`` is the one
place a running operation stops: when it finishes, is preempted or is
aborted by a product reject.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass
from typing import Any, Iterable

from .canon import canon_dumps
from .messages import Injection, Notice
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

# Outage injection -> (the _Machine flag it raises, the happening that ends
# it, its start event kind, its end event kind, the state word of notices).
# A scheduled end and an injected end share a kind, so _OUTAGE_OF maps both.
_OUTAGES = {
    "machine-down": ("down", _MACHINE_UP, "machine-down", "machine-up", "down"),
    "supply-shortage": (
        "blocked", _SUPPLY_RESTORE, "supply-blocked", "supply-restored", "supply-blocked"
    ),
}
_OUTAGE_OF = {spec[1]: outage for outage, spec in _OUTAGES.items()}


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

    def advance(self, commands: Iterable[dict[str, Any]] = ()) -> list[dict[str, Any]]:
        """Apply command bodies, or advance time to the next live happening.

        Returns one batch of event bodies, all at the same tick.  If the
        commands produce events, the batch is at the current clock and time
        does not move.  Otherwise the clock jumps to the earliest scheduled
        happening.  An empty batch means nothing is left to do.
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
        return []

    def _seal(self, raw: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Order a tick's raw event dicts and stamp each with (time, seq).

        A raw dict holds no None value and no empty ``info``, so its stamped
        form is the event's ``to_dict()``, its wire body.  The kernel keeps
        no reference to it.
        """

        def key(d: dict[str, Any]) -> tuple[str, str, str, str, str]:
            return (
                d["kind"],
                d.get("machine") or "",
                d.get("shuttle") or "",
                d.get("order") or "",
                d.get("node") or "",
            )

        raw.sort(key=key)
        for d in raw:
            d["time"] = self.clock
            d["seq"] = self._next_seq
            self._next_seq += 1
        return raw

    # -- scheduled happenings -----------------------------------------------

    def _fire(self, kind: str, subject: str) -> list[dict[str, Any]]:
        if kind == _ARRIVE:
            return self._fire_arrive(subject)
        if kind == _OP_FINISH:
            order, op = self._stop_op(subject)
            return [
                {
                    "kind": "op-finished",
                    "machine": subject,
                    "order": order,
                    "node": self.model.machines[subject].node,
                    "info": {"operation": op},
                }
            ]
        return self._end_outage(kind, subject)

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

    def _stop_op(self, mid: str) -> tuple[str, str]:
        """Free machine ``mid`` and its product from the running operation
        and drop its finish if still scheduled; returns (order, operation)."""
        m = self._machines[mid]
        order, op = m.busy_order, m.busy_operation
        m.busy_order = m.busy_operation = None
        self._products[order].processing = None
        self._live.pop((_OP_FINISH, mid), None)
        return order, op

    # -- commands -----------------------------------------------------------

    def _reject(self, cmd: dict[str, Any], reason: str) -> list[dict[str, Any]]:
        self._notices.append(
            Notice(time=self.clock, kind="command-rejected", reason=reason, command=dict(cmd))
        )
        return []

    def _apply_command(self, cmd: dict[str, Any]) -> list[dict[str, Any]]:
        kind = cmd["kind"]
        if kind == "release-order":
            return self._cmd_release(cmd)
        if kind == "move-shuttle":
            return self._cmd_move(cmd)
        if kind == "start-op":
            return self._cmd_start(cmd)
        if kind == "cancel-order":
            return self._cmd_cancel(cmd)
        return self._reject(cmd, f"{kind} is not an emulation command")

    def _cmd_release(self, cmd: dict[str, Any]) -> list[dict[str, Any]]:
        order = cmd.get("order")
        if order is None:
            return self._reject(cmd, "release-order requires an order id")
        if order in self._released:
            return self._reject(cmd, f"order {order!r} was already released")
        node = self.model.input_station
        self._released.add(order)
        self._products[order] = _Product(node=node)
        return [{"kind": "order-released", "order": order, "node": node}]

    def _cmd_move(self, cmd: dict[str, Any]) -> list[dict[str, Any]]:
        sid, dest = cmd.get("shuttle"), cmd.get("destination")
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
        cargo = cmd.get("carry")
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

    def _cmd_start(self, cmd: dict[str, Any]) -> list[dict[str, Any]]:
        mid, order, op = cmd.get("machine"), cmd.get("order"), cmd.get("operation")
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

    def _cmd_cancel(self, cmd: dict[str, Any]) -> list[dict[str, Any]]:
        order = cmd.get("order")
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

    def apply_injection(self, inj: Injection) -> list[dict[str, Any]]:
        """Apply a disturbance at the current clock; returns its events, as
        ``advance`` does."""
        if inj.kind == "product-reject":
            raw = self._inj_reject(inj)
        elif inj.machine not in self._machines:
            raw = self._ignore(inj, f"unknown machine {inj.machine!r}")
        elif inj.kind in _OUTAGES:
            raw = self._start_outage(inj)
        else:
            raw = self._end_outage(inj.kind, inj.machine, inj)
        return self._seal(raw)

    def _start_outage(self, inj: Injection) -> list[dict[str, Any]]:
        mid = inj.machine
        m = self._machines[mid]
        flag, ender, kind, _, word = _OUTAGES[inj.kind]
        if getattr(m, flag):
            return self._ignore(inj, f"machine {mid!r} is already {word}")
        setattr(m, flag, True)
        info: dict[str, Any] = {}
        if inj.kind == "machine-down" and m.busy:
            # Preemption loses all progress; the product waits at the machine.
            info["preempted"] = self._stop_op(mid)[0]
        if inj.duration is not None:
            self._schedule(self.clock + inj.duration, ender, mid)
            info["duration"] = inj.duration
        ev: dict[str, Any] = {"kind": kind, "machine": mid, "node": self.model.machines[mid].node}
        if info:
            ev["info"] = info
        return [ev]

    def _end_outage(
        self, ender: str, mid: str, inj: Injection | None = None
    ) -> list[dict[str, Any]]:
        """End the outage of machine ``mid`` that ``ender`` ends, injected
        (``inj``) or scheduled.  A scheduled end is live only while its
        outage is; an injected one drops it."""
        flag, _, _, kind, word = _OUTAGES[_OUTAGE_OF[ender]]
        m = self._machines[mid]
        if not getattr(m, flag):
            return self._ignore(inj, f"machine {mid!r} is not {word}")
        setattr(m, flag, False)
        self._live.pop((ender, mid), None)
        return [{"kind": kind, "machine": mid, "node": self.model.machines[mid].node}]

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
            ev["machine"], ev["node"] = p.processing, p.node
            self._stop_op(p.processing)
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
