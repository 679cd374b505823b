"""Reference holonic control system.

Order holons carry routing, due date, and priority; resource holons mirror
machine availability as learned from the event stream.  Decisions are a pure
function of the belief state, so two sessions fed the same records produce
the same commands in the same order.  Each belief is kept once: a product in
transit is one with no node; the ``_FLAGS`` table gives the ``up`` or
``blocked`` value each machine event and directive sets; and ``_stop_op`` is
the one place a running operation stops, when it finishes, is preempted or
its product is rejected, leaving the product waiting at the machine's node.

Dispatch rule at an idle machine: among waiting products whose next step the
machine performs, pick by (priority desc, due asc, id asc).  Transport rule:
orders needing a move are served in the same rank order; the destination is
the output station when routing is done, otherwise the nearest believed-up,
unblocked machine capable of the next step (ties on machine id); the shuttle
is the idle one nearest the product (ties on shuttle id).

A round costs the products that can move, not every product waiting.  The
decision phase keeps these indexes: the unreleased holons in (release, id)
order, so only those whose release time has come are looked at; per machine,
a rank-ordered queue of the waiting products at its node whose next step it
performs; one rank-ordered list of every other waiting product (those at the
input station, those whose next step the machine at their node cannot do,
and those whose routing is done); a rank-ordered list of the released
holons with a cancel request; per (node, operation), the capable machines in
(travel, id) order, built on first use; and a count of open holons for the
idle test.  A holon touched by a directive, event, notice or dispatch is
re-placed once at the start of the next decision phase; ``set-priority``
re-sorts every list.  An idle machine takes the head of its queue.  A queued
product can only be sent on when its machine is believed down or blocked,
since otherwise that machine, at travel 0, is its destination; so transport
walks the other waiting products merged by rank with the queues of those
machines, and once no shuttle is idle and unassigned it serves only the
products that already hold one.  Invariant: every round issues exactly the
commands, in exactly the order, that the dispatch and transport rules above
give when applied to every holon.  A holon closes in one place, which frees
its shuttle.
"""

from __future__ import annotations

import bisect
import heapq
import json
from dataclasses import asdict, dataclass, field, replace
from operator import attrgetter
from typing import Any, Iterable

from .messages import ControlDirective, Notice
from .model import ShopModel


class OrderBookError(ValueError):
    """Invalid order book document; message names the offending field."""


class ControlProtocolError(RuntimeError):
    """The control was attached to a session it cannot serve."""


@dataclass(frozen=True)
class ProductOrder:
    """One customer order: routing steps plus scheduling attributes."""

    id: str
    routing: tuple[str, ...]
    release: int
    due: int
    priority: int = 0

    def to_dict(self) -> dict[str, Any]:
        return dict(vars(self), routing=list(self.routing))

    @classmethod
    def from_dict(cls, d: Any) -> "ProductOrder":
        """The order an order-book entry describes.  Each field is checked
        once, and the checked fields are set without the frozen dataclass
        constructor, which would only set them again, one call each."""
        if type(d) is not dict:
            raise OrderBookError(f"order {d!r} must be an object")
        oid, routing = d.get("id"), d.get("routing")
        release, due, priority = d.get("release"), d.get("due"), d.get("priority", 0)
        if not isinstance(routing, list) or not routing:
            raise OrderBookError(f"order {oid!r}: routing must be a non-empty list")
        for step in routing:
            if not isinstance(step, str):
                raise OrderBookError(f"order {oid!r}: routing steps must be strings")
        if type(release) is not int or release < 0:
            raise OrderBookError(f"order {oid!r}: release must be a non-negative integer")
        if type(due) is not int or due < 0:
            raise OrderBookError(f"order {oid!r}: due must be a non-negative integer")
        if not isinstance(oid, str) or not oid:
            raise OrderBookError("order id must be a non-empty string")
        if type(priority) is not int:
            raise OrderBookError(f"order {oid!r}: priority must be an integer")
        order = object.__new__(cls)
        order.__dict__.update(id=oid, routing=tuple(routing), release=release, due=due,
                              priority=priority)
        return order


def load_orders(text: str) -> list[ProductOrder]:
    """Parse and validate an order book document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise OrderBookError(f"order book is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "orders" not in doc:
        raise OrderBookError("order book must be an object with an orders list")
    if not isinstance(doc["orders"], list):
        raise OrderBookError("orders must be a list")
    orders = [ProductOrder.from_dict(d) for d in doc["orders"]]
    seen: set[str] = set()
    for o in orders:
        if o.id in seen:
            raise OrderBookError(f"duplicate order id {o.id!r}")
        seen.add(o.id)
    return orders


def load_orders_file(path: str) -> list[ProductOrder]:
    with open(path, encoding="utf-8") as f:
        return load_orders(f.read())


@dataclass
class _OrderHolon:
    spec: ProductOrder
    progress: int = 0  # routing steps completed
    released: bool = False
    release_sent: bool = False
    node: str | None = None  # None while in transit
    processing_at: str | None = None
    dispatched_to: str | None = None  # start-op claim awaiting confirmation
    assigned_shuttle: str | None = None
    cancel_requested: bool = False
    cancel_sent: bool = False
    open_: bool = True  # False once completed, cancelled or scrapped
    place: list[_OrderHolon] | None = field(default=None, repr=False, compare=False)
    rank: tuple[int, int, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.rerank()

    def rerank(self) -> None:
        self.rank = (-self.spec.priority, self.spec.due, self.spec.id)

    @property
    def next_operation(self) -> str | None:
        if self.progress >= len(self.spec.routing):
            return None
        return self.spec.routing[self.progress]


_rank = attrgetter("rank")


def _release_key(h: _OrderHolon) -> tuple[int, str]:
    return (h.spec.release, h.spec.id)


# Machine event or directive kind -> the resource-holon flag it sets and the
# value it sets it to.  Events report the floor, directives announce it.
_FLAGS = {
    "machine-down": ("up", False),
    "machine-up": ("up", True),
    "supply-blocked": ("blocked", True),
    "supply-restored": ("blocked", False),
    "announce-breakdown": ("up", False),
    "announce-supply-block": ("blocked", True),
}


@dataclass
class _ResourceHolon:
    id: str
    node: str
    operations: dict[str, int]
    up: bool = True
    blocked: bool = False
    busy_order: str | None = None
    claimed: bool = False  # start-op issued this or a prior round, unconfirmed
    queue: list[_OrderHolon] = field(default_factory=list, repr=False, compare=False)


@dataclass
class _ShuttleBelief:
    id: str
    node: str | None  # None while moving
    assigned_order: str | None = None


@dataclass
class ControlStats:
    commands_issued: int = 0
    directives_handled: int = 0
    reschedules: int = 0


class ReferenceControl:
    """Deterministic order/resource holon controller."""

    def __init__(self, model: ShopModel):
        self.model = model
        self._orders: dict[str, _OrderHolon] = {}
        self._machines = {
            mid: _ResourceHolon(id=mid, node=spec.node, operations=dict(spec.operations))
            for mid, spec in sorted(model.machines.items())
        }
        self._shuttles = {
            sid: _ShuttleBelief(id=sid, node=spec.home)
            for sid, spec in sorted(model.shuttles.items())
        }
        self.stats = ControlStats()
        # Decision indexes (see the module docstring).
        self._open = 0
        self._unreleased: list[_OrderHolon] = []
        self._at_node = {r.node: r for r in self._machines.values()}
        self._movers: list[_OrderHolon] = []
        self._cancels: list[_OrderHolon] = []
        self._touched: list[_OrderHolon] = []
        self._resort = False
        self._capable: dict[tuple[str, str], list[_ResourceHolon]] = {}

    # -- session wiring -------------------------------------------------------

    def check_model_hash(self, model_hash: str) -> None:
        if model_hash != self.model.model_hash:
            raise ControlProtocolError(
                "emulation model hash does not match the control's model"
            )

    def load_orders(self, orders: Iterable[ProductOrder]) -> None:
        for o in orders:
            self._orders[o.id] = _OrderHolon(spec=o)
        holons = self._orders.values()
        self._open = sum(h.open_ for h in holons)
        self._unreleased = sorted(
            (h for h in holons if h.open_ and not h.released), key=_release_key
        )

    # -- belief updates --------------------------------------------------------

    def _apply_directive(self, d: ControlDirective) -> None:
        if d.kind == "insert-order":
            try:
                spec = ProductOrder.from_dict(d.order)
            except OrderBookError:
                return
            if spec.id in self._orders:
                return
            if any(not self.model.capable_machines(op) for op in spec.routing):
                return
            h = self._orders[spec.id] = _OrderHolon(spec=spec)
            self._open += 1
            bisect.insort(self._unreleased, h, key=_release_key)
            self.stats.directives_handled += 1
        elif d.kind == "cancel-order":
            h = self._orders.get(d.order_id)
            if h is None or not h.open_:
                return
            h.cancel_requested = True
            self._touched.append(h)
            if not h.released and not h.release_sent:
                # Never hit the floor; cancel is a pure book operation.
                self._close(h)
            self.stats.directives_handled += 1
        elif d.kind == "set-priority":
            h = self._orders.get(d.order_id)
            if h is None:
                return
            h.spec = replace(h.spec, priority=d.priority)
            h.rerank()
            self._resort = True
            self.stats.directives_handled += 1
        elif d.kind in _FLAGS:
            r = self._machines.get(d.machine)
            if r is None:
                return
            setattr(r, *_FLAGS[d.kind])
            self.stats.directives_handled += 1

    def _close(self, h: _OrderHolon) -> None:
        """End ``h`` (completed, cancelled or scrapped) and free its shuttle."""
        if h.open_:
            h.open_ = False
            self._open -= 1
        if h.assigned_shuttle:
            self._shuttles[h.assigned_shuttle].assigned_order = None
            h.assigned_shuttle = None

    def _stop_op(self, r: _ResourceHolon, h: _OrderHolon | None) -> bool:
        """Free ``r``; if ``h`` was running on it, leave ``h`` waiting at its
        node and return True."""
        r.busy_order = None
        if h is None or h.processing_at != r.id:
            return False
        h.processing_at = None
        h.node = r.node
        return True

    def _apply_event(self, ev: dict[str, Any]) -> None:
        kind, order = ev["kind"], ev.get("order")
        h = self._orders.get(order) if order else None
        if h is not None:
            self._touched.append(h)
        if kind in _FLAGS:
            r = self._machines[ev["machine"]]
            setattr(r, *_FLAGS[kind])
            if kind == "machine-down":
                r.claimed = False
                # Progress on an interrupted step is lost.
                preempted = (ev.get("info") or {}).get("preempted") or r.busy_order
                ph = self._orders.get(preempted or "")
                if self._stop_op(r, ph):
                    self._touched.append(ph)
                    self.stats.reschedules += 1
        elif kind == "order-released":
            if h is not None:
                h.released = True
                h.node = ev.get("node")
        elif kind == "shuttle-departed":
            self._shuttles[ev["shuttle"]].node = None
            if h is not None:
                h.node = None
        elif kind == "shuttle-arrived":
            s = self._shuttles[ev["shuttle"]]
            s.node = ev.get("node")
            # A fetch arrival (no order aboard) keeps the claim so the carry
            # leg is issued next round; a delivery releases the shuttle.
            if h is not None:
                h.node = s.node
                if h.assigned_shuttle == s.id:
                    h.assigned_shuttle = None
                    s.assigned_order = None
        elif kind == "op-started":
            r = self._machines[ev["machine"]]
            r.busy_order = order
            r.claimed = False
            if h is not None:
                h.processing_at = r.id
                h.dispatched_to = None
        elif kind == "op-finished":
            if self._stop_op(self._machines[ev["machine"]], h):
                h.progress += 1
        elif kind == "product-rejected":
            if h is None:
                return
            was_processing = h.processing_at
            if was_processing:
                self._stop_op(self._machines[was_processing], h)
                self.stats.reschedules += 1
            policy = (ev.get("info") or {}).get("policy")
            if policy == "scrap":
                self._close(h)
            elif policy == "rework":
                # Rework repeats the spoiled step: the running one if caught
                # in process, otherwise the step just finished.
                if not was_processing:
                    h.progress = max(0, h.progress - 1)
        elif kind in ("order-completed", "order-cancelled"):
            if h is not None:
                self._close(h)

    def _apply_notice(self, n: Notice) -> None:
        if n.kind != "command-rejected" or n.command is None:
            return
        cmd = n.command
        kind = cmd.get("kind")
        if kind == "start-op":
            h = self._orders.get(cmd.get("order") or "")
            if h is not None and h.dispatched_to == cmd.get("machine"):
                h.dispatched_to = None
                self._touched.append(h)
                self.stats.reschedules += 1
            r = self._machines.get(cmd.get("machine") or "")
            if r is not None:
                r.claimed = False
        elif kind == "move-shuttle":
            sid = cmd.get("shuttle")
            s = self._shuttles.get(sid or "")
            if s is not None and s.assigned_order:
                h = self._orders.get(s.assigned_order)
                if h is not None and h.assigned_shuttle == sid:
                    h.assigned_shuttle = None
                s.assigned_order = None
                self.stats.reschedules += 1
        elif kind == "release-order":
            h = self._orders.get(cmd.get("order") or "")
            if h is not None:
                h.release_sent = False
        elif kind == "cancel-order":
            h = self._orders.get(cmd.get("order") or "")
            if h is not None:
                h.cancel_sent = False

    # -- decision phase ---------------------------------------------------------

    def _dest_for(self, h: _OrderHolon) -> str | None:
        """Believed destination node, or None when no machine can serve."""
        op = h.next_operation
        if op is None:
            return self.model.output_station
        capable = self._capable.get((h.node, op))
        if capable is None:
            capable = self._capable[(h.node, op)] = self._capable_from(h.node, op)
        for r in capable:
            if r.up and not r.blocked:
                return r.node
        return None

    def _capable_from(self, node: str, op: str) -> list[_ResourceHolon]:
        """Machines performing ``op`` reachable from ``node``, by (travel, id)."""
        reachable = []
        for mid, r in self._machines.items():
            travel = self.model.travel_time(node, r.node) if op in r.operations else None
            if travel is not None:
                reachable.append((travel, mid))
        return [self._machines[mid] for _, mid in sorted(reachable)]

    def _release_due(self, now: int, commands: list[dict[str, Any]]) -> None:
        """Release, in id order, every order whose release time has come."""
        if not self._unreleased or self._unreleased[0].spec.release > now:
            return
        due: list[_OrderHolon] = []
        kept: list[_OrderHolon] = []
        scanned = 0
        for h in self._unreleased:
            if h.spec.release > now:
                break
            scanned += 1
            if h.released or not h.open_:
                continue
            kept.append(h)
            if not h.release_sent and not h.cancel_requested:
                due.append(h)
        self._unreleased[:scanned] = kept
        for h in sorted(due, key=lambda h: h.spec.id):
            commands.append({"kind": "release-order", "order": h.spec.id})
            h.release_sent = True

    def _place(self, h: _OrderHolon) -> list[_OrderHolon] | None:
        """The index list ``h`` belongs in now (see the module docstring)."""
        if not h.released or not h.open_:
            return None
        if h.cancel_requested:
            return self._cancels
        if h.processing_at or h.dispatched_to or h.node is None:
            return None
        r = self._at_node.get(h.node)
        if r is not None and h.next_operation in r.operations:
            return r.queue
        return self._movers

    def _reindex(self) -> None:
        """Re-sort after ``set-priority``, then re-place every touched holon."""
        if self._resort:
            self._movers.sort(key=_rank)
            self._cancels.sort(key=_rank)
            for r in self._machines.values():
                r.queue.sort(key=_rank)
            self._resort = False
        for h in self._touched:
            place = self._place(h)
            if place is h.place:
                continue
            if h.place is not None:
                del h.place[bisect.bisect_left(h.place, h.rank, key=_rank)]
            if place is not None:
                bisect.insort(place, h, key=_rank)
            h.place = place
        self._touched.clear()

    def _decide(self, now: int) -> list[dict[str, Any]]:
        commands: list[dict[str, Any]] = []
        self._release_due(now, commands)
        if self._touched or self._resort:
            self._reindex()

        for h in self._cancels:
            if not h.cancel_sent and h.processing_at is None and h.node is not None:
                commands.append({"kind": "cancel-order", "order": h.spec.id})
                h.cancel_sent = True

        # Queued products can only be sent on from a machine believed down or
        # blocked; an idle machine takes the head of its queue.
        stuck = []
        for r in self._machines.values():
            if not r.queue:
                continue
            if not r.up or r.blocked:
                stuck.append(r.queue)
            elif r.busy_order is None and not r.claimed:
                h = r.queue[0]
                commands.append({
                    "kind": "start-op", "machine": r.id, "order": h.spec.id,
                    "operation": h.next_operation,
                })
                h.dispatched_to = r.id
                r.claimed = True
                self._touched.append(h)

        free = sum(
            1 for s in self._shuttles.values()
            if s.assigned_order is None and s.node is not None
        )
        held: list[_OrderHolon] = []
        for h in heapq.merge(self._movers, *stuck, key=_rank) if stuck else self._movers:
            if not free:
                # Only products that already hold a shuttle can still move.
                held = sorted(self._held_from(h.rank), key=_rank)
                break
            free -= self._transport(h, commands)
        for h in held:
            self._transport(h, commands)
        return commands

    def _held_from(self, rank: tuple[int, int, str]) -> list[_OrderHolon]:
        """Products ranked at or after ``rank`` that hold a shuttle and were
        waiting at the start of this round, less those dispatched in it."""
        held = []
        for s in self._shuttles.values():
            if s.assigned_order is None:
                continue
            h = self._orders[s.assigned_order]
            if (
                h.assigned_shuttle is not None
                and h.rank >= rank
                and h.place is not None
                and h.place is not self._cancels
                and not h.dispatched_to
            ):
                held.append(h)
        return held

    def _transport(self, h: _OrderHolon, commands: list[dict[str, Any]]) -> bool:
        """Issue the move ``h`` needs, if any; True when it took a free shuttle."""
        dest = self._dest_for(h)
        if dest is None or dest == h.node:
            return False
        shuttle = self._pick_shuttle(h)
        if shuttle is None:
            return False
        took_free = h.assigned_shuttle is None
        if shuttle.node == h.node:
            commands.append({
                "kind": "move-shuttle", "shuttle": shuttle.id, "destination": dest,
                "carry": h.spec.id,
            })
        else:
            commands.append({"kind": "move-shuttle", "shuttle": shuttle.id, "destination": h.node})
        shuttle.assigned_order = h.spec.id
        h.assigned_shuttle = shuttle.id
        return took_free

    def _pick_shuttle(self, h: _OrderHolon) -> _ShuttleBelief | None:
        if h.assigned_shuttle is not None:
            s = self._shuttles[h.assigned_shuttle]
            return None if s.node is None else s
        free = [
            (travel, sid) for sid, s in self._shuttles.items()
            if s.assigned_order is None and s.node is not None and h.node
            and (travel := self.model.travel_time(s.node, h.node)) is not None
        ]
        return self._shuttles[min(free)[1]] if free else None

    # -- round entry point --------------------------------------------------------

    def on_round(
        self,
        now: int,
        directives: Iterable[ControlDirective],
        events: Iterable[dict[str, Any]],
        notices: Iterable[Notice],
    ) -> tuple[list[dict[str, Any]], bool]:
        """One round: directives, event bodies and notices in; (command bodies, idle) out."""
        for d in directives:
            self._apply_directive(d)
        for ev in events:
            self._apply_event(ev)
        for n in notices:
            self._apply_notice(n)
        commands = self._decide(now)
        self.stats.commands_issued += len(commands)
        idle = not commands and self._open == 0
        return commands, idle

    def export_kpi(self) -> dict[str, int]:
        """End-of-run counters published on the wire as final taps."""
        return asdict(self.stats)
