"""Interface layer: wire codec, transports, session driving, replay.

Wire format ("IL1"): one record per line, the ASCII prefix "IL1 " followed
by a canonical JSON object and a newline, UTF-8 throughout.  Every record
has exactly the keys {"v", "role", "round", "t", "kind", "body", "corr"}.
A session log is the verbatim concatenation of wire lines in wire order,
which makes the log itself the unit of replay: feeding its emulation and
scenario records to a fresh control re-creates that control's inputs byte
for byte.

The emulation side owns the clock and drives rounds; the control side
answers each event batch with its commands, then an end-of-round record,
which ends the reply.  The round driver times each round from
sending the event batch to receiving the end-of-round, so the control's
decision latency is measured outside the control and never crosses the
wire: two runs of one seed write the same log bytes.
Scenario-manager records ride the same wire and are recorded in place: run
metadata after the hello, and each round's injection audits, then its
directives, sent by ``open_round`` ahead of its event batch.  The driver's
one read, ``_recv``, refuses a reply of another role or kind.

Decoding is strict about the shape of a line: after the prefix comes exactly
one JSON object, then the newline.  Unlike ``json.loads``, no whitespace is
accepted before or after the object, so a trailing space or a carriage
return before the newline makes the line invalid.  Canonical lines never
contain either.

The round driver talks to its control through an endpoint, whether the
control runs in process or over a socket.  An endpoint has two calls and
``close()``: ``send(record)`` encodes, delivers and returns the record's
line, and ``recv()`` returns the control's next ``(line, record)``.  The
driver reads nothing of a record it has sent.

Each line is encoded once, by ``encode_record``, and decoded only by a
reader that was not given its record, by ``decode_line``; both check the
record's shape with ``check_record``, and nothing else does.  Events and
commands cross as bodies: a batch's ``events`` are the kernel's own event
bodies, and a command record's body is the control's own command.  A body
is checked once, by its message class's ``check_body``, where it enters the
program from outside, and copied where it is received.  ``ControlClient``
hands the control a copy of each event, checked if it was read from a
socket or a log (in process the events are the kernel's sealed bodies), and
builds the rare directives and notices with ``from_dict``.  The round
driver hands the kernel a checked copy of each command and checks each
tap.  A body that fails, in ``built_body``, raises
``ProtocolError``, or, read from a log (events, or the KPI oracle's
run-meta, directives and taps), ``DecodeError`` at its line's byte offset.
In process, the control gets the driver's own record and its replies are
queued with their records, so the session decodes nothing; a socket carries
only the line, decoded once by its receiver.  The recorder gets each line
with its record once the session is done with it.  Every log reader walks
``iter_records``, which decodes each line once, as it yields it.  Replay
indexes the whole log before the control sees a record and encodes only the
command and end-of-round records the control returns.
"""

from __future__ import annotations

import io
import json
import json.scanner
import operator
import socket
import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from .canon import canon_dumps, canon_str, is_int
from .control import OrderBookError, ProductOrder, ReferenceControl
from .messages import ControlCommand, ControlDirective, MessageError, Notice, SimEvent, Tap
from .scenario import Firing

WIRE_PREFIX = b"IL1 "
WIRE_VERSION = "1"
RECORD_KEYS = frozenset({"v", "role", "round", "t", "kind", "body", "corr"})

ROLE_EMULATION = "emulation"
ROLE_CONTROL = "control"
ROLE_SCENARIO = "scenario-manager"

# The tap flow that carries the control's end-of-run counters.
FLOW_CONTROL_KPI = "FLOW7"


class DecodeError(ValueError):
    """A wire line violates the record format.  Carries the byte offset."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class ProtocolError(RuntimeError):
    """A well-formed record arrived where the protocol forbids it."""


class EndOfStream(Exception):
    """The peer closed the wire."""


class ReplayError(RuntimeError):
    """A session log cannot be replayed faithfully."""


# -- codec --------------------------------------------------------------------


def make_record(
    role: str, round_no: int, t: int, kind: str, body: dict[str, Any], corr: int | None = None
) -> dict[str, Any]:
    return {
        "v": WIRE_VERSION,
        "role": role,
        "round": round_no,
        "t": t,
        "kind": kind,
        "body": body,
        "corr": corr,
    }


_LINE_HEAD = WIRE_PREFIX.decode("ascii") + '{"body":'
_LINE_TAIL = ',"v":' + canon_str(WIRE_VERSION) + "}\n"


def encode_record(record: dict[str, Any]) -> bytes:
    """The wire line of a record: its canonical JSON after the prefix.

    The record is checked first, by ``check_record``, so no line is written
    that ``decode_line`` would refuse.  Its keys are then fixed, so the body
    is the only part that needs the canonical encoder: it is spliced into
    the envelope with the other keys in sorted order, strings written by
    ``canon_str`` and integers, which the check has told from booleans, by
    ``str``.  The bytes are ``canon_dumps`` of the whole record.
    """
    check_record(record)
    corr = record["corr"]
    return (
        f'{_LINE_HEAD}{canon_dumps(record["body"])},"corr":{"null" if corr is None else corr}'
        f',"kind":{canon_str(record["kind"])},"role":{canon_str(record["role"])}'
        f',"round":{record["round"]},"t":{record["t"]}{_LINE_TAIL}'
    ).encode("utf-8")


# Lines are parsed by CPython's C scanner, built once, instead of through
# ``json.loads``, ``JSONDecoder.decode`` and ``raw_decode``.  It takes the
# default decoder's settings, so it builds the same values ``json.loads``
# does.
if json.scanner.c_make_scanner is None:
    raise ImportError("holobench needs CPython's C json scanner (json.scanner.c_make_scanner)")
_scan = json.scanner.c_make_scanner(json.JSONDecoder())


def decode_line(line: bytes, offset: int = 0) -> dict[str, Any]:
    """Decode one wire line into its record; ``offset`` locates it in a log.

    After the prefix the line must hold exactly one JSON object, then the
    newline.  Unlike ``json.loads``, no whitespace is accepted before or
    after the object: a trailing space or a carriage return before the
    newline raises ``DecodeError``, as does anything after the object.
    """
    if not line.startswith(WIRE_PREFIX):
        raise DecodeError("line does not start with the IL1 prefix", offset)
    try:
        payload = line[len(WIRE_PREFIX) :].rstrip(b"\n").decode("utf-8")
        record, end = _scan(payload, 0)
    except StopIteration as exc:  # the scanner found no value at index 0
        raise DecodeError(
            f"record is not valid JSON: no value at char {exc.value}", offset
        ) from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DecodeError(f"record is not valid JSON: {exc}", offset) from exc
    if end != len(payload):
        raise DecodeError(f"record is not valid JSON: extra data at char {end}", offset)
    return check_record(record, offset)


def check_record(record: Any, offset: int = 0) -> dict[str, Any]:
    """Check a record's shape, as ``decode_line`` does after the parse.

    Exactly the wire keys, the wire version, integer ``round`` and ``t``,
    string ``role`` and ``kind``, an object ``body`` and an integer or null
    ``corr``; ``DecodeError`` names the first that fails.  JSON ``true`` and
    ``false`` are not integers here.  Returns the record.
    """
    if not isinstance(record, dict):
        raise DecodeError("record must be a JSON object", offset)
    if record.keys() != RECORD_KEYS:
        raise DecodeError(f"record keys must be exactly {sorted(RECORD_KEYS)}", offset)
    if record["v"] != WIRE_VERSION:
        raise DecodeError(f"unsupported wire version {record['v']!r}", offset)
    if type(record["round"]) is not int or type(record["t"]) is not int:
        raise DecodeError("round and t must be integers", offset)
    if not isinstance(record["role"], str) or not isinstance(record["kind"], str):
        raise DecodeError("role and kind must be strings", offset)
    if not isinstance(record["body"], dict):
        raise DecodeError("body must be an object", offset)
    if record["corr"] is not None and type(record["corr"]) is not int:
        raise DecodeError("corr must be an integer or null", offset)
    return record


def _no_newline(offset: int) -> Exception:
    return DecodeError("log ends without a newline", offset)


def iter_records(
    log: bytes, truncated: Callable[[int], Exception] = _no_newline
) -> Iterator[tuple[bytes, dict[str, Any]]]:
    """Yield ``(line, record)`` for each newline-terminated line of a log.

    A broken line raises ``DecodeError`` at its byte offset, and a tail
    without a newline raises ``truncated(offset)``, each once the complete
    lines before it have been yielded.
    """
    offset = 0
    while offset < len(log):
        end = log.find(b"\n", offset)
        if end == -1:
            raise truncated(offset)
        line = log[offset : end + 1]
        yield line, decode_line(line, offset)
        offset = end + 1


def extract_command_log(log: bytes) -> bytes:
    """Control-role command and end-of-round lines, verbatim."""
    out = bytearray()
    for line, record in iter_records(log):
        if record["role"] == ROLE_CONTROL and record["kind"] in ("command", "end-of-round"):
            out += line
    return bytes(out)


def built_body(
    build: Callable[[Any], Any], record: dict[str, Any], offset: int | None = None
) -> Any:
    """``build`` of the record's body.  A body that builds nothing raises
    ``ProtocolError`` naming the record's role and kind, or, for a record
    read from a log at byte ``offset``, ``DecodeError`` there."""
    try:
        return build(record["body"])
    except (KeyError, TypeError, MessageError, OrderBookError) as exc:
        if offset is not None:
            raise DecodeError(f"{record['kind']} refused: {exc}", offset) from exc
        raise ProtocolError(
            f"{record['role']} {record['kind']} body builds no message: {exc!r}"
        ) from exc


def batch_events(
    record: dict[str, Any], offset: int = 0, build: Callable[[Any], Any] = SimEvent.check_body
) -> list[Any]:
    """The events of an event-batch record, each checked once by ``build``:
    ``SimEvent.check_body`` gives the bodies, ``SimEvent.from_dict`` the
    messages.  A body without an events list, or with an event that fails
    its check, raises ``DecodeError`` at ``offset``."""

    def events(body: dict[str, Any]) -> list[Any]:
        if type(body.get("events")) is not list:
            raise MessageError("event-batch body must hold an events list")
        return [build(event) for event in body["events"]]

    return built_body(events, record, offset)


def extract_event_stream(log: bytes) -> list[SimEvent]:
    """The emulation's production events, in wire order."""
    events: list[SimEvent] = []
    offset = 0
    for line, record in iter_records(log):
        if record["role"] == ROLE_EMULATION and record["kind"] == "event-batch":
            events.extend(batch_events(record, offset, SimEvent.from_dict))
        offset += len(line)
    return events


# -- control client -------------------------------------------------------------


class ControlClient:
    """Answers the emulation's records on behalf of a ReferenceControl.

    ``handle`` takes one inbound record.  A round (directives, then one
    event batch) is answered with command records and an end-of-round
    record, and run-end with the control's end-of-run taps and a bye.  Each
    reply record goes to ``send`` as it is made.  An inbound body the
    control cannot take (a hello without a model hash, a run-meta that
    ``run_meta_orders`` refuses, a bad event or directive) raises
    ``ProtocolError`` naming its record.

    ``copy_event`` copies each event for the control: by default the checked
    copy ``SimEvent.copy_body``, which a body read from a socket or a log
    needs; ``InProcEndpoint``'s events are the kernel's sealed bodies.
    """

    def __init__(self, send: Callable[[dict[str, Any]], None], control: ReferenceControl,
                 copy_event: Callable[[Any], dict[str, Any]] = SimEvent.copy_body):
        self._send = send
        self._control = control
        self._copy_event = copy_event
        self._directives: list[ControlDirective] = []
        self._round = 0

    def handle(self, record: dict[str, Any]) -> bool:
        """Handle one inbound record; False once the session is over."""
        kind = record["kind"]
        if kind == "hello":
            self._control.check_model_hash(built_body(operator.itemgetter("model_hash"), record))
            body = {"model_hash": self._control.model.model_hash, "policy": "reference-holonic"}
            self._send(make_record(ROLE_CONTROL, 0, 0, "hello", body))
        elif kind == "run-meta":
            self._control.load_orders(built_body(run_meta_orders, record))
        elif kind == "injection":
            pass  # audit trail only
        elif kind == "directive":
            self._directives.append(built_body(ControlDirective.from_dict, record))
        elif kind == "event-batch":
            self._serve_round(record)
        elif kind == "run-end":
            round_no = record["round"]
            for i, (name, value) in enumerate(sorted(self._control.export_kpi().items())):
                body = {"flow": FLOW_CONTROL_KPI, "name": name, "value": value, "i": i}
                self._send(make_record(ROLE_CONTROL, round_no, record["t"], "tap", body))
            self._send(make_record(ROLE_CONTROL, round_no, record["t"], "bye", {}))
            return False
        else:
            raise ProtocolError(f"control cannot handle record kind {kind!r}")
        return True

    def _serve_round(self, record: dict[str, Any]) -> None:
        round_no, t = record["round"], record["t"]
        if round_no != self._round + 1:
            raise ProtocolError(
                f"round monotonicity violated: got round {round_no} after {self._round}"
            )
        self._round = round_no
        events, notices = built_body(self._round_inputs, record)
        commands, idle = self._control.on_round(t, self._directives, events, notices)
        self._directives = []
        for cmd in commands:
            self._send(make_record(ROLE_CONTROL, round_no, t, "command", cmd, round_no))
        end = make_record(ROLE_CONTROL, round_no, t, "end-of-round", {"idle": idle}, round_no)
        self._send(end)

    def _round_inputs(self, body: dict[str, Any]) -> tuple[list[dict[str, Any]], list[Notice]]:
        """A copy of each event of a batch body, by ``copy_event``, and its notices."""
        notices = [Notice.from_dict(d) for d in body.get("notices", ())]
        return list(map(self._copy_event, body["events"])), notices


def _copy_sealed_event(body: dict[str, Any]) -> dict[str, Any]:
    """An unchecked copy of an event body the kernel sealed, its ``info``
    included, so a control that changes it leaves the recorded body alone."""
    copy = dict(body)
    if "info" in copy:
        copy["info"] = dict(copy["info"])
    return copy


def run_meta_orders(body: dict[str, Any]) -> list[ProductOrder]:
    """The orders of a run-meta body; the body's run id, scenario, seed and
    machines, which the KPI report reads, must have the report's types."""
    orders, machines = body.get("orders", []), body.get("machines", [])
    if not (type(body.get("run_id", "")) is str and type(body.get("scenario", "")) is str
            and is_int(body.get("seed", 0)) and type(orders) is list and type(machines) is list
            and all(type(m) is str for m in machines)):
        raise MessageError("run-meta needs a string run_id and scenario, an integer seed, "
                           "and lists of orders and machine ids")
    return [ProductOrder.from_dict(d) for d in orders]


def serve_control(endpoint, control: ReferenceControl) -> None:
    """Serve ``control`` over ``endpoint`` until run-end or until the peer
    closes the wire, which a read or a reply can find, then close the
    endpoint; for a control on the far side of a socket, typically in its
    own thread."""
    client = ControlClient(endpoint.send, control)
    try:
        while client.handle(endpoint.recv()[1]):
            pass
    except (EndOfStream, BrokenPipeError, ConnectionResetError):
        pass
    finally:
        endpoint.close()


# -- endpoints ------------------------------------------------------------------


class InProcEndpoint:
    """The driver's endpoint to a control served in process, by direct call.

    ``send`` encodes the record, then hands it to the control.  It carries
    only the round driver's records, whose events are the kernel's sealed
    bodies, so the control gets an unchecked copy of each event; events
    from a socket or a log are checked by ``serve_control`` and
    ``replay_session``.  The control's replies are encoded and queued with
    their records, and ``recv`` pops the next one.  A receive with no reply
    waiting breaks the lock step and raises ``ProtocolError``; once the
    control has said bye, or the endpoint is closed, a receive with none
    left raises ``EndOfStream`` and a send raises ``ProtocolError``.
    """

    def __init__(self, control: ReferenceControl):
        self._replies: deque[tuple[bytes, dict[str, Any]]] = deque()
        self._client = ControlClient(self._queue_reply, control, _copy_sealed_event)
        self._open = True

    def _queue_reply(self, record: dict[str, Any]) -> None:
        self._replies.append((encode_record(record), record))

    def send(self, record: dict[str, Any]) -> bytes:
        if not self._open:
            raise ProtocolError("the session has ended")
        line = encode_record(record)
        self._open = self._client.handle(record)
        return line

    def recv(self) -> tuple[bytes, dict[str, Any]]:
        if not self._replies:
            if not self._open:
                raise EndOfStream
            raise ProtocolError("lock-step violation: no record is waiting")
        return self._replies.popleft()

    def close(self) -> None:
        self._open = False


class SocketEndpoint:
    """Line transport over a stream socket with a receive timeout.

    Only the line crosses: ``send`` writes the record's line, and ``recv``
    decodes each line it reads.
    """

    def __init__(self, sock: socket.socket, timeout: float | None = 5.0):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._buffer = bytearray()

    def send(self, record: dict[str, Any]) -> bytes:
        line = encode_record(record)
        self._sock.sendall(line)
        return line

    def recv_line(self) -> bytes:
        while True:
            nl = self._buffer.find(b"\n")
            if nl != -1:
                line = bytes(self._buffer[: nl + 1])
                del self._buffer[: nl + 1]
                return line
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout as exc:
                raise TimeoutError("peer did not answer within the receive timeout") from exc
            if not chunk:
                if self._buffer:
                    raise DecodeError("stream closed mid-line")
                raise EndOfStream
            self._buffer += chunk

    def recv(self) -> tuple[bytes, dict[str, Any]]:
        line = self.recv_line()
        return line, decode_line(line)

    def close(self) -> None:
        """Shut down the write side, then close the socket."""
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._sock.close()


# -- recording ----------------------------------------------------------------


class RunRecorder:
    """Accumulates the session log and fans records out to observers.

    The log is one growing buffer: each committed line is written into it
    as it is recorded, and no per-line object is kept.  ``log_bytes`` hands
    that buffer over, which CPython does without copying it, so a session
    holds its log once.

    Observers are read-only taps: each gets every record, in wire order, as
    its line is committed to the log.  Each line comes with its record, the
    one its sender encoded or its receiver got, so the recorder decodes
    nothing.  The round driver records a record only once the session is
    done with it, so an observer cannot affect the session.
    """

    def __init__(self):
        self._log = io.BytesIO()
        self._observers: list[Callable[[dict[str, Any]], None]] = []

    def attach(self, observer: Callable[[dict[str, Any]], None]) -> None:
        self._observers.append(observer)

    def record(self, line: bytes, record: dict[str, Any]) -> None:
        self._log.write(line)
        for obs in self._observers:
            obs(record)

    def log_bytes(self) -> bytes:
        return self._log.getvalue()


# -- emulation-side round driver -------------------------------------------------


class RoundDriver:
    """Emulation-side half of the round protocol.

    Owns the wire: sends hello and run metadata; ``open_round`` numbers a
    round and sends its scenario records (injection audits, then
    directives), and ``play_round`` its event batch and reads the reply.
    ``_recv`` refuses a reply of another role or kind.  Records both
    directions: each line it sends goes to the recorder with the record it
    was encoded from, once the endpoint has taken it, and each line it
    receives with the record the endpoint hands over, once the driver has
    read it.  Does not know about the kernel; the bench harness supplies
    firings and batches and consumes commands.

    Times each round on the host clock, from sending the event batch to
    receiving the end-of-round: ``round_ms`` holds one wall-clock figure
    per answered round, in milliseconds.  They never enter the log.
    """

    def __init__(self, endpoint, model_hash: str, recorder: RunRecorder):
        self._ep = endpoint
        self._model_hash = model_hash
        self._recorder = recorder
        self.round_no = 0
        self.round_ms: list[float] = []

    def _send(self, record: dict[str, Any]) -> None:
        self._recorder.record(self._ep.send(record), record)

    def _recv(self, kinds: tuple[str, ...], refusal: str) -> tuple[bytes, dict[str, Any]]:
        """The control's next line and record, refusing one of another role,
        or of a kind not in ``kinds`` with ``refusal.format(kind)``; the
        caller records the line once it has read the record."""
        try:
            line, record = self._ep.recv()
        except EndOfStream:
            raise ProtocolError("the control hung up before its bye") from None
        if record["role"] != ROLE_CONTROL:
            raise ProtocolError(f"unexpected {record['role']} record in a control reply")
        if record["kind"] not in kinds:
            raise ProtocolError(refusal.format(record["kind"]))
        return line, record

    def handshake(self) -> None:
        """Send hello and check the control's hello in reply."""
        self._send(make_record(ROLE_EMULATION, 0, 0, "hello", {"model_hash": self._model_hash}))
        line, record = self._recv(("hello",), "expected the control's hello")
        if record["body"].get("model_hash") != self._model_hash:
            raise ProtocolError("control answered with a different model hash")
        self._recorder.record(line, record)

    def send_run_meta(self, body: dict[str, Any]) -> None:
        self._send(make_record(ROLE_SCENARIO, 0, 0, "run-meta", body))

    def open_round(self, t: int, firings: list[Firing]) -> None:
        """Number the next round and send its firings' injection audits, then their directives."""
        self.round_no += 1
        for firing in firings:
            for inj in firing.injections:
                body = {"rule": firing.rule_id, "injection": inj.to_dict()}
                self._send(make_record(ROLE_SCENARIO, self.round_no, t, "injection", body))
        for firing in firings:
            for d in firing.directives:
                self._send(make_record(ROLE_SCENARIO, self.round_no, t, "directive", d.to_dict()))

    def play_round(
        self, t: int, events: list[dict[str, Any]], notices: Iterable[Notice]
    ) -> tuple[list[dict[str, Any]], bool]:
        """Send the round's event batch and read the control's reply, up to
        and including its end-of-round; return the commands and the idle
        flag.  The kernel's event bodies are the batch's events; notices go
        through ``to_dict``.  Each command is a checked copy of the control's
        body.  An ``idle`` other than true or false raises ``ProtocolError``."""
        body = {"events": events, "notices": [n.to_dict() for n in notices]}
        sent = time.perf_counter()
        self._send(make_record(ROLE_EMULATION, self.round_no, t, "event-batch", body))
        commands: list[dict[str, Any]] = []
        while True:
            line, record = self._recv(("command", "end-of-round"),
                                      "unexpected control record kind {!r}")
            kind = record["kind"]
            if record["corr"] != self.round_no:
                raise ProtocolError(f"{kind} correlates to the wrong round")
            if kind == "command":
                commands.append(built_body(ControlCommand.copy_body, record))
            else:
                self.round_ms.append((time.perf_counter() - sent) * 1000.0)
                idle = record["body"].get("idle")
                if type(idle) is not bool:
                    raise ProtocolError(f"end-of-round idle must be true or false, not {idle!r}")
            self._recorder.record(line, record)
            if kind == "end-of-round":
                return commands, idle

    def end_run(self, t: int, reason: str) -> None:
        """Send run-end and read the control's final taps and its bye.  A tap
        that ``Tap.check_body`` refuses, is on another flow than FLOW7 (the
        one the KPI folds read) or has an i not above the previous tap's
        raises ``ProtocolError``, so the KPI engine observes only checked
        taps, in order."""
        self.round_no += 1
        self._send(make_record(ROLE_EMULATION, self.round_no, t, "run-end", {"reason": reason}))
        last_i = None
        while True:
            line, record = self._recv(("tap", "bye"), "unexpected record {!r} after run-end")
            kind = record["kind"]
            if kind == "tap":
                body = built_body(Tap.check_body, record)
                if body["flow"] != FLOW_CONTROL_KPI:
                    raise ProtocolError(
                        f"control tap flow {body['flow']!r} is not {FLOW_CONTROL_KPI}"
                    )
                if last_i is not None and body["i"] <= last_i:
                    raise ProtocolError(
                        f"control tap i={body['i']} does not exceed the previous tap's i={last_i}"
                    )
                last_i = body["i"]
            self._recorder.record(line, record)
            if kind == "bye":
                return


# -- replay -------------------------------------------------------------------


def _truncated_replay(offset: int) -> Exception:
    return ReplayError(f"log truncated mid-line at byte {offset}")


def replay_session(log: bytes, control: ReferenceControl) -> bytes:
    """Re-run a recorded session against a fresh control.

    Indexes the log's emulation and scenario records first, decoding each
    line once and refusing a log that is truncated, breaks round order or
    has no run-end.  Then hands them to the control, up to its bye, and
    returns the command log it answered with (command and end-of-round
    lines) for byte comparison with ``extract_command_log`` of the
    original.
    """
    records: list[dict[str, Any]] = []
    last_round = 0
    complete = False
    for _, record in iter_records(log, _truncated_replay):
        if record["role"] in (ROLE_EMULATION, ROLE_SCENARIO):
            if record["kind"] == "event-batch":
                if record["round"] != last_round + 1:
                    raise ReplayError(f"round monotonicity violated at round {record['round']}")
                last_round = record["round"]
            if record["kind"] == "run-end":
                complete = True
            records.append(record)
    if records and not complete:
        raise ReplayError("log is truncated: no run-end record")
    sent: list[dict[str, Any]] = []
    client = ControlClient(sent.append, control)
    for record in records:
        if not client.handle(record):
            break
    return b"".join(
        encode_record(record) for record in sent if record["kind"] in ("command", "end-of-round")
    )
