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
Scenario-manager records (run metadata, directives, injection audits) ride
the same wire and are recorded in place.

Decoding is strict about the shape of a line: after the prefix comes exactly
one JSON object, then the newline.  Unlike ``json.loads``, no whitespace is
accepted before or after the object, so a trailing space or a carriage
return before the newline makes the line invalid.  Canonical lines never
contain either.

The round driver talks to its control through an endpoint, whether the
control runs in process or over a socket.  Each line crosses in three
parts: the line, the record it encodes, and the message the record's body
encodes.  That message is ``(events, notices)`` for an event batch, a
``ControlDirective`` for a directive, a ``ControlCommand`` for a command,
and None for every other kind.  An endpoint has three calls:
``send_line_record(line, record, message)`` sends all three,
``recv_line_record()`` returns the next ``(line, record, message)`` from
the control, and ``close()`` ends the session.  A record and a message
handed to ``send_line_record`` are the control's to read until the call
returns; the driver reads nothing of them afterwards.

A record's shape is checked by ``check_record`` where the record is
encoded, by ``encode_record``, and where it is decoded, by ``decode_line``,
so no line is written that a reader would refuse.  ``InProcEndpoint``
checks each record it is sent once more, as that record comes from outside
it.  Each line is encoded once, and decoded only by a reader that was not
given its record; a message is built from its record only by a reader that
was not given the message, and only by ``message_of``.  An event batch's
events go on the wire as the bodies the kernel built with them
(``EventBatch``), so no event is turned back into a dict to be sent.  In
process, ``InProcEndpoint`` calls the control directly: a sent record is
checked and handed to the control at once with the sender's own message
objects, whose constructors have already checked them.  The control's
replies are encoded, and so checked, once and queued with their records and
its own commands until the driver reads them, so an in-process session
decodes nothing and rebuilds no message.  A socket carries only the line:
its receiver decodes it once and builds its message once.  The round driver
gives the recorder each line with the record it sent or received, so the
recorder never decodes.  It records a sent line once the endpoint has
returned, and a received one once it has finished reading it, so the
recorder's observers get records the session is done with.  Every log
reader walks ``iter_records``, which decodes each line once, as it yields
it.  Replay indexes the whole log before the control sees a record, builds
each message as it hands the record over, and encodes only the command and
end-of-round records it returns.  The other readers drop each record once
they have taken what they need from it: ``extract_command_log`` keeps the
matching lines, ``extract_event_stream`` the events, and
``recompute_from_log`` the run metadata, dues, events and the control's
end-of-run counters.
"""

from __future__ import annotations

import json
import json.scanner
import socket
import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from .canon import canon_dumps, canon_str
from .control import ProductOrder, ReferenceControl
from .messages import ControlCommand, ControlDirective, EventBatch, MessageError, Notice, SimEvent

WIRE_PREFIX = b"IL1 "
WIRE_VERSION = "1"
RECORD_KEYS = frozenset({"v", "role", "round", "t", "kind", "body", "corr"})

ROLE_EMULATION = "emulation"
ROLE_CONTROL = "control"
ROLE_SCENARIO = "scenario-manager"


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


def message_of(record: dict[str, Any]) -> Any:
    """The message a record's body encodes, built from the body:
    ``(events, notices)`` for an event batch, a ``ControlDirective`` for a
    directive, a ``ControlCommand`` for a command, None for any other kind.

    The one place a session builds messages from records; an in-process
    peer hands over the sender's own objects instead.
    """
    kind, body = record["kind"], record["body"]
    if kind == "event-batch":
        return (
            [SimEvent.from_dict(d) for d in body["events"]],
            [Notice.from_dict(d) for d in body.get("notices", [])],
        )
    if kind == "directive":
        return ControlDirective.from_dict(body)
    if kind == "command":
        return ControlCommand.from_dict(body)
    return None


def extract_event_stream(log: bytes) -> list[SimEvent]:
    """The emulation's production events, in wire order."""
    events: list[SimEvent] = []
    for _, record in iter_records(log):
        if record["role"] == ROLE_EMULATION and record["kind"] == "event-batch":
            events.extend(SimEvent.from_dict(d) for d in record["body"]["events"])
    return events


# -- control client -------------------------------------------------------------


class ControlClient:
    """Answers the emulation's records on behalf of a ReferenceControl.

    ``handle`` takes one inbound record with its message.  A round
    (directives, then one event batch) is answered with command records and
    an end-of-round record, and run-end with the control's end-of-run taps
    and a bye.  Each reply record goes to ``send`` as it is made, with its
    message: the control's own command, or None.
    """

    def __init__(self, send: Callable[[dict[str, Any], Any], None], control: ReferenceControl):
        self._send = send
        self._control = control
        self._directives: list[ControlDirective] = []
        self._round = 0

    def handle(self, record: dict[str, Any], message: Any) -> bool:
        """Handle one inbound record and its message; False once the
        session is over."""
        kind = record["kind"]
        if kind == "hello":
            self._control.check_model_hash(record["body"]["model_hash"])
            body = {"model_hash": self._control.model.model_hash, "policy": "reference-holonic"}
            self._send(make_record(ROLE_CONTROL, 0, 0, "hello", body), None)
        elif kind == "run-meta":
            self._control.load_orders(
                ProductOrder.from_dict(d) for d in record["body"].get("orders", [])
            )
        elif kind == "injection":
            pass  # audit trail only
        elif kind == "directive":
            self._directives.append(message)
        elif kind == "event-batch":
            self._serve_round(record, message)
        elif kind == "run-end":
            round_no = record["round"]
            for i, (name, value) in enumerate(sorted(self._control.export_kpi().items())):
                body = {"flow": "FLOW7", "name": name, "value": value, "i": i}
                self._send(make_record(ROLE_CONTROL, round_no, record["t"], "tap", body), None)
            self._send(make_record(ROLE_CONTROL, round_no, record["t"], "bye", {}), None)
            return False
        else:
            raise ProtocolError(f"control cannot handle record kind {kind!r}")
        return True

    def _serve_round(self, record: dict[str, Any], message: Any) -> None:
        round_no, t = record["round"], record["t"]
        if round_no != self._round + 1:
            raise ProtocolError(
                f"round monotonicity violated: got round {round_no} after {self._round}"
            )
        self._round = round_no
        events, notices = message
        commands, idle = self._control.on_round(t, self._directives, events, notices)
        self._directives = []
        for cmd in commands:
            self._send(
                make_record(ROLE_CONTROL, round_no, t, "command", cmd.to_dict(), round_no), cmd
            )
        end = make_record(ROLE_CONTROL, round_no, t, "end-of-round", {"idle": idle}, round_no)
        self._send(end, None)


def serve_control(endpoint, control: ReferenceControl) -> None:
    """Serve ``control`` over ``endpoint`` until run-end or until the peer
    closes the wire, then close the endpoint; for a control on the far side
    of a socket, typically in its own thread."""
    client = ControlClient(
        lambda record, message: endpoint.send_line_record(encode_record(record), record, message),
        control,
    )
    try:
        while client.handle(*endpoint.recv_line_record()[1:]):
            pass
    except EndOfStream:
        pass
    finally:
        endpoint.close()


# -- endpoints ------------------------------------------------------------------


class InProcEndpoint:
    """The driver's endpoint to a control served in process, by direct call.

    ``send_line_record`` checks the record, which comes from outside the
    endpoint, and hands it to the control at once, with the driver's own
    message objects.  The control's replies are encoded, which checks them,
    once and queued with their records and the control's own commands.
    ``recv_line_record`` returns the next queued reply as it is, so nothing
    is decoded or checked twice and no message is rebuilt.
    A receive with no reply waiting breaks the lock step and raises
    ``ProtocolError``; once the control has said bye, or the endpoint is
    closed, a receive with none left raises ``EndOfStream`` and a send
    raises ``ProtocolError``.
    """

    def __init__(self, control: ReferenceControl):
        self._replies: deque[tuple[bytes, dict[str, Any], Any]] = deque()
        self._client = ControlClient(self._queue_reply, control)
        self._open = True

    def _queue_reply(self, record: dict[str, Any], message: Any) -> None:
        self._replies.append((encode_record(record), record, message))

    def send_line_record(self, line: bytes, record: dict[str, Any], message: Any) -> None:
        if not self._open:
            raise ProtocolError("the session has ended")
        self._open = self._client.handle(check_record(record), message)

    def recv_line_record(self) -> tuple[bytes, dict[str, Any], Any]:
        if not self._replies:
            if not self._open:
                raise EndOfStream
            raise ProtocolError("lock-step violation: no record is waiting")
        return self._replies.popleft()

    def close(self) -> None:
        self._open = False


class SocketEndpoint:
    """Line transport over a stream socket with a receive timeout.

    Only the line crosses: ``recv_line_record`` decodes each line it reads
    and builds its message with ``message_of``.
    """

    def __init__(self, sock: socket.socket, timeout: float | None = 5.0):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._buffer = bytearray()

    def send_line(self, line: bytes) -> None:
        self._sock.sendall(line)

    def send_line_record(self, line: bytes, record: dict[str, Any], message: Any) -> None:
        self.send_line(line)

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

    def recv_line_record(self) -> tuple[bytes, dict[str, Any], Any]:
        line = self.recv_line()
        record = decode_line(line)
        try:
            message = message_of(record)
        except (KeyError, TypeError, AttributeError, MessageError) as exc:
            raise ProtocolError(
                f"{record['role']} {record['kind']} body builds no message: {exc!r}"
            ) from exc
        return line, record, message

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

    Observers are read-only taps: each gets every record, in wire order, as
    its line is committed to the log.  Each line comes with its record, the
    one its sender encoded or its receiver got, so the recorder decodes
    nothing.  The round driver records a record only once the session is
    done with it, so an observer cannot affect the session.
    """

    def __init__(self):
        self._chunks: list[bytes] = []
        self._observers: list[Callable[[dict[str, Any]], None]] = []

    def attach(self, observer: Callable[[dict[str, Any]], None]) -> None:
        self._observers.append(observer)

    def record(self, line: bytes, record: dict[str, Any]) -> None:
        self._chunks.append(line)
        for obs in self._observers:
            obs(record)

    def log_bytes(self) -> bytes:
        return b"".join(self._chunks)


# -- emulation-side round driver -------------------------------------------------


class RoundDriver:
    """Emulation-side half of the round protocol.

    Owns the wire: sends hello, run metadata, per-round scenario records and
    event batches; collects the control's reply for each round.  Records
    both directions: each line it sends goes to the recorder with the
    record it was encoded from, once the endpoint has taken it, and each
    line it receives with the record the endpoint hands over, once the
    driver has read it.  Does not know about the kernel; the bench harness
    supplies batches and consumes commands.

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

    def _send(self, record: dict[str, Any], message: Any = None) -> None:
        line = encode_record(record)
        self._ep.send_line_record(line, record, message)
        self._recorder.record(line, record)

    def _recv(self) -> tuple[bytes, dict[str, Any], Any]:
        """The control's next line, record and message; the caller records
        the line once it has read the record."""
        try:
            return self._ep.recv_line_record()
        except EndOfStream:
            raise ProtocolError("the control hung up before its bye") from None

    def handshake(self) -> None:
        """Send hello and check the control's hello in reply."""
        self._send(make_record(ROLE_EMULATION, 0, 0, "hello", {"model_hash": self._model_hash}))
        line, record, _ = self._recv()
        if record["kind"] != "hello" or record["role"] != ROLE_CONTROL:
            raise ProtocolError("expected the control's hello")
        if record["body"].get("model_hash") != self._model_hash:
            raise ProtocolError("control answered with a different model hash")
        self._recorder.record(line, record)

    def send_run_meta(self, body: dict[str, Any]) -> None:
        self._send(make_record(ROLE_SCENARIO, 0, 0, "run-meta", body))

    def send_injection_audit(self, t: int, rule: str, injection: dict[str, Any]) -> None:
        self._send(
            make_record(
                ROLE_SCENARIO,
                self.round_no + 1,
                t,
                "injection",
                {"rule": rule, "injection": injection},
            )
        )

    def open_round(self, t: int, directives: Iterable[ControlDirective]) -> int:
        self.round_no += 1
        for d in directives:
            self._send(make_record(ROLE_SCENARIO, self.round_no, t, "directive", d.to_dict()), d)
        return self.round_no

    def play_round(
        self, t: int, batch: EventBatch, notices: Iterable[Notice]
    ) -> tuple[list[ControlCommand], bool]:
        """Send the round's event batch and read the control's reply, up to
        and including its end-of-round; return the commands and the idle
        flag.  The batch's bodies, which the kernel built with its events,
        are the record's events, so no event is converted here; notices are
        rare and go through ``to_dict``.  The control gets the batch's
        events and the notices in lists of its own, and the commands
        returned are the control's own objects."""
        events, notices = list(batch), list(notices)
        body = {"events": batch.bodies, "notices": [n.to_dict() for n in notices]}
        sent = time.perf_counter()
        self._send(make_record(ROLE_EMULATION, self.round_no, t, "event-batch", body),
                   (events, notices))
        commands: list[ControlCommand] = []
        while True:
            line, record, message = self._recv()
            if record["role"] != ROLE_CONTROL:
                raise ProtocolError(f"unexpected {record['role']} record in a control reply")
            kind = record["kind"]
            if kind not in ("command", "end-of-round"):
                raise ProtocolError(f"unexpected control record kind {kind!r}")
            if record["corr"] != self.round_no:
                raise ProtocolError(f"{kind} correlates to the wrong round")
            if kind == "command":
                commands.append(message)
            else:
                self.round_ms.append((time.perf_counter() - sent) * 1000.0)
                idle = bool(record["body"].get("idle"))
            self._recorder.record(line, record)
            if kind == "end-of-round":
                return commands, idle

    def end_run(self, t: int, reason: str) -> None:
        """Send run-end and read the control's final taps and its bye."""
        self.round_no += 1
        self._send(make_record(ROLE_EMULATION, self.round_no, t, "run-end", {"reason": reason}))
        while True:
            line, record, _ = self._recv()
            kind = record["kind"]
            if kind not in ("tap", "bye"):
                raise ProtocolError(f"unexpected record {kind!r} after run-end")
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
    has no run-end.  Then hands them to the control, each with the message
    ``message_of`` builds from it, up to its bye, and returns the command
    log it answered with (command and end-of-round lines) for byte
    comparison with ``extract_command_log`` of the original.
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
    client = ControlClient(lambda record, message: sent.append(record), control)
    for record in records:
        if not client.handle(record, message_of(record)):
            break
    return b"".join(
        encode_record(record) for record in sent if record["kind"] in ("command", "end-of-round")
    )
