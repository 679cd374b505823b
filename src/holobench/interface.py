"""Interface layer: wire codec, transports, session driving, replay.

Wire format ("IL1"): one record per line, the ASCII prefix "IL1 " followed
by a canonical JSON object and a newline, UTF-8 throughout.  Every record
has exactly the keys {"v", "role", "round", "t", "kind", "body", "corr"}.
A session log is the verbatim concatenation of wire lines in wire order,
which makes the log itself the unit of replay: feeding it back through the
replay transport re-creates the control side's inputs byte for byte.

The emulation endpoint owns the clock and drives rounds; the control
endpoint answers each event batch with its commands, then an end-of-round
record, which ends the reply.  The round driver times each round from
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

Each line is encoded once, and decoded only by a reader that was not given
its record.  A sender encodes a record once and hands the endpoint both the
line and the record.  The in-process pipe carries the two together, so an
in-process session decodes nothing: its receiver gets the sender's record,
checked by ``check_record`` exactly as ``decode_line`` checks a parsed one.
A socket carries only the line, and its receiver decodes it once.  The
round driver gives the recorder each line with the record it sent or
received, so the recorder never decodes.  Because those records are shared
with the peer, the recorder passes them on to its observers only once the
session has finished with them: when the driver receives the peer's next
record, or when the log is taken.  Replay decodes the log once, while
indexing it, and encodes only the command and end-of-round records it
returns.  The other log readers decode one line at a time and drop each
record once they have taken what they need from it: ``extract_command_log``
keeps the matching lines, ``extract_event_stream`` the events, and
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

from .canon import canon_dumps
from .control import ProductOrder, ReferenceControl
from .messages import ControlCommand, ControlDirective, Notice, SimEvent

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


def encode_record(record: dict[str, Any]) -> bytes:
    if record.keys() != RECORD_KEYS:
        raise DecodeError(f"record keys must be exactly {sorted(RECORD_KEYS)}")
    return WIRE_PREFIX + canon_dumps(record).encode("utf-8") + b"\n"


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


def iter_log(
    log: bytes, truncated: Callable[[int], Exception] = _no_newline
) -> Iterator[tuple[int, bytes]]:
    """Yield ``(byte offset, line)`` for each newline-terminated line of a log.

    A tail without a newline raises ``truncated(offset)`` once the complete
    lines before it have been yielded.
    """
    offset = 0
    while offset < len(log):
        end = log.find(b"\n", offset)
        if end == -1:
            raise truncated(offset)
        yield offset, log[offset : end + 1]
        offset = end + 1


def parse_log(log: bytes) -> list[dict[str, Any]]:
    """Decode a session log into records, enforcing the line discipline."""
    return [decode_line(line, offset) for offset, line in iter_log(log)]


def extract_command_log(log: bytes) -> bytes:
    """Control-role command and end-of-round lines, verbatim."""
    out = bytearray()
    for offset, line in iter_log(log):
        record = decode_line(line, offset)
        if record["role"] == ROLE_CONTROL and record["kind"] in ("command", "end-of-round"):
            out += line
    return bytes(out)


def extract_event_stream(log: bytes) -> list[SimEvent]:
    """The emulation's production events, in wire order."""
    events: list[SimEvent] = []
    for offset, line in iter_log(log):
        record = decode_line(line, offset)
        if record["role"] == ROLE_EMULATION and record["kind"] == "event-batch":
            events.extend(SimEvent.from_dict(d) for d in record["body"]["events"])
    return events


# -- transports ---------------------------------------------------------------


class EndOfStream(Exception):
    """The peer closed the wire."""


class LineEndpoint:
    """The endpoint contract.

    A transport implements ``send_line`` and ``recv_line``.
    ``send_line_record`` sends a line together with the record it encodes,
    and ``recv_line_record`` returns the next inbound line with its record;
    by default only the line crosses and the receiver decodes it.
    ``send_record`` encodes a record and sends both; ``recv_record`` returns
    the next inbound record alone.
    """

    def send_line(self, line: bytes) -> None:
        raise NotImplementedError

    def send_line_record(self, line: bytes, record: dict[str, Any]) -> None:
        self.send_line(line)

    def send_record(self, record: dict[str, Any]) -> None:
        self.send_line_record(encode_record(record), record)

    def recv_line(self) -> bytes:
        raise NotImplementedError

    def recv_line_record(self) -> tuple[bytes, dict[str, Any]]:
        line = self.recv_line()
        return line, decode_line(line)

    def recv_record(self) -> dict[str, Any]:
        return self.recv_line_record()[1]


class InProcEndpoint(LineEndpoint):
    """One side of an in-process, lock-step pipe.

    Each line crosses together with the record it was encoded from, so the
    receiver gets the sender's record and no line is decoded; the record
    still passes ``check_record``.  A line sent alone with ``send_line`` is
    decoded on receipt.
    """

    def __init__(self, inbox: deque, outbox: deque):
        self._inbox = inbox
        self._outbox = outbox
        self._closed = False

    @staticmethod
    def pair() -> tuple["InProcEndpoint", "InProcEndpoint"]:
        a_to_b: deque = deque()
        b_to_a: deque = deque()
        return InProcEndpoint(b_to_a, a_to_b), InProcEndpoint(a_to_b, b_to_a)

    def send_line(self, line: bytes) -> None:
        self.send_line_record(line, None)

    def send_line_record(self, line: bytes, record: dict[str, Any] | None) -> None:
        if self._closed:
            raise ProtocolError("endpoint is closed")
        self._outbox.append((line, record))

    def _pop(self) -> tuple[bytes, dict[str, Any] | None]:
        if not self._inbox:
            if self._closed or _CLOSE in self._outbox:
                raise EndOfStream
            raise ProtocolError("lock-step violation: no record is waiting")
        item = self._inbox.popleft()
        if item is _CLOSE:
            raise EndOfStream
        return item

    def recv_line(self) -> bytes:
        return self._pop()[0]

    def recv_line_record(self) -> tuple[bytes, dict[str, Any]]:
        line, record = self._pop()
        return line, decode_line(line) if record is None else check_record(record)

    def has_line(self) -> bool:
        return bool(self._inbox) and self._inbox[0] is not _CLOSE

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._outbox.append(_CLOSE)


_CLOSE = object()


class SocketEndpoint(LineEndpoint):
    """Line transport over a stream socket with a receive timeout."""

    def __init__(self, sock: socket.socket, timeout: float | None = 5.0):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._buffer = bytearray()

    def send_line(self, line: bytes) -> None:
        self._sock.sendall(line)

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

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass


# -- recording ----------------------------------------------------------------


class RunRecorder:
    """Accumulates the session log and fans records out to observers.

    Observers are read-only taps: they see each record, in wire order, only
    after its line has been committed to the log, so they cannot affect the
    session.  Each line comes with its record, the one its sender encoded
    or its receiver got, so the recorder decodes nothing.  Those records
    are shared with the session, so they are held back until the session is
    done with them: ``release`` passes every held record to the observers,
    and ``log_bytes`` releases before it returns the log.  Take the log
    before reading anything the observers computed.
    """

    def __init__(self):
        self._chunks: list[bytes] = []
        self._observers: list[Callable[[dict[str, Any]], None]] = []
        self._held: list[dict[str, Any]] = []

    def attach(self, observer: Callable[[dict[str, Any]], None]) -> None:
        self._observers.append(observer)

    def record(self, line: bytes, record: dict[str, Any]) -> None:
        self._chunks.append(line)
        if self._observers:
            self._held.append(record)

    def release(self) -> None:
        """Pass every held record to the observers, in wire order."""
        held, self._held = self._held, []
        for record in held:
            for obs in self._observers:
                obs(record)

    def log_bytes(self) -> bytes:
        self.release()
        return b"".join(self._chunks)


# -- control client -------------------------------------------------------------


class ControlClient:
    """Serves a ReferenceControl over a transport endpoint.

    Reads rounds (directives, then one event batch) and answers each with
    command records and an end-of-round record.
    """

    def __init__(self, endpoint, control: ReferenceControl):
        self._ep = endpoint
        self._control = control
        self._directives: list[ControlDirective] = []
        self._round = 0

    def _send(self, record: dict[str, Any]) -> None:
        self._ep.send_record(record)

    def serve_one(self) -> bool:
        """Handle the next inbound record; False when the session is over."""
        try:
            record = self._ep.recv_record()
        except EndOfStream:
            return False
        kind = record["kind"]
        if kind == "hello":
            self._control.check_model_hash(record["body"]["model_hash"])
            self._send(
                make_record(
                    ROLE_CONTROL,
                    0,
                    0,
                    "hello",
                    {"model_hash": self._control.model.model_hash, "policy": "reference-holonic"},
                )
            )
        elif kind == "run-meta":
            self._control.load_orders(
                ProductOrder.from_dict(d) for d in record["body"].get("orders", [])
            )
        elif kind == "injection":
            pass  # audit trail only
        elif kind == "directive":
            self._directives.append(ControlDirective.from_dict(record["body"]))
        elif kind == "event-batch":
            self._serve_round(record)
        elif kind == "run-end":
            round_no = record["round"]
            for i, (name, value) in enumerate(sorted(self._control.export_kpi().items())):
                self._send(
                    make_record(
                        ROLE_CONTROL,
                        round_no,
                        record["t"],
                        "tap",
                        {"flow": "FLOW7", "name": name, "value": value, "i": i},
                    )
                )
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
        events = [SimEvent.from_dict(d) for d in record["body"]["events"]]
        notices = [Notice.from_dict(d) for d in record["body"].get("notices", [])]
        commands, idle = self._control.on_round(t, self._directives, events, notices)
        self._directives = []
        for cmd in commands:
            self._send(make_record(ROLE_CONTROL, round_no, t, "command", cmd.to_dict(), round_no))
        self._send(make_record(ROLE_CONTROL, round_no, t, "end-of-round", {"idle": idle}, round_no))

    def serve_forever(self) -> None:
        """Serve until the session ends; for threaded/socket use."""
        while self.serve_one():
            pass


# -- emulation-side round driver -------------------------------------------------


class RoundDriver:
    """Emulation-side half of the round protocol.

    Owns the wire: sends hello, run metadata, per-round scenario records and
    event batches; collects the control's reply for each round.  Records
    both directions: each line it sends goes to the recorder with the
    record it was encoded from, and each line it receives with the record
    the endpoint hands over.  Does not know about the kernel; the bench
    harness supplies batches and consumes commands.

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
        self._batch_sent = 0.0

    def _send(self, record: dict[str, Any]) -> None:
        line = encode_record(record)
        self._recorder.record(line, record)
        self._ep.send_line_record(line, record)

    def _recv(self) -> dict[str, Any]:
        line, record = self._ep.recv_line_record()
        # The peer has answered, so it is done with every record sent before
        # this one, and this driver is done with the record it received last.
        self._recorder.release()
        self._recorder.record(line, record)
        return record

    def handshake(self) -> None:
        self._send(make_record(ROLE_EMULATION, 0, 0, "hello", {"model_hash": self._model_hash}))

    def finish_handshake(self) -> None:
        record = self._recv()
        if record["kind"] != "hello" or record["role"] != ROLE_CONTROL:
            raise ProtocolError("expected the control's hello")
        if record["body"].get("model_hash") != self._model_hash:
            raise ProtocolError("control answered with a different model hash")

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
            self._send(make_record(ROLE_SCENARIO, self.round_no, t, "directive", d.to_dict()))
        return self.round_no

    def send_batch(self, t: int, events: Iterable[SimEvent], notices: Iterable[Notice]) -> None:
        body = {
            "events": [e.to_dict() for e in events],
            "notices": [n.to_dict() for n in notices],
        }
        self._send(make_record(ROLE_EMULATION, self.round_no, t, "event-batch", body))
        self._batch_sent = time.perf_counter()

    def collect_reply(self) -> tuple[list[ControlCommand], bool]:
        """Read the control's commands for the current round, up to and
        including its end-of-round; return them with the idle flag."""
        commands: list[ControlCommand] = []
        while True:
            record = self._recv()
            if record["role"] != ROLE_CONTROL:
                raise ProtocolError(f"unexpected {record['role']} record in a control reply")
            kind = record["kind"]
            if kind not in ("command", "end-of-round"):
                raise ProtocolError(f"unexpected control record kind {kind!r}")
            if record["corr"] != self.round_no:
                raise ProtocolError(f"{kind} correlates to the wrong round")
            if kind == "end-of-round":
                self.round_ms.append((time.perf_counter() - self._batch_sent) * 1000.0)
                return commands, bool(record["body"].get("idle"))
            commands.append(ControlCommand.from_dict(record["body"]))

    def send_run_end(self, t: int, reason: str) -> None:
        self.round_no += 1
        self._send(
            make_record(
                ROLE_EMULATION, self.round_no, t, "run-end", {"reason": reason}
            )
        )

    def collect_closing(self) -> None:
        """Read the control's final taps and bye."""
        while True:
            try:
                record = self._recv()
            except EndOfStream:
                return
            if record["kind"] == "bye":
                return
            if record["kind"] != "tap":
                raise ProtocolError(f"unexpected record {record['kind']!r} after run-end")

    def close(self) -> None:
        self._ep.close()


# -- replay -------------------------------------------------------------------


def _truncated_replay(offset: int) -> Exception:
    return ReplayError(f"log truncated mid-line at byte {offset}")


class ReplaySource:
    """Serves the emulation/scenario side of a recorded session log.

    A ControlClient can be pointed at a recorded log exactly as at a live
    emulation.  Control-role lines in the log are skipped on recv (the new
    control produces its own), and the records the control sends are
    collected in ``sent`` instead of transmitted; nothing is encoded.  Each
    log line is decoded once, while the log is indexed; ``recv_record`` hands
    out that record.
    """

    def __init__(self, log: bytes):
        self._records: list[dict[str, Any]] = []
        self.sent: list[dict[str, Any]] = []
        last_round = 0
        complete = False
        for offset, line in iter_log(log, _truncated_replay):
            record = decode_line(line, offset)
            if record["role"] in (ROLE_EMULATION, ROLE_SCENARIO):
                if record["kind"] == "event-batch":
                    if record["round"] != last_round + 1:
                        raise ReplayError(
                            f"round monotonicity violated at round {record['round']}"
                        )
                    last_round = record["round"]
                if record["kind"] == "run-end":
                    complete = True
                self._records.append(record)
        if self._records and not complete:
            raise ReplayError("log is truncated: no run-end record")
        self._cursor = 0

    def recv_record(self) -> dict[str, Any]:
        if self._cursor >= len(self._records):
            raise EndOfStream
        record = self._records[self._cursor]
        self._cursor += 1
        return record

    def send_record(self, record: dict[str, Any]) -> None:
        self.sent.append(record)

    def has_line(self) -> bool:
        return self._cursor < len(self._records)

    def close(self) -> None:
        pass


def replay_session(log: bytes, control: ReferenceControl) -> bytes:
    """Re-run a recorded session against a fresh control.

    Returns the replayed command log (command and end-of-round lines) for
    byte comparison with ``extract_command_log`` of the original.
    """
    source = ReplaySource(log)
    client = ControlClient(source, control)
    client.serve_forever()
    return b"".join(
        encode_record(record)
        for record in source.sent
        if record["kind"] in ("command", "end-of-round")
    )
