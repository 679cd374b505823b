"""Wire layer: codec, transports, session recording and replay."""

import copy
import json
import re
import socket
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holobench import interface
from holobench.canon import canon_bytes, canon_dumps
from holobench.control import (
    ControlProtocolError,
    OrderBookError,
    ProductOrder,
    ReferenceControl,
)
from holobench.harness import run_single
from holobench.interface import (
    WIRE_PREFIX,
    DecodeError,
    EndOfStream,
    InProcEndpoint,
    ProtocolError,
    ControlClient,
    ReplayError,
    RoundDriver,
    RunRecorder,
    SocketEndpoint,
    decode_line,
    encode_record,
    extract_command_log,
    extract_event_stream,
    iter_records,
    make_record,
    replay_session,
    serve_control,
)
from holobench.kpi import KpiEngine, recompute_from_log, reports_match
from holobench.messages import (
    ControlCommand,
    ControlDirective,
    Injection,
    MessageError,
    Notice,
    SimEvent,
)
from holobench.model import load_model_doc
from holobench.scenario import load_scenario_doc
from strategies import MESSAGES, ORACLE_SHOP, oracle_sessions


def records_of(log):
    """Every record of a session log, read with ``iter_records``."""
    return [record for _, record in iter_records(log)]


# Every reader that decodes a whole session log.
LOG_READERS = [records_of, extract_command_log, extract_event_stream, recompute_from_log]

MINICELL_SCENARIOS = ["null", "ps9", "reject_rework", "rush_order", "supply_shortage"]
WIRE_MESSAGES = (SimEvent, ControlCommand, ControlDirective, Injection, Notice)


def rec(kind="event-batch", role="emulation", round_no=1, t=0, body=None, corr=None):
    return make_record(role, round_no, t, kind, body if body is not None else {}, corr)


def socket_session(model, orders, scenario, seed, control=None):
    """``run_single`` against a control (by default a ``ReferenceControl``)
    served over a socket pair from a thread."""
    left, right = socket.socketpair()
    worker = threading.Thread(
        target=serve_control, args=(SocketEndpoint(right), control or ReferenceControl(model))
    )
    worker.start()
    try:
        result = run_single(model, orders, scenario, seed, endpoint=SocketEndpoint(left))
    finally:
        worker.join(timeout=10)
        left.close()
        right.close()
    assert not worker.is_alive()
    return result


wire_records = st.builds(
    make_record,
    role=st.sampled_from(["emulation", "control", "scenario-manager"]),
    round_no=st.integers(min_value=0, max_value=10**6),
    t=st.integers(min_value=0, max_value=10**9),
    kind=st.sampled_from(["hello", "event-batch", "command", "tap", "bye"]),
    body=st.dictionaries(
        st.text(min_size=1, max_size=6),
        st.one_of(
            st.integers(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=12),
            st.none(),
            st.lists(st.integers(), max_size=3),
        ),
        max_size=5,
    ),
    corr=st.none() | st.integers(min_value=0, max_value=10**6),
)


# Documents the codec must write exactly as json.dumps does: non-ASCII and
# control-character text, integers past 64 bits, floats with NaN and the
# infinities, null and booleans, nested in objects and arrays.
json_texts = st.text() | st.text(
    alphabet=st.characters(max_codepoint=0x1F) | st.sampled_from("\"\\\u2028é€😀")
)
big_ints = st.integers(min_value=-(10**40), max_value=10**40)
json_scalars = (
    json_texts
    | big_ints
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.0, -0.0])
    | st.none()
    | st.booleans()
)
json_docs = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

# Records ``check_record`` accepts, with every envelope field drawn wide:
# role and kind from text with quotes, backslashes, control characters and
# non-ASCII, round, t and corr from negative and very large integers, and
# bodies of nested JSON.  NaN is left out of bodies so that a decoded
# record can equal its source.
checked_records = st.builds(
    make_record,
    role=json_texts,
    round_no=big_ints,
    t=big_ints,
    kind=json_texts,
    body=st.dictionaries(
        st.text(max_size=6),
        st.recursive(
            json_texts | big_ints | st.floats(allow_nan=False) | st.none() | st.booleans(),
            lambda children: st.lists(children, max_size=4)
            | st.dictionaries(st.text(max_size=6), children, max_size=4),
            max_leaves=12,
        ),
        max_size=4,
    ),
    corr=st.none() | big_ints,
)

# (kind, body) pairs whose body builds a message: an event batch of events
# and notices, a command or a directive.
message_bodies = st.one_of(
    st.builds(
        lambda events, notices: ("event-batch", {"events": [e.to_dict() for e in events],
                                                 "notices": [n.to_dict() for n in notices]}),
        st.lists(MESSAGES[SimEvent], max_size=3),
        st.lists(MESSAGES[Notice], max_size=2),
    ),
    MESSAGES[ControlCommand].map(lambda cmd: ("command", cmd.to_dict())),
    MESSAGES[ControlDirective].map(lambda d: ("directive", d.to_dict())),
)

# Event-batch bodies that decode but hold no valid events.
BAD_BATCH_BODIES = [
    {},  # no events list
    {"events": {"time": 0}},
    {"events": [{"time": 0, "kind": "op-started"}]},  # an event without seq
    {"events": [{"time": "0", "seq": 1, "kind": "op-started"}]},
    {"events": [7]},
    {"events": [{"time": 0, "seq": 1, "kind": "order-released", "node": "IN"}]},  # no order
    {"events": [{"time": 0, "seq": 1, "kind": "machine-up", "machine": 5}]},
]

# Records the KPI oracle refuses, as the live session would: a run-meta
# whose orders do not load or whose run id, scenario, seed or machines have
# the wrong type, a FLOW7 tap without a string name and an integer value,
# and an insert-order without an order that loads.
_ORDER = {"id": "O1", "routing": ["A"], "release": 0, "due": 10}
BAD_KPI_RECORDS = [
    *(rec(kind="run-meta", role="scenario-manager", round_no=0, body={"orders": orders})
      for orders in ([5], [{"id": "O1"}], [{"due": 10}], [{"id": 1, "due": 10}],
                     [{"id": "O1", "due": "10"}], [{"id": "O1", "due": True}], 5,
                     [{"id": "O1", "release": 0, "due": 10}])),  # no routing
    *(rec(kind="run-meta", role="scenario-manager", round_no=0, body={"orders": [_ORDER], **body})
      for body in ({"machines": "M1"}, {"machines": ["M1", 2]}, {"seed": "x"}, {"seed": True},
                   {"run_id": 5}, {"scenario": None})),
    *(rec(kind="tap", role="control", body={"flow": "FLOW7", **body})
      for body in ({"name": "commands_issued", "i": 0}, {"value": 3, "i": 0},
                   {"name": "commands_issued", "value": "3", "i": 0},
                   {"name": "commands_issued", "value": False, "i": 0})),
    *(rec(kind="directive", role="scenario-manager", body={"kind": "insert-order", **body})
      for body in ({"order": 5}, {"order": ["id", "due"]}, {},
                   {"order": {k: v for k, v in _ORDER.items() if k != "routing"}})),
]

# Control taps the round driver and the KPI oracle refuse, each with the
# words of its refusal: a valid tap with one field taken out or given a
# value of the wrong type.
_TAP = {"flow": "FLOW7", "name": "commands_issued", "value": 1, "i": 0}
BAD_TAP_BODIES = [
    *(({k: v for k, v in _TAP.items() if k != gone}, f"tap body lacks {gone!r}") for gone in _TAP),
    ({**_TAP, "flow": 7}, "tap flow must be a string"),
    ({**_TAP, "name": None}, "tap name must not be null"),
    ({**_TAP, "value": "1"}, "tap value must be an integer"),
    ({**_TAP, "value": True}, "tap value must be an integer"),
    ({**_TAP, "i": 0.0}, "tap i must be an integer"),
]

_DELETED = object()  # marks a key taken out of the record

# (field, value, what the refusal names) for records the codec must refuse:
# JSON true and false are not integers, though Python's bool is one.
ENVELOPE_REFUSALS = [
    *((field, value, "round and t") for field in ("round", "t")
      for value in (True, False, "7", 7.0, None)),
    *(("corr", value, "corr") for value in (True, False, "7", 7.0)),
    ("role", 7, "role and kind"),
    ("role", None, "role and kind"),
    ("kind", ["command"], "role and kind"),
    ("body", [], "body"),
    ("body", "x", "body"),
    ("body", None, "body"),
    ("v", "2", "version"),
    ("v", 1, "version"),
    ("extra", 1, "keys"),
    ("corr", _DELETED, "keys"),
]


class TestCodec:
    def test_round_trip(self):
        r = rec(body={"events": [], "notices": []})
        line = encode_record(r)
        assert line.startswith(b"IL1 ") and line.endswith(b"\n")
        assert decode_line(line) == r

    def test_encode_rejects_wrong_keys(self):
        r = rec()
        r["extra"] = 1
        with pytest.raises(DecodeError, match="keys"):
            encode_record(r)
        del r["extra"], r["corr"]
        with pytest.raises(DecodeError, match="keys"):
            encode_record(r)

    @pytest.mark.parametrize(
        "line, fragment",
        [
            (b'{"v":"1"}\n', "prefix"),
            (b"IL1 not json\n", "JSON"),
            (b"IL1 [1,2]\n", "object"),
            (b'IL1 {"v":"1"}\n', "keys"),
            (encode_record(rec()).replace(b'"v":"1"', b'"v":"9"'), "version"),
            (encode_record(rec()).replace(b'"round":1', b'"round":"1"'), "integers"),
            (encode_record(rec()).replace(b'"body":{}', b'"body":[]'), "body"),
            (encode_record(rec()).replace(b'"corr":null', b'"corr":"x"'), "corr"),
            # JSON booleans are not integers, though Python's bool is one.
            (encode_record(rec()).replace(b'"round":1', b'"round":true'), "integers"),
            (encode_record(rec()).replace(b'"t":0', b'"t":false'), "integers"),
            (encode_record(rec()).replace(b'"corr":null', b'"corr":false'), "corr"),
            # Stricter than json.loads: nothing but the object between the
            # prefix and the newline.
            (encode_record(rec()).replace(b"IL1 ", b"IL1  "), "JSON"),
            (encode_record(rec()).replace(b"}\n", b"} \n"), "JSON"),
            (encode_record(rec()).replace(b"}\n", b"}\r\n"), "JSON"),
            (encode_record(rec()).replace(b"}\n", b"}{}\n"), "JSON"),
        ],
    )
    def test_decode_errors(self, line, fragment):
        with pytest.raises(DecodeError, match=fragment):
            decode_line(line)

    @given(record=checked_records)
    def test_encode_writes_the_canonical_record(self, record):
        """The spliced envelope is the canonical text of the whole record,
        and decodes back to it."""
        line = encode_record(record)
        assert line == WIRE_PREFIX + canon_bytes(record) + b"\n"
        assert decode_line(line) == record

    @pytest.mark.parametrize("field, value, fragment", ENVELOPE_REFUSALS)
    @settings(max_examples=10)
    @given(record=checked_records)
    def test_encode_refuses_what_decode_refuses(self, record, field, value, fragment):
        """No line is written that ``decode_line`` would refuse: encoding
        fails with the error decoding the canonical text would raise."""
        if value is _DELETED:
            del record[field]
        else:
            record[field] = value
        with pytest.raises(DecodeError, match=fragment) as refused:
            encode_record(record)
        with pytest.raises(DecodeError) as undecodable:
            decode_line(WIRE_PREFIX + canon_bytes(record) + b"\n")
        assert str(refused.value) == str(undecodable.value)

    @given(record=wire_records)
    def test_round_trip_property(self, record):
        assert decode_line(encode_record(record)) == json.loads(json.dumps(record))

    @given(doc=json_docs)
    def test_canonical_text_is_what_json_dumps_writes(self, doc):
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
        assert canon_dumps(doc) == expected
        line = encode_record(rec(body={"doc": doc}))
        # repr, because NaN is unequal to itself; it also tells 1 from 1.0
        # and True from 1, and both sides keep the payload's key order.
        assert repr(decode_line(line)) == repr(json.loads(line[len(b"IL1 ") :]))

    @pytest.mark.parametrize("reader, bad", [
        *((reader, b"IL1 broken\n") for reader in LOG_READERS),
        # A well-formed line whose event body is bad, for the readers of events.
        *((reader, encode_record(rec(body=body)))
          for reader in (extract_event_stream, recompute_from_log) for body in BAD_BATCH_BODIES),
        *((recompute_from_log, encode_record(record)) for record in BAD_KPI_RECORDS),
    ])
    def test_readers_report_the_byte_offset(self, reader, bad):
        good = encode_record(rec(body={"events": []}))
        log = good + bad
        with pytest.raises(DecodeError) as e:
            reader(log)
        assert e.value.offset == len(good)

    def test_iter_records_yields_lines_and_reports_the_truncated_tail(self):
        a, b = encode_record(rec()), encode_record(rec(kind="bye"))
        assert list(iter_records(a + b)) == [(a, rec()), (b, rec(kind="bye"))]
        assert list(iter_records(b"")) == []
        lines = iter_records(a + b[:-1], lambda offset: ReplayError(f"tail at {offset}"))
        assert next(lines) == (a, rec())
        with pytest.raises(ReplayError, match=f"tail at {len(a)}"):
            next(lines)

    @given(records=st.lists(wire_records, min_size=1, max_size=6), cut=st.integers(min_value=0))
    def test_iter_records_gives_back_each_line_and_record(self, records, cut):
        lines = [encode_record(r) for r in records]
        log = b"".join(lines)
        expected = [(line, json.loads(json.dumps(r))) for line, r in zip(lines, records)]
        assert list(iter_records(log)) == expected
        # Cut the log inside its last line, leaving 1 to len - 1 of its bytes.
        last = len(log) - len(lines[-1])
        torn = log[: last + 1 + cut % (len(lines[-1]) - 1)]
        got = []
        with pytest.raises(DecodeError, match="log ends without a newline") as e:
            got.extend(iter_records(torn))
        assert e.value.offset == last
        assert got == expected[:-1]

    @pytest.mark.parametrize("reader", LOG_READERS)
    def test_readers_require_a_trailing_newline(self, reader):
        good = encode_record(rec(body={"events": []}))
        with pytest.raises(DecodeError, match="log ends without a newline") as e:
            reader(good + good[:-1])
        assert e.value.offset == len(good)

    def test_command_log_extraction_is_verbatim(self):
        lines = [
            encode_record(rec(kind="event-batch", body={"events": []})),
            encode_record(rec(kind="command", role="control", corr=1)),
            encode_record(rec(kind="tap", role="control", body={"flow": "FLOW2"})),
            encode_record(rec(kind="end-of-round", role="control", corr=1)),
        ]
        log = b"".join(lines)
        assert extract_command_log(log) == lines[1] + lines[3]


class TestInProc:
    """The driver's endpoint to an in-process control: each send is handled
    at once, and each receive pops one queued reply."""

    @staticmethod
    def hello(model):
        return rec(kind="hello", body={"model_hash": model.model_hash})

    def test_lock_step(self, minicell_model):
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv()
        hello = self.hello(minicell_model)
        assert ep.send(hello) == encode_record(hello)
        line, record = ep.recv()
        assert record["kind"] == "hello" and record["role"] == "control"
        assert line == encode_record(record)
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv()

    def test_close_signals_end_of_stream(self, minicell_model):
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        ep.close()
        with pytest.raises(EndOfStream):
            ep.recv()
        with pytest.raises(ProtocolError, match="ended"):
            ep.send(self.hello(minicell_model))

    def test_session_ends_at_the_controls_bye(self, minicell_model):
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        run_end = rec(kind="run-end", round_no=1, body={"reason": "completed"})
        ep.send(run_end)
        kinds = []
        with pytest.raises(EndOfStream):
            while True:
                kinds.append(ep.recv()[1]["kind"])
        assert kinds[-1] == "bye" and set(kinds[:-1]) == {"tap"}
        with pytest.raises(ProtocolError, match="ended"):
            ep.send(run_end)


class TestSocket:
    def test_lines_cross_a_real_socket(self):
        left, right = socket.socketpair()
        with left, right:
            a, b = SocketEndpoint(left), SocketEndpoint(right)
            line = encode_record(rec())
            assert a.send(rec()) == line
            assert a.send(rec()) == line
            assert b.recv_line() == line
            assert b.recv_line() == line
            a.close()
            with pytest.raises(EndOfStream):
                b.recv_line()
            b.close()

    def test_recv_timeout(self):
        left, right = socket.socketpair()
        with left, right:
            b = SocketEndpoint(right, timeout=0.05)
            with pytest.raises(TimeoutError):
                b.recv_line()

    def test_mid_line_close_is_a_decode_error(self):
        left, right = socket.socketpair()
        with right:
            b = SocketEndpoint(right, timeout=1.0)
            left.sendall(b"IL1 {")  # no newline, then gone
            left.close()
            with pytest.raises(DecodeError, match="mid-line"):
                b.recv_line()

    @pytest.mark.parametrize(
        "record, cause",
        [
            (rec(body={}), KeyError),
            (rec(body={"events": [{"time": 0, "seq": True, "kind": "op-started"}]}),
             MessageError),
            (rec(kind="command", role="control", body={"kind": "fly"}, corr=7), MessageError),
            # end-of-round is a record kind, never a command body
            (rec(kind="command", role="control", body={"kind": "end-of-round"}, corr=7),
             MessageError),
            (rec(body={"events": [{"time": 0, "seq": 1, "kind": "order-released", "node": "IN"}]}),
             MessageError),
            (rec(body={"events": [{"time": 0, "seq": 1, "kind": "machine-up", "machine": 5}]}),
             MessageError),
        ],
        ids=["event-batch-without-events", "event-with-a-boolean-seq", "unknown-command-kind",
             "end-of-round-command", "event-without-its-subject",
             "event-with-a-number-for-its-subject"],
    )
    def test_body_that_builds_no_message_is_a_protocol_error(
        self, minicell_model, record, cause
    ):
        """The endpoint only decodes; the body is checked where it is read,
        by the control's client for an event batch and by the round driver
        for a command, and a bad one is named as a protocol fault of its
        record kind."""
        left, right = socket.socketpair()
        with left, right:
            left.sendall(encode_record(record))
            endpoint = SocketEndpoint(right, timeout=1.0)
            line, received = endpoint.recv()
            assert line == encode_record(record) and received == record
            fault = f"{record['role']} {record['kind']} body builds no message"
            if record["kind"] == "event-batch":
                client = ControlClient(lambda reply: None, ReferenceControl(minicell_model))
                with pytest.raises(ProtocolError, match=fault) as info:
                    client.handle(received)
            else:
                driver = RoundDriver(endpoint, "0" * 64, RunRecorder())
                driver.round_no = record["corr"]
                left.sendall(encode_record(record))  # the reply to the driver's batch
                with pytest.raises(ProtocolError, match=fault) as info:
                    driver.play_round(0, [], [])
            assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("idle, ok", [
        (True, True), (False, True), ("false", False), (1, False), (0, False), (None, False),
    ])
    def test_end_of_round_idle_must_be_a_json_boolean(self, idle, ok):
        """A socket control's ``"idle": "false"`` or ``1`` would otherwise
        read as idle and end the run ``completed``."""
        left, right = socket.socketpair()
        with left, right:
            driver = RoundDriver(SocketEndpoint(left, timeout=1.0), "0" * 64, RunRecorder())
            driver.round_no = 1
            body = {} if idle is None else {"idle": idle}
            right.sendall(encode_record(rec(kind="end-of-round", role="control", body=body,
                                            corr=1)))
            if ok:
                assert driver.play_round(0, [], []) == ([], idle)
            else:
                with pytest.raises(ProtocolError, match="idle must be true or false"):
                    driver.play_round(0, [], [])

    @given(record=checked_records, kind_body=st.none() | message_bodies)
    def test_send_writes_the_encoded_line_and_recv_gives_it_back(self, record, kind_body):
        """``send`` returns and writes exactly ``encode_record``'s line, and
        the peer reads back the line and the record, whatever its body."""
        if kind_body is not None:
            record["kind"], record["body"] = kind_body
        left, right = socket.socketpair()
        with left, right:
            a, b = SocketEndpoint(left), SocketEndpoint(right, timeout=1.0)
            line = a.send(record)
            assert line == encode_record(record)
            assert b.recv() == (line, record)
            a.close()
            with pytest.raises(EndOfStream):
                b.recv_line()

    @given(record=checked_records, refusal=st.sampled_from(ENVELOPE_REFUSALS))
    def test_send_refuses_what_decode_refuses_and_writes_nothing(self, record, refusal):
        field, value, fragment = refusal
        if value is _DELETED:
            del record[field]
        else:
            record[field] = value
        left, right = socket.socketpair()
        with left, right:
            a, b = SocketEndpoint(left), SocketEndpoint(right, timeout=1.0)
            with pytest.raises(DecodeError, match=fragment):
                a.send(record)
            a.close()
            with pytest.raises(EndOfStream):
                b.recv_line()

    def test_readme_python_examples_run_and_close_both_sockets(self, monkeypatch):
        """The README's Python blocks, run in order from the repository
        root, close nothing by hand: the driver closes its endpoint at run
        end, and ``serve_control`` closes its own when it returns."""
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```python\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            re.MULTILINE | re.DOTALL)
        assert len(blocks) == 2
        monkeypatch.chdir(readme.parent)
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, str(readme), "exec"), namespace)
        assert namespace["result"].status == "completed"
        assert not namespace["server"].is_alive()
        assert namespace["left"].fileno() == namespace["right"].fileno() == -1

    def test_failed_session_closes_the_driver_socket(
        self, minicell_model, minicell_orders, ps9_scenario
    ):
        """A control that reads the hello and hangs up fails the session,
        and ``run_single`` still closes its endpoint."""
        left, right = socket.socketpair()

        def hang_up(endpoint):
            endpoint.recv_line()
            endpoint.close()

        worker = threading.Thread(target=hang_up, args=(SocketEndpoint(right),))
        worker.start()
        with pytest.raises(ProtocolError, match="the control hung up before its bye"):
            run_single(
                minicell_model, minicell_orders, ps9_scenario, seed=1, endpoint=SocketEndpoint(left)
            )
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert left.fileno() == right.fileno() == -1

    def test_control_whose_peer_hung_up_mid_reply_stops_serving(self, minicell_model):
        """A driver that has refused a reply closes its end while the
        control may still be answering; the control's next send then finds
        the wire closed, and ``serve_control`` ends as at end of stream."""
        left, right = socket.socketpair()
        left.sendall(encode_record(rec(kind="hello", body={
            "model_hash": minicell_model.model_hash})))
        left.close()
        serve_control(SocketEndpoint(right, timeout=1.0), ReferenceControl(minicell_model))
        assert right.fileno() == -1

    @pytest.mark.parametrize(
        "name, seed",
        [("null", 1), ("ps9", 2), ("reject_rework", 3), ("rush_order", 1),
         ("supply_shortage", 3)],
    )
    def test_session_over_sockets_writes_the_in_process_bytes(
        self, minicell_model, minicell_orders, scenario_by_name, name, seed
    ):
        """A control served over a socket decodes every line it reads, where
        in process it reads the sender's own records; either way the session
        is the same, byte for byte, with directives, injections and rejected
        parts."""
        scenario = scenario_by_name(name)
        remote = socket_session(minicell_model, minicell_orders, scenario, seed)
        local = run_single(minicell_model, minicell_orders, scenario, seed)
        assert remote.status == local.status == "completed"
        assert remote.log == local.log
        assert remote.report == local.report

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_generated_sessions_over_sockets_write_the_in_process_bytes(self, session):
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
        remote = socket_session(model, book, scenario, seed)
        local = run_single(model, book, scenario, seed)
        assert remote.status == local.status
        assert remote.log == local.log
        assert remote.report == local.report


class TestRecorder:
    def test_log_is_verbatim_concatenation_and_observers_fire(self):
        recorder = RunRecorder()
        seen = []
        recorder.attach(seen.append)
        r1, r2 = rec(kind="hello", body={"model_hash": "x"}), rec(kind="bye", role="control")
        l1, l2 = encode_record(r1), encode_record(r2)
        recorder.record(l1, r1)
        assert seen == [r1] and seen[0] is r1  # at once, and never decoded
        recorder.record(l2, r2)
        assert recorder.log_bytes() == l1 + l2
        assert recorder.log_bytes() == l1 + l2
        assert seen == [r1, r2]  # taking the log delivers nothing again

    def test_observers_see_every_wire_record_once_in_wire_order(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch
    ):
        seen = []
        seen_at_finalize = []
        observe, finalize = KpiEngine.observe_record, KpiEngine.finalize

        def tap(engine, record):
            seen.append(copy.deepcopy(record))  # a tuple stays a tuple
            observe(engine, record)

        def finalize_after_all(engine):
            seen_at_finalize.append(len(seen))
            return finalize(engine)

        monkeypatch.setattr(KpiEngine, "observe_record", tap)
        monkeypatch.setattr(KpiEngine, "finalize", finalize_after_all)
        result = run_single(
            minicell_model, minicell_orders, scenario_by_name("supply_shortage"), seed=3
        )
        assert result.status == "completed"
        records = records_of(result.log)
        assert [r["kind"] for r in seen] == [r["kind"] for r in records]
        assert seen == records
        assert [r["kind"] for r in seen[-2:]] == ["tap", "bye"]
        assert seen_at_finalize == [len(records)]  # the report sees the whole wire

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_observers_see_what_a_decoder_of_the_log_sees(self, session):
        """Observers get the sender's own record for every line the
        emulation and the scenario manager send; it must equal what
        decoding the line gives, as a tuple sent where the decoder builds a
        list would not."""
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
        seen = []
        observe = KpiEngine.observe_record

        def tap(engine, record):
            seen.append(copy.deepcopy(record))
            observe(engine, record)

        KpiEngine.observe_record = tap
        try:
            result = run_single(model, book, scenario, seed)
        finally:
            KpiEngine.observe_record = observe
        assert seen == records_of(result.log)

    def test_tap_that_mutates_records_cannot_change_the_session(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch
    ):
        """Observers get records the session has finished with, and the log
        is taken before finalize, so even a tap that tears every record
        apart after reading it leaves the wire bytes alone."""
        scenario = scenario_by_name("supply_shortage")
        clean = run_single(
            minicell_model, minicell_orders, scenario, seed=3, attach_kpi=False
        )
        observe = KpiEngine.observe_record
        torn = []

        def tear(engine, record):
            observe(engine, record)
            body = record.get("body")
            if isinstance(body, dict):
                for key in ("events", "notices", "orders"):
                    for item in body.get(key) or ():
                        if isinstance(item, dict):
                            item.clear()
                            item["kind"] = "torn"
                body.clear()
                body["torn"] = True
            record.clear()
            record.update(kind="torn", role="torn", body={}, round=-1, t=-1, corr=-1)
            torn.append(record)

        monkeypatch.setattr(KpiEngine, "observe_record", tear)
        tapped = run_single(minicell_model, minicell_orders, scenario, seed=3)
        assert tapped.log == clean.log
        assert len(torn) == len(records_of(clean.log))


class TestDecodeOnce:
    @staticmethod
    def _count_decodes(monkeypatch):
        calls = []
        decode = interface.decode_line

        def counting(line, offset=0):
            calls.append(line)
            return decode(line, offset)

        monkeypatch.setattr(interface, "decode_line", counting)
        return calls

    def test_each_line_is_decoded_once_per_reader(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch
    ):
        """In process, each record crosses with its line, so the session
        decodes nothing.  Over a socket each side decodes every line it
        receives, and the recorder reuses those records, so every line is
        decoded exactly once."""
        scenario = scenario_by_name("supply_shortage")
        calls = self._count_decodes(monkeypatch)
        run_single(minicell_model, minicell_orders, scenario, seed=3)
        assert calls == []
        remote = socket_session(minicell_model, minicell_orders, scenario, seed=3)
        decoded_in_run = list(calls)
        monkeypatch.undo()
        records = records_of(remote.log)
        sent_to_control = sum(r["role"] != "control" for r in records)
        assert sent_to_control and sent_to_control < len(records)
        assert sorted(decoded_in_run) == sorted(line for line, _ in iter_records(remote.log))

    def test_in_process_records_are_checked_not_decoded(self, minicell_model, monkeypatch):
        """The control gets the driver's own record once ``send`` has
        encoded it, which checks it, and the driver gets the control's
        reply records, checked as they were encoded."""
        calls = self._count_decodes(monkeypatch)
        control = ReferenceControl(minicell_model)
        ep = InProcEndpoint(control)
        # A malformed record is refused before the control sees it: the
        # wrong model hash would otherwise raise ControlProtocolError.
        bad = rec(kind="hello", body={"model_hash": "0" * 64}, corr="x")
        with pytest.raises(DecodeError, match="corr"):
            ep.send(bad)
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv()
        good = rec(kind="hello", body={"model_hash": minicell_model.model_hash})
        ep.send(good)
        line, record = ep.recv()
        assert line == encode_record(record) and record["body"]["policy"] == "reference-holonic"
        assert calls == []

    def test_in_process_session_checks_each_line_once(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch
    ):
        """Each record is checked where it is encoded and nowhere else, so
        an in-process session makes one ``check_record`` call per line."""
        checks = []
        check = interface.check_record

        def counting(record, offset=0):
            checks.append(record)
            return check(record, offset)

        monkeypatch.setattr(interface, "check_record", counting)
        log = run_single(minicell_model, minicell_orders, scenario_by_name("supply_shortage"),
                         seed=3).log
        assert len(checks) == log.count(b"\n") > 0

    def test_in_process_replies_are_checked_when_encoded(self, minicell_model, monkeypatch):
        """A malformed reply is refused as the control encodes it, so no
        line is queued for the driver to receive."""
        class BadReply(ControlClient):
            def handle(self, record):
                self._send(rec(kind="hello", role="control", round_no=0, corr="x"))
                return True

        monkeypatch.setattr(interface, "ControlClient", BadReply)
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        good = rec(kind="hello", body={"model_hash": minicell_model.model_hash})
        with pytest.raises(DecodeError, match="corr"):
            ep.send(good)
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv()

    def test_replay_session_never_decodes_what_the_control_sent(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch
    ):
        log = run_single(minicell_model, minicell_orders, ps9_scenario, seed=1).log
        lines = log.count(b"\n")
        calls = self._count_decodes(monkeypatch)
        encoded = []
        encode = interface.encode_record
        monkeypatch.setattr(
            interface, "encode_record", lambda record: encoded.append(record) or encode(record)
        )
        replayed = replay_session(log, ReferenceControl(minicell_model))
        assert len(calls) == lines == 92
        # only the command and end-of-round records it returns are encoded
        assert len(encoded) == replayed.count(b"\n") == 52
        monkeypatch.undo()
        records = records_of(log)
        assert sum(r["role"] == "control" for r in records) == 57
        assert replayed == extract_command_log(log)

    @pytest.mark.parametrize("reader", LOG_READERS)
    def test_each_log_reader_decodes_each_line_once(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch, reader
    ):
        log = run_single(minicell_model, minicell_orders, ps9_scenario, seed=1).log
        lines = [line for line, _ in iter_records(log)]
        calls = self._count_decodes(monkeypatch)
        reader(log)
        assert calls == lines

    def test_extract_event_stream_checks_each_event_once(
        self, minicell_model, minicell_orders, ps9_scenario
    ):
        """``from_dict`` checks a body once and builds without the
        constructor's check, and the reader checks nothing else."""
        log = run_single(minicell_model, minicell_orders, ps9_scenario, seed=1).log
        checks = Counter()

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "check_body":
                checks[frame.f_globals["__name__"]] += 1

        sys.setprofile(profile)
        try:
            events = extract_event_stream(log)
        finally:
            sys.setprofile(None)
        assert checks == {"holobench.messages": len(events)} and len(events) == 45

    def test_events_are_checked_once_where_they_enter_from_outside(
        self, minicell_model, minicell_orders, scenario_by_name
    ):
        """In process the control gets the kernel's sealed event bodies and
        copies them unchecked; read from a socket or from a log, each event
        is checked once, on the control's side."""
        scenario = scenario_by_name("supply_shortage")

        def event_checks(session):
            """``SimEvent.check_body`` calls while ``session()`` runs, by
            whether the main thread made them, and what it returned."""
            checks, lock = Counter(), threading.Lock()

            def profile(frame, event, arg):
                if (event == "call" and frame.f_code.co_name == "check_body"
                        and frame.f_locals.get("label") == "event"):
                    with lock:
                        checks[threading.current_thread() is threading.main_thread()] += 1

            threading.setprofile(profile)
            sys.setprofile(profile)
            try:
                return checks, session()
            finally:
                sys.setprofile(None)
                threading.setprofile(None)

        def event_count(log):
            return sum(len(r["body"]["events"]) for r in records_of(log)
                       if r["kind"] == "event-batch")

        checks, local = event_checks(
            lambda: run_single(minicell_model, minicell_orders, scenario, seed=3))
        assert checks == {} and event_count(local.log) > 0
        checks, remote = event_checks(
            lambda: socket_session(minicell_model, minicell_orders, scenario, seed=3))
        assert remote.log == local.log
        assert checks == {False: event_count(local.log)}
        checks, replayed = event_checks(
            lambda: replay_session(local.log, ReferenceControl(minicell_model)))
        assert replayed == extract_command_log(local.log)
        assert checks == {True: event_count(local.log)}


def count_message_builds(monkeypatch):
    """Count ``from_dict`` calls on each wire message class, by class name;
    a socket session counts from both of its threads."""
    built, lock = Counter(), threading.Lock()
    for cls in WIRE_MESSAGES:
        build = vars(cls)["from_dict"].__func__

        def counting(owner, d, build=build):
            with lock:
                built[owner.__name__] += 1
            return build(owner, d)

        monkeypatch.setattr(cls, "from_dict", classmethod(counting))
    return built


class TestMessagesCross:
    """Events and commands cross as their bodies: the control gets its own
    copy of each event body (checked over a socket and in replay) and
    builds the directives and notices with ``from_dict``, and the kernel
    runs a checked copy of each of the control's command bodies.  The same
    happens in process, over a socket and in replay."""

    def test_no_session_builds_an_event_or_command(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch
    ):
        scenarios = [scenario_by_name(name) for name in MINICELL_SCENARIOS]
        built = count_message_builds(monkeypatch)

        def rare_messages(log):
            """What each session builds: one directive per directive record,
            one notice per notice."""
            records = records_of(log)
            notices = sum(len(r["body"]["notices"]) for r in records
                          if r["kind"] == "event-batch")
            return Counter(ControlDirective=sum(r["kind"] == "directive" for r in records),
                           Notice=notices)

        expected = Counter()
        for scenario in scenarios:
            result = run_single(minicell_model, minicell_orders, scenario, seed=3)
            assert result.status == "completed"
            expected += rare_messages(result.log)
        assert built == expected and expected["ControlDirective"]
        built.clear()
        remote = socket_session(minicell_model, minicell_orders, scenarios[-1], seed=3)
        assert built == rare_messages(remote.log)
        built.clear()
        replayed = replay_session(remote.log, ReferenceControl(minicell_model))
        assert replayed == extract_command_log(remote.log)
        assert built == rare_messages(remote.log)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_each_handed_over_message_is_what_a_socket_peer_builds(self, session):
        """In process the control reads the driver's own records; its
        inputs and its commands are still exactly those of a control served
        over a socket, which decodes every line."""
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)

        class Recording(ReferenceControl):
            def __init__(self, model):
                super().__init__(model)
                self.seen = []

            def on_round(self, now, directives, events, notices):
                directives = list(directives)
                inputs = copy.deepcopy((now, directives, events, notices))
                commands, idle = super().on_round(now, directives, events, notices)
                self.seen.append((inputs, copy.deepcopy(commands), idle))
                return commands, idle

        local, remote = Recording(model), Recording(model)
        checked = run_single(model, book, scenario, seed, endpoint=InProcEndpoint(local))
        assert checked.log == socket_session(model, book, scenario, seed, remote).log
        assert local.seen == remote.seen
        assert any(events for (_, _, events, _), _, _ in local.seen)
        assert any(commands for _, commands, _ in local.seen)

    def test_control_that_mutates_handed_over_messages_cannot_change_the_session(
        self, minicell_model, minicell_orders, scenario_by_name
    ):
        """The driver encodes each record before handing it over and reads
        nothing of it afterwards, the control gets copies of the event
        bodies, and the kernel runs copies of the command bodies.  So a
        control that tears apart every event it was handed (its ``info``
        first), every directive's ``order``, and in the next round its own
        command bodies leaves the log bytes and the KPI report alone."""
        torn = Counter()

        class Tearing(ReferenceControl):
            sent = []

            def on_round(self, now, directives, events, notices):
                for cmd in self.sent:
                    cmd.clear()
                    cmd["kind"] = "torn"
                    torn["command"] += 1
                directives = list(directives)
                commands, idle = super().on_round(now, directives, events, notices)
                for ev in events:
                    if "info" in ev:
                        ev["info"].clear()
                        ev["info"]["torn"] = True
                        torn["info"] += 1
                    ev.clear()
                    ev["kind"] = "torn"
                    torn["event"] += 1
                for d in directives:
                    if d.order is not None:
                        d.order.clear()
                        d.order["torn"] = True
                        torn["order"] += 1
                self.sent = commands
                return commands, idle

        for name in MINICELL_SCENARIOS:
            scenario = scenario_by_name(name)
            clean = run_single(minicell_model, minicell_orders, scenario, seed=3)
            tearing = run_single(minicell_model, minicell_orders, scenario, seed=3,
                                 endpoint=InProcEndpoint(Tearing(minicell_model)))
            assert tearing.log == clean.log
            assert tearing.report == clean.report is not None
        assert torn["event"] and torn["info"] and torn["order"] and torn["command"]


def dense_session():
    """A dense book of 120 orders on ``ORACLE_SHOP``, four released per
    tick, with no disturbances: a long log from a small model."""
    model = load_model_doc(ORACLE_SHOP)
    book = [ProductOrder(f"O{i}", tuple("ABC"[: 1 + i % 3]), i // 4, 1000 + i)
            for i in range(120)]
    scenario = load_scenario_doc({"id": "none", "rules": []}, model=model, orders=book)
    return model, book, scenario


def traced_peak(reader, log):
    """Peak bytes ``tracemalloc`` sees allocated while ``reader(log)`` runs,
    its result included; the log itself was allocated before tracing."""
    tracemalloc.start()
    try:
        reader(log)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReaderMemory:
    """The log readers decode one line at a time and keep only what they
    return, so their peak is a small multiple of the log, and the KPI
    oracle, which keeps no event, peaks below the log.  Decoding the whole
    log first, as ``records_of`` does, peaks at about 7-8 times it."""

    @pytest.mark.parametrize(
        "name", ["null", "ps9", "reject_rework", "rush_order", "supply_shortage"]
    )
    def test_peak_is_bounded_by_the_log(
        self, minicell_model, minicell_orders, scenario_by_name, name
    ):
        log = run_single(minicell_model, minicell_orders, scenario_by_name(name), seed=3).log
        assert traced_peak(recompute_from_log, log) <= len(log)
        assert traced_peak(extract_event_stream, log) <= 2 * len(log)
        assert traced_peak(extract_command_log, log) <= 2 * len(log)

    def test_oracle_peak_is_a_fraction_of_a_long_log(self):
        # The oracle keeps the orders' times and the machine spans, never
        # the events.
        result = run_single(*dense_session(), seed=1)
        assert result.status == "completed" and result.report.completed == 120
        assert traced_peak(recompute_from_log, result.log) <= len(result.log) // 4


class TestSessionMemory:
    def test_live_session_holds_its_log_once(self):
        """The recorder writes each line into one buffer and hands that
        buffer over as the log, so a session peaks near its log's size.  A
        list of lines joined at the end holds the log twice over and peaks
        at about 2.9 times it."""
        session = dense_session()
        run_single(*session, seed=1)  # first-use caches
        tracemalloc.start()
        try:
            result = run_single(*session, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.status == "completed"
        assert peak <= 1.5 * len(result.log), (peak, len(result.log))


class TestOldFormatLogs:
    """Logs recorded before decision latency left the wire carry a control
    ``FLOW2`` tap after each end-of-round.  Every reader still gives the
    same answer on them, so older artifact directories stay auditable."""

    @staticmethod
    def with_latency_taps(log):
        old = bytearray()
        for line, record in iter_records(log):
            old += line
            if record["kind"] == "end-of-round":
                body = {"flow": "FLOW2", "name": "decision_latency_ms", "value": 0.25,
                        "i": record["round"]}
                old += encode_record(
                    rec(kind="tap", role="control", round_no=record["round"], t=record["t"],
                        body=body)
                )
        return bytes(old)

    @pytest.mark.parametrize("name", ["null", "ps9", "supply_shortage"])
    def test_readers_ignore_the_latency_taps(
        self, minicell_model, minicell_orders, scenario_by_name, name
    ):
        result = run_single(minicell_model, minicell_orders, scenario_by_name(name), seed=2)
        old = self.with_latency_taps(result.log)
        rounds = sum(r["kind"] == "event-batch" for r in records_of(result.log))
        assert old.count(b'"FLOW2"') == rounds > 0
        assert recompute_from_log(old) == recompute_from_log(result.log) == result.report
        assert extract_command_log(old) == extract_command_log(result.log)
        assert extract_event_stream(old) == extract_event_stream(result.log)
        replayed = replay_session(old, ReferenceControl(minicell_model))
        assert replayed == replay_session(result.log, ReferenceControl(minicell_model))
        assert replayed == extract_command_log(result.log)
        engine = KpiEngine()
        for record in records_of(old):
            engine.observe_record(record)
        assert reports_match(engine.finalize(), result.report) == []


class TestReplay:
    def _log(self, minicell_model, minicell_orders, scenario, seed=1):
        result = run_single(minicell_model, minicell_orders, scenario, seed=seed)
        assert result.status == "completed"
        return result.log

    def test_replay_reproduces_command_log(self, minicell_model, minicell_orders,
                                           ps9_scenario):
        log = self._log(minicell_model, minicell_orders, ps9_scenario)
        fresh = ReferenceControl(minicell_model)
        assert replay_session(log, fresh) == extract_command_log(log)

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_generated_sessions_replay_and_log_alike_without_the_kpi_tap(self, session):
        """Acceptance criteria c3 and c9 on generated sessions: a fresh
        control fed the log answers with its command log, and a session run
        without the KPI tap writes the same bytes."""
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
        log = run_single(model, book, scenario, seed).log
        assert replay_session(log, ReferenceControl(model)) == extract_command_log(log)
        assert run_single(model, book, scenario, seed, attach_kpi=False).log == log

    def test_event_stream_extraction(self, minicell_model, minicell_orders,
                                     null_scenario):
        log = self._log(minicell_model, minicell_orders, null_scenario)
        events = extract_event_stream(log)
        seqs = [e.seq for e in events]
        assert seqs == list(range(1, len(seqs) + 1))
        assert events[-1].kind in ("order-completed", "shuttle-arrived")

    def test_truncated_log_is_rejected(self, minicell_model, minicell_orders,
                                       null_scenario):
        log = self._log(minicell_model, minicell_orders, null_scenario)
        without_tail = b"".join(
            line + b"\n" for line in log.split(b"\n")[:-6] if line
        )
        with pytest.raises(ReplayError, match="run-end"):
            replay_session(without_tail, ReferenceControl(minicell_model))

    def test_mid_line_truncation_is_rejected(self, minicell_model, minicell_orders,
                                             null_scenario):
        log = self._log(minicell_model, minicell_orders, null_scenario)
        with pytest.raises(ReplayError, match="truncated"):
            replay_session(log[:-3], ReferenceControl(minicell_model))

    def test_round_monotonicity_is_enforced(self, minicell_model, minicell_orders,
                                            null_scenario):
        log = self._log(minicell_model, minicell_orders, null_scenario)
        shuffled = bytearray()
        batches = []
        for record_line, record in iter_records(log):
            if record["role"] == "emulation" and record["kind"] == "event-batch":
                batches.append(record_line)
        # duplicate the first batch line right after itself: same round twice
        first = batches[0]
        shuffled = log.replace(first, first + first, 1)
        with pytest.raises(ReplayError, match="monotonicity"):
            replay_session(bytes(shuffled), ReferenceControl(minicell_model))

    def test_empty_log_is_fine(self, minicell_model):
        assert replay_session(b"", ReferenceControl(minicell_model)) == b""


class TestHandshake:
    def test_model_hash_mismatch_refused(self, minicell_model):
        client = ControlClient(lambda record: None, ReferenceControl(minicell_model))
        with pytest.raises(ControlProtocolError, match="hash"):
            client.handle(rec(kind="hello", body={"model_hash": "0" * 64}))

    def test_round_monotonicity_enforced_by_client(self, minicell_model):
        client = ControlClient(lambda record: None, ReferenceControl(minicell_model))
        with pytest.raises(ProtocolError, match="monotonicity"):
            client.handle(rec(round_no=2, body={"events": [], "notices": []}))

    @pytest.mark.parametrize("record, cause", [
        (rec(kind="hello", body={}), KeyError),
        (rec(kind="run-meta", role="scenario-manager", body={"orders": [
            {"id": "O1", "routing": [], "release": 0, "due": 9}]}), OrderBookError),
        (rec(kind="run-meta", role="scenario-manager", body={"orders": [5]}), OrderBookError),
    ], ids=["hello-without-model-hash", "run-meta-order-that-does-not-load",
            "run-meta-order-that-is-no-object"])
    def test_bad_hello_or_run_meta_is_a_protocol_error(self, minicell_model, record, cause):
        client = ControlClient(lambda record: None, ReferenceControl(minicell_model))
        fault = f"{record['role']} {record['kind']} body builds no message"
        with pytest.raises(ProtocolError, match=fault) as info:
            client.handle(record)
        assert isinstance(info.value.__cause__, cause)

    @pytest.mark.parametrize("priority", [True, 1.5, "x"])
    def test_priority_that_is_no_integer_is_a_protocol_error(
        self, minicell_model, minicell_orders, null_scenario, priority
    ):
        """``true`` would rank as priority 1 and ``1.5`` as 1.5, and ``"x"``
        would fail the next round with a bare TypeError; the client and
        replay refuse the directive where it is received."""
        directive = rec(kind="directive", role="scenario-manager",
                        body={"kind": "set-priority", "order_id": "O1", "priority": priority})
        fault = "scenario-manager directive body builds no message"
        client = ControlClient(lambda record: None, ReferenceControl(minicell_model))
        with pytest.raises(ProtocolError, match=fault):
            client.handle(directive)
        # the same record ahead of a recorded session's first event batch
        log = run_single(minicell_model, minicell_orders, null_scenario, seed=1).log
        lines, records = zip(*iter_records(log))
        lines = list(lines)
        lines.insert(next(i for i, r in enumerate(records) if r["kind"] == "event-batch"),
                     encode_record(directive))
        with pytest.raises(ProtocolError, match=fault):
            replay_session(b"".join(lines), ReferenceControl(minicell_model))

    def test_unknown_kind_refused(self, minicell_model):
        client = ControlClient(lambda record: None, ReferenceControl(minicell_model))
        with pytest.raises(ProtocolError, match="mystery"):
            client.handle(rec(kind="mystery"))

    def test_client_answers_a_recorded_session_from_hello_to_bye(
        self, minicell_model, minicell_orders, scenario_by_name
    ):
        log = run_single(
            minicell_model, minicell_orders, scenario_by_name("supply_shortage"), seed=3
        ).log
        sent = []
        client = ControlClient(sent.append, ReferenceControl(minicell_model))
        handled = [client.handle(r) for r in records_of(log) if r["role"] != "control"]
        assert handled[:-1] == [True] * (len(handled) - 1) and handled[-1] is False
        assert b"".join(map(encode_record, sent)) == b"".join(
            line for line, record in iter_records(log) if record["role"] == "control"
        )


class TestReplyProtocol:
    """A round's reply ends at its end-of-round.  A command the control
    sends after that is read first by the driver's next read, which
    refuses it: the next round's reply checks its ``corr``, and after
    run-end only taps and bye may come.  A control that hangs up before its
    bye fails the run too: without the end-of-run taps, the report would
    count no commands, directives or reschedules."""

    @pytest.mark.parametrize("late", ["first", "last"])
    def test_command_after_end_of_round_is_refused(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch, late
    ):
        rounds = run_single(minicell_model, minicell_orders, ps9_scenario, seed=1).rounds
        late_round = 1 if late == "first" else rounds - 1  # the last round is run-end

        class LateCommand(ControlClient):
            def _serve_round(self, record):
                super()._serve_round(record)
                if record["round"] == late_round:
                    self._send(rec(kind="command", role="control", round_no=late_round,
                                   t=record["t"], corr=late_round))

        monkeypatch.setattr(interface, "ControlClient", LateCommand)
        message = "wrong round" if late == "first" else "'command' after run-end"
        with pytest.raises(ProtocolError, match=message):
            run_single(minicell_model, minicell_orders, ps9_scenario, seed=1)

    @pytest.mark.parametrize("answering, reply, refusal", [
        ("hello", rec(kind="bye", role="control", round_no=0), "expected the control's hello"),
        ("hello", rec(kind="hello", role="control", round_no=0, body={"model_hash": "0" * 64}),
         "different model hash"),
        ("event-batch", rec(kind="command", role="scenario", corr=1),
         "unexpected scenario record in a control reply"),
        ("event-batch", rec(kind="tap", role="control", corr=1),
         "unexpected control record kind 'tap'"),
        ("run-end", rec(kind="tap", role="emulation", body={
            "flow": "FLOW7", "name": "commands_issued", "value": 999, "i": 0}),
         "unexpected emulation record in a control reply"),
        ("run-end", rec(kind="bye", role="scenario-manager"),
         "unexpected scenario-manager record in a control reply"),
        *(("run-end", rec(kind="tap", role="control", body=body), words)
          for body, words in BAD_TAP_BODIES),
        # a string field that holds no string is refused before the kernel sees it
        *(("event-batch", rec(kind="command", role="control", corr=1, body={
            "kind": "start-op", "machine": "M1", "order": "O1", "operation": "A", name: value}),
           f"command {name} must be a string")
          for name, value in (("machine", ["M1"]), ("order", 7), ("operation", 3))),
    ])
    def test_driver_refuses_a_reply_out_of_protocol(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch,
        answering, reply, refusal,
    ):
        class WrongReply(ControlClient):
            def handle(self, record):
                if record["kind"] != answering:
                    return super().handle(record)
                self._send(reply)
                return True

        monkeypatch.setattr(interface, "ControlClient", WrongReply)
        with pytest.raises(ProtocolError, match=refusal):
            run_single(minicell_model, minicell_orders, ps9_scenario, seed=1)

    @pytest.mark.parametrize("body, words", BAD_TAP_BODIES,
                             ids=[words for _, words in BAD_TAP_BODIES])
    def test_driver_and_oracle_refuse_a_bad_tap_alike(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch, body, words
    ):
        """One schema, ``Tap``, checks a tap on both paths: the live session
        refuses it with ``ProtocolError``, the audit of a log that holds it
        with ``DecodeError`` at its line, and both for the same reason."""
        tap = rec(kind="tap", role="control", body=body)

        class BadTap(ControlClient):
            def handle(self, record):
                if record["kind"] != "run-end":
                    return super().handle(record)
                self._send(tap)
                return True

        monkeypatch.setattr(interface, "ControlClient", BadTap)
        with pytest.raises(ProtocolError) as live:
            run_single(minicell_model, minicell_orders, ps9_scenario, seed=1)
        good = encode_record(rec(body={"events": []}))
        with pytest.raises(DecodeError) as audit:
            recompute_from_log(good + encode_record(tap))
        assert audit.value.offset == len(good)
        causes = live.value.__cause__, audit.value.__cause__
        assert all(isinstance(cause, MessageError) for cause in causes)
        assert str(causes[0]) == str(causes[1]) == words

    # Taps repeat or go back on i; the driver refuses the second before the
    # KPI engine sees it: a repeat would be dropped by the engine as a
    # duplicate but kept by the oracle, and a step back would escape as a
    # bare StreamError.
    @pytest.mark.parametrize("taps, refusal", [
        ([(0, 1), (0, 999)], "control tap i=0 does not exceed the previous tap's i=0"),
        ([(1, 1), (0, 999)], "control tap i=0 does not exceed the previous tap's i=1"),
    ], ids=["repeated", "backward"])
    @pytest.mark.parametrize("transport", ["in-process", "socket"])
    def test_driver_refuses_taps_out_of_index_order(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch,
        taps, refusal, transport,
    ):
        class UnorderedTaps(ControlClient):
            def handle(self, record):
                if record["kind"] != "run-end":
                    return super().handle(record)
                round_no, t = record["round"], record["t"]
                for i, value in taps:
                    body = {**_TAP, "value": value, "i": i}
                    self._send(rec(kind="tap", role="control", round_no=round_no, t=t, body=body))
                self._send(rec(kind="bye", role="control", round_no=round_no, t=t))
                return False

        monkeypatch.setattr(interface, "ControlClient", UnorderedTaps)
        session = socket_session if transport == "socket" else run_single
        with pytest.raises(ProtocolError, match=re.escape(refusal)):
            session(minicell_model, minicell_orders, ps9_scenario, 1)

    @pytest.mark.parametrize("transport", ["in-process", "socket"])
    def test_driver_refuses_a_tap_on_another_flow(
        self, minicell_model, minicell_orders, null_scenario, monkeypatch, transport
    ):
        """Both KPI folds read the control's counters from FLOW7 only: the
        same counters on FLOW8 would read 0 in a run that completes."""
        class OtherFlow(ControlClient):
            def handle(self, record):
                if record["kind"] != "run-end":
                    return super().handle(record)
                round_no, t = record["round"], record["t"]
                for i, (name, value) in enumerate(sorted(self._control.export_kpi().items())):
                    body = {"flow": "FLOW8", "name": name, "value": value, "i": i}
                    self._send(rec(kind="tap", role="control", round_no=round_no, t=t, body=body))
                self._send(rec(kind="bye", role="control", round_no=round_no, t=t))
                return False

        monkeypatch.setattr(interface, "ControlClient", OtherFlow)
        session = socket_session if transport == "socket" else run_single
        with pytest.raises(ProtocolError, match=re.escape("control tap flow 'FLOW8' is not FLOW7")):
            session(minicell_model, minicell_orders, null_scenario, 1)

    def test_control_that_hangs_up_before_bye_fails_the_run(
        self, minicell_model, minicell_orders, ps9_scenario
    ):
        left, right = socket.socketpair()

        def serve_until_run_end(endpoint):
            client = ControlClient(endpoint.send, ReferenceControl(minicell_model))
            while (received := endpoint.recv())[1]["kind"] != "run-end":
                client.handle(received[1])
            endpoint.close()  # no taps, no bye

        worker = threading.Thread(target=serve_until_run_end, args=(SocketEndpoint(right),))
        worker.start()
        try:
            with pytest.raises(ProtocolError, match="hung up before its bye"):
                run_single(minicell_model, minicell_orders, ps9_scenario, seed=1,
                           endpoint=SocketEndpoint(left))
        finally:
            worker.join(timeout=10)
            left.close()
            right.close()
        assert not worker.is_alive()


class TestRoundProbe:
    """Round timing outside the program is read from ``RoundDriver.
    open_round``: it must start each round, once, before that round's
    event batch is sent, and never the run-end round."""

    @pytest.mark.parametrize(
        "name", ["null", "ps9", "reject_rework", "rush_order", "supply_shortage"]
    )
    def test_open_round_starts_each_round_before_its_batch(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch, name
    ):
        steps = []
        open_round = interface.RoundDriver.open_round

        def opening(driver, t, directives):
            steps.append(("open", driver.round_no + 1))
            return open_round(driver, t, directives)

        class Watched(InProcEndpoint):
            def send(self, record):
                if record["kind"] == "event-batch":
                    steps.append(("batch", record["round"]))
                return super().send(record)

        monkeypatch.setattr(interface.RoundDriver, "open_round", opening)
        result = run_single(minicell_model, minicell_orders, scenario_by_name(name), seed=3,
                            endpoint=Watched(ReferenceControl(minicell_model)))
        assert result.status == "completed"
        assert sum(step == "open" for step, _ in steps) == result.rounds - 1
        assert steps == [(step, r) for r in range(1, result.rounds) for step in ("open", "batch")]
