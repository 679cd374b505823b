"""Wire layer: codec, transports, session recording and replay."""

import copy
import json
import socket
import threading
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holobench import interface
from holobench.canon import canon_bytes, canon_dumps
from holobench.control import ControlProtocolError, ReferenceControl
from holobench.harness import run_single
from holobench.interface import (
    WIRE_PREFIX,
    DecodeError,
    EndOfStream,
    InProcEndpoint,
    ProtocolError,
    ControlClient,
    ReplayError,
    RunRecorder,
    SocketEndpoint,
    decode_line,
    encode_record,
    extract_command_log,
    extract_event_stream,
    iter_records,
    make_record,
    message_of,
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
from strategies import ORACLE_SHOP, oracle_sessions


def records_of(log):
    """Every record of a session log, read with ``iter_records``."""
    return [record for _, record in iter_records(log)]


# Every reader that decodes a whole session log.
LOG_READERS = [records_of, extract_command_log, extract_event_stream, recompute_from_log]

MINICELL_SCENARIOS = ["null", "ps9", "reject_rework", "rush_order", "supply_shortage"]
WIRE_MESSAGES = (SimEvent, ControlCommand, ControlDirective, Injection, Notice)


def rec(kind="event-batch", role="emulation", round_no=1, t=0, body=None, corr=None):
    return make_record(role, round_no, t, kind, body if body is not None else {}, corr)


def socket_session(model, orders, scenario, seed):
    """``run_single`` against a control served over a socket pair from a
    thread."""
    left, right = socket.socketpair()
    worker = threading.Thread(
        target=serve_control, args=(SocketEndpoint(right), ReferenceControl(model))
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

    @pytest.mark.parametrize("reader", LOG_READERS)
    def test_readers_report_the_byte_offset(self, reader):
        good = encode_record(rec(body={"events": []}))
        log = good + b"IL1 broken\n"
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
            ep.recv_line_record()
        hello = self.hello(minicell_model)
        ep.send_line_record(encode_record(hello), hello, None)
        line, record, message = ep.recv_line_record()
        assert record["kind"] == "hello" and record["role"] == "control"
        assert line == encode_record(record) and message is None
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv_line_record()

    def test_close_signals_end_of_stream(self, minicell_model):
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        ep.close()
        with pytest.raises(EndOfStream):
            ep.recv_line_record()
        with pytest.raises(ProtocolError, match="ended"):
            ep.send_line_record(b"", self.hello(minicell_model), None)

    def test_session_ends_at_the_controls_bye(self, minicell_model):
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        run_end = rec(kind="run-end", round_no=1, body={"reason": "completed"})
        ep.send_line_record(encode_record(run_end), run_end, None)
        kinds = []
        with pytest.raises(EndOfStream):
            while True:
                kinds.append(ep.recv_line_record()[1]["kind"])
        assert kinds[-1] == "bye" and set(kinds[:-1]) == {"tap"}
        with pytest.raises(ProtocolError, match="ended"):
            ep.send_line_record(encode_record(run_end), run_end, None)


class TestSocket:
    def test_lines_cross_a_real_socket(self):
        left, right = socket.socketpair()
        with left, right:
            a, b = SocketEndpoint(left), SocketEndpoint(right)
            line = encode_record(rec())
            a.send_line(line)
            a.send_line(line)
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
            (rec(role="control", body={}), KeyError),
            (rec(kind="command", role="control", body={"kind": "fly"}, corr=7), MessageError),
        ],
        ids=["event-batch-without-events", "unknown-command-kind"],
    )
    def test_body_that_builds_no_message_is_a_protocol_error(self, record, cause):
        """The message is built as the line arrives, before the receiver
        checks role, kind and corr, so a bad body is still named as a
        protocol fault of its record kind."""
        left, right = socket.socketpair()
        with left, right:
            left.sendall(encode_record(record))
            with pytest.raises(ProtocolError, match=f"control {record['kind']} body") as info:
                SocketEndpoint(right, timeout=1.0).recv_line_record()
            assert isinstance(info.value.__cause__, cause)

    def test_readme_socket_pair_session_closes_both_sockets(
        self, minicell_model, minicell_orders, ps9_scenario
    ):
        """The README's socket-pair example, closing nothing by hand: the
        driver closes its endpoint at run end, and ``serve_control`` closes
        its own when it returns."""
        left, right = socket.socketpair()
        worker = threading.Thread(
            target=serve_control, args=(SocketEndpoint(right), ReferenceControl(minicell_model))
        )
        worker.start()
        result = run_single(
            minicell_model, minicell_orders, ps9_scenario, seed=1, endpoint=SocketEndpoint(left)
        )
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert result.status == "completed"
        assert left.fileno() == right.fileno() == -1

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

    @pytest.mark.parametrize(
        "name, seed",
        [("null", 1), ("ps9", 2), ("reject_rework", 3), ("rush_order", 1),
         ("supply_shortage", 3)],
    )
    def test_session_over_sockets_writes_the_in_process_bytes(
        self, minicell_model, minicell_orders, scenario_by_name, name, seed
    ):
        """A control served over a socket decodes every line it reads and
        builds its messages from the records, where in process it reads the
        sender's own objects; either way the session is the same, byte for
        byte, with directives, injections and rejected parts."""
        scenario = scenario_by_name(name)
        remote = socket_session(minicell_model, minicell_orders, scenario, seed)
        local = run_single(minicell_model, minicell_orders, scenario, seed)
        assert remote.status == local.status == "completed"
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
        """The control gets the driver's own record once ``check_record``
        has passed it, and the driver gets the control's reply records,
        checked again on receipt."""
        calls = self._count_decodes(monkeypatch)
        control = ReferenceControl(minicell_model)
        ep = InProcEndpoint(control)
        # A malformed record is refused before the control sees it: the
        # wrong model hash would otherwise raise ControlProtocolError.
        bad = rec(kind="hello", body={"model_hash": "0" * 64}, corr="x")
        with pytest.raises(DecodeError, match="corr"):
            ep.send_line_record(encode_record(rec()), bad, None)
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv_line_record()
        good = rec(kind="hello", body={"model_hash": minicell_model.model_hash})
        ep.send_line_record(encode_record(good), good, None)
        line, record, _ = ep.recv_line_record()
        assert line == encode_record(record) and record["body"]["policy"] == "reference-holonic"
        assert calls == []

    def test_in_process_replies_are_checked_when_encoded(self, minicell_model, monkeypatch):
        """A malformed reply is refused as the control encodes it, so no
        line is queued for the driver to receive."""
        class BadReply(ControlClient):
            def handle(self, record, message):
                self._send(rec(kind="hello", role="control", round_no=0, corr="x"), None)
                return True

        monkeypatch.setattr(interface, "ControlClient", BadReply)
        ep = InProcEndpoint(ReferenceControl(minicell_model))
        good = rec(kind="hello", body={"model_hash": minicell_model.model_hash})
        with pytest.raises(DecodeError, match="corr"):
            ep.send_line_record(encode_record(good), good, None)
        with pytest.raises(ProtocolError, match="lock-step"):
            ep.recv_line_record()

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
    """In process, each message crosses as its sender's own object: the
    control reads the kernel's events and notices and the scenario
    manager's directives, and the kernel runs the control's commands.  A
    reader that has only the line builds the message from its record with
    ``message_of``."""

    def test_in_process_session_builds_no_message_from_a_record(
        self, minicell_model, minicell_orders, scenario_by_name, monkeypatch
    ):
        scenarios = [scenario_by_name(name) for name in MINICELL_SCENARIOS]
        built = count_message_builds(monkeypatch)
        for scenario in scenarios:
            result = run_single(minicell_model, minicell_orders, scenario, seed=3)
            assert result.status == "completed"
        assert built == Counter()
        # A socket peer and replay still build every message they read.
        remote = socket_session(minicell_model, minicell_orders, scenarios[-1], seed=3)
        records = records_of(remote.log)
        events = sum(len(r["body"]["events"]) for r in records if r["kind"] == "event-batch")
        kinds = Counter(r["kind"] for r in records)
        assert events and kinds["command"] and kinds["directive"]
        assert built == Counter(SimEvent=events, ControlCommand=kinds["command"],
                                ControlDirective=kinds["directive"])
        built.clear()
        replayed = replay_session(remote.log, ReferenceControl(minicell_model))
        assert replayed == extract_command_log(remote.log)
        assert built == Counter(SimEvent=events, ControlDirective=kinds["directive"])

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(session=oracle_sessions())
    def test_each_handed_over_message_is_what_a_socket_peer_builds(self, session):
        book, scenario_doc, seed = session
        model = load_model_doc(ORACLE_SHOP)
        scenario = load_scenario_doc(scenario_doc, model=model, orders=book)
        handed = Counter()

        class Checked(InProcEndpoint):
            def send_line_record(self, line, record, message):
                assert message == message_of(record)
                handed[record["kind"]] += 1
                super().send_line_record(line, record, message)

            def recv_line_record(self):
                line, record, message = super().recv_line_record()
                assert message == message_of(record)
                handed[record["kind"]] += 1
                return line, record, message

        checked = run_single(model, book, scenario, seed, endpoint=Checked(ReferenceControl(model)))
        assert checked.log == run_single(model, book, scenario, seed).log
        assert handed["event-batch"] and handed["command"]

    def test_control_that_mutates_handed_over_messages_cannot_change_the_session(
        self, minicell_model, minicell_orders, scenario_by_name
    ):
        """The driver encodes each message before handing it over and
        reads nothing of it afterwards, so a control that tears every
        event's ``info`` and every directive's ``order`` apart once it has
        decided leaves the log bytes and the KPI report alone."""
        torn = Counter()

        class Tearing(ReferenceControl):
            def on_round(self, now, directives, events, notices):
                directives = list(directives)
                result = super().on_round(now, directives, events, notices)
                for ev in events:
                    ev.info.clear()
                    ev.info["torn"] = True
                    torn["info"] += 1
                for d in directives:
                    if d.order is not None:
                        d.order.clear()
                        d.order["torn"] = True
                        torn["order"] += 1
                return result

        for name in MINICELL_SCENARIOS:
            scenario = scenario_by_name(name)
            clean = run_single(minicell_model, minicell_orders, scenario, seed=3)
            tearing = run_single(minicell_model, minicell_orders, scenario, seed=3,
                                 endpoint=InProcEndpoint(Tearing(minicell_model)))
            assert tearing.log == clean.log
            assert tearing.report == clean.report is not None
        assert torn["info"] and torn["order"]


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
    return, so their peak is a small multiple of the log.  Decoding the
    whole log first, as ``records_of`` does, peaks at about 7-8 times it."""

    @pytest.mark.parametrize(
        "name", ["null", "ps9", "reject_rework", "rush_order", "supply_shortage"]
    )
    def test_peak_is_bounded_by_the_log(
        self, minicell_model, minicell_orders, scenario_by_name, name
    ):
        log = run_single(minicell_model, minicell_orders, scenario_by_name(name), seed=3).log
        assert traced_peak(recompute_from_log, log) <= 3 * len(log)
        assert traced_peak(extract_event_stream, log) <= 2 * len(log)
        assert traced_peak(extract_command_log, log) <= 2 * len(log)


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
        client = ControlClient(lambda record, message: None, ReferenceControl(minicell_model))
        with pytest.raises(ControlProtocolError, match="hash"):
            client.handle(rec(kind="hello", body={"model_hash": "0" * 64}), None)

    def test_round_monotonicity_enforced_by_client(self, minicell_model):
        client = ControlClient(lambda record, message: None, ReferenceControl(minicell_model))
        with pytest.raises(ProtocolError, match="monotonicity"):
            client.handle(rec(round_no=2, body={"events": [], "notices": []}), ([], []))

    def test_unknown_kind_refused(self, minicell_model):
        client = ControlClient(lambda record, message: None, ReferenceControl(minicell_model))
        with pytest.raises(ProtocolError, match="mystery"):
            client.handle(rec(kind="mystery"), None)

    def test_client_answers_a_recorded_session_from_hello_to_bye(
        self, minicell_model, minicell_orders, scenario_by_name
    ):
        log = run_single(
            minicell_model, minicell_orders, scenario_by_name("supply_shortage"), seed=3
        ).log
        sent = []
        client = ControlClient(lambda record, message: sent.append(record),
                               ReferenceControl(minicell_model))
        handled = [client.handle(r, message_of(r)) for r in records_of(log)
                   if r["role"] != "control"]
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
            def _serve_round(self, record, message):
                super()._serve_round(record, message)
                if record["round"] == late_round:
                    self._send(rec(kind="command", role="control", round_no=late_round,
                                   t=record["t"], corr=late_round), None)

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
    ])
    def test_driver_refuses_a_reply_out_of_protocol(
        self, minicell_model, minicell_orders, ps9_scenario, monkeypatch,
        answering, reply, refusal,
    ):
        class WrongReply(ControlClient):
            def handle(self, record, message):
                if record["kind"] != answering:
                    return super().handle(record, message)
                self._send(reply, None)
                return True

        monkeypatch.setattr(interface, "ControlClient", WrongReply)
        with pytest.raises(ProtocolError, match=refusal):
            run_single(minicell_model, minicell_orders, ps9_scenario, seed=1)

    def test_control_that_hangs_up_before_bye_fails_the_run(
        self, minicell_model, minicell_orders, ps9_scenario
    ):
        left, right = socket.socketpair()

        def serve_until_run_end(endpoint):
            client = ControlClient(
                lambda record, message: endpoint.send_line_record(
                    encode_record(record), record, message),
                ReferenceControl(minicell_model),
            )
            while (received := endpoint.recv_line_record())[1]["kind"] != "run-end":
                client.handle(*received[1:])
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
            def send_line_record(self, line, record, message):
                if record["kind"] == "event-batch":
                    steps.append(("batch", record["round"]))
                super().send_line_record(line, record, message)

        monkeypatch.setattr(interface.RoundDriver, "open_round", opening)
        result = run_single(minicell_model, minicell_orders, scenario_by_name(name), seed=3,
                            endpoint=Watched(ReferenceControl(minicell_model)))
        assert result.status == "completed"
        assert sum(step == "open" for step, _ in steps) == result.rounds - 1
        assert steps == [(step, r) for r in range(1, result.rounds) for step in ("open", "batch")]
