"""Hostile HTTP input: every malformed or stalled request gets a status.

The server must answer each with a 4xx response and log no unhandled
exception from its connection callback.  Hypothesis fuzzes the request
reader and the submission parser: any byte stream, cut into writes and
ended by a half-close or a stall, either parses or gets a 400, 408 or
413, and any body either yields a job that can be keyed and charged or
gets a 400 or 413.
"""

import asyncio
import json
import logging
import socket
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.lab.jobs import registered_kinds
from repro.serve import ServerThread
from repro.serve import server as server_module
from repro.serve.protocol import (
    MAX_BODY_BYTES,
    ProtocolError,
    encode_json,
    job_cycles,
    parse_submission,
)
from repro.serve.server import SimulationServer

HEAD = b"POST /jobs HTTP/1.1\r\nHost: x\r\n"


def _exchange(srv, payload: bytes, half_close: bool = True) -> bytes:
    """Send ``payload``, optionally half-close, and read to EOF."""
    with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
        sock.sendall(payload)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def _status(response: bytes) -> int:
    assert response, "connection closed with no response"
    return int(response.split(b" ", 2)[1])


@pytest.mark.parametrize("payload,status", [
    pytest.param(HEAD + b"Content-Length: abc\r\n\r\n", 400, id="non-numeric-length"),
    pytest.param(HEAD + b"Content-Length: -5\r\n\r\n", 400, id="negative-length"),
    pytest.param(HEAD + b"Content-Length: 1_0\r\n\r\n", 400, id="underscored-length"),
    pytest.param(HEAD + b"Content-Length: 100\r\n\r\n{\"job\"", 400, id="short-body"),
    pytest.param(HEAD + b"X-Big: " + b"a" * (70 * 1024) + b"\r\n\r\n", 400,
                 id="70KiB-header-line"),
    pytest.param(b"GET / " + b"a" * (70 * 1024) + b" HTTP/1.1\r\n\r\n", 400,
                 id="70KiB-request-line"),
    pytest.param(HEAD + b"Content-Length: %d\r\n\r\n"
                 % (server_module.MAX_BODY_BYTES + 1), 413, id="oversized-body"),
])
def test_hostile_request_gets_a_status(server_factory, caplog, payload, status):
    srv = server_factory()
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        response = _exchange(srv, payload)
    assert _status(response) == status
    assert "Unhandled exception in client_connected_cb" not in caplog.text


def test_stalled_request_times_out_with_408(server_factory, caplog, monkeypatch):
    """A client that stops after one header is answered at the deadline,
    which covers the whole head and body, not just the request line."""
    monkeypatch.setattr(server_module, "REQUEST_DEADLINE_S", 0.5)
    srv = server_factory()
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        response = _exchange(srv, HEAD, half_close=False)
    assert _status(response) == 408
    assert "Unhandled exception in client_connected_cb" not in caplog.text


def test_well_formed_request_still_served(server_factory):
    srv = server_factory()
    response = _exchange(srv, b"GET /healthz HTTP/1.1\r\n\r\n")
    assert _status(response) == 200


# ----------------------------------------------------------------------
# Fuzz: any byte stream either parses or gets a 400, 408 or 413
# ----------------------------------------------------------------------
#: What a request that does not parse may be answered with.
REFUSALS = (400, 408, 413)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _submission_bodies(draw, kinds=None):
    """JSON bodies shaped like a submission, each field possibly wrong."""
    fields = {
        "kind": st.sampled_from(kinds or registered_kinds()) | _JSON,
        "params": st.dictionaries(
            st.sampled_from(["cycles", "rate", "size", "x"]), _JSON,
            max_size=3,
        ) | _JSON,
        "seed": st.integers() | _JSON,
        "tags": st.lists(st.text(max_size=5), max_size=3) | _JSON,
        "stream": st.fixed_dictionaries({}, optional={
            "metrics_interval": st.integers(-2, 200) | _JSON,
            "trace": st.booleans() | _JSON,
        }) | _JSON,
        "extra": _JSON,
    }
    doc = {
        name: draw(strategy) for name, strategy in fields.items()
        if draw(st.integers(0, 3)) and (name != "extra" or draw(st.booleans()))
    }
    text = json.dumps(doc, allow_nan=True)  # NaN/Infinity tokens included
    depth = draw(st.sampled_from([0, 0, 0, 300, 3000]))
    if depth:  # nesting deep enough to exhaust a recursive decoder
        text = text.replace("{", '{"deep": %s, ' % ("[" * depth + "]" * depth), 1)
    return text.encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(body=_submission_bodies() | st.binary(max_size=200))
def test_submission_parses_or_is_refused(body):
    """``parse_submission`` accepts a body only if the job it yields can
    be keyed, charged and sent back; it refuses anything else with a
    400 or 413, never another exception."""
    try:
        submission = parse_submission(body)
    except ProtocolError as exc:
        assert exc.status in (400, 413)
        return
    assert len(submission.job.key) == 64
    assert isinstance(job_cycles(submission.job), int)
    assert parse_submission(encode_json(submission.to_dict())) == submission


def test_non_finite_and_deep_submissions_are_refused():
    """What the fuzz found: each of these reached the last-resort 500."""
    kind = registered_kinds()[0]
    for body in (
        b'{"kind": "%s", "params": {"x": NaN}}' % kind.encode(),
        b'{"kind": "%s", "params": {"x": 1e999}}' % kind.encode(),
        b'{"kind": "%s", "params": {"cycles": "many"}}' % kind.encode(),
        b'{"kind": "%s", "params": {"cycles": [1]}}' % kind.encode(),
        b"[" * 5000 + b"]" * 5000,
    ):
        with pytest.raises(ProtocolError) as err:
            parse_submission(body)
        assert err.value.status == 400


_LENGTHS = st.one_of(
    st.just("true"),  # the body's own length
    st.just("absent"),
    st.sampled_from(["abc", "-5", "1_0", "+3", "0x10", "", " 7", "１"]),
    st.integers(max_value=-1).map(str),
    st.integers(min_value=0, max_value=400).map(str),
    st.integers(min_value=MAX_BODY_BYTES + 1, max_value=10**15).map(str),
)


@st.composite
def _requests(draw, kinds=None):
    """``(chunks, eof, well_formed, body)``: a request cut into writes.

    The request is well formed when its request line and headers are
    and its Content-Length is the body's length.  It may be truncated,
    and the client either half-closes (``eof``) or stalls.
    """
    garbled = draw(st.integers(0, 5)) == 0
    if garbled:
        line = draw(st.binary(max_size=60).filter(lambda b: b"\n" not in b))
    else:
        method = draw(st.sampled_from(["POST", "GET", "DELETE"]))
        path = draw(st.sampled_from(["/jobs", "/healthz", "/stats", "/nope"]))
        line = f"{method} {path} HTTP/1.1".encode()
    body = draw(_submission_bodies(kinds) | st.binary(max_size=120))
    headers = [b"Host: x"] + [
        name + b": " + value
        for name, value in draw(st.lists(st.tuples(
            st.sampled_from([b"X-Session", b"X-Trace-Id", b"Accept"]),
            st.binary(max_size=20).filter(lambda b: b"\n" not in b
                                          and b"\r" not in b)),
            max_size=3))
    ]
    length = draw(_LENGTHS)
    if length != "absent":
        value = str(len(body)) if length == "true" else length
        headers.append(b"Content-Length: " + value.encode("utf-8"))
    raw = line + b"\r\n" + b"".join(h + b"\r\n" for h in headers) + b"\r\n"
    if length != "absent":
        raw += body
    well_formed = not garbled and length == "true"
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(raw)))
        well_formed = well_formed and cut == len(raw)
        raw = raw[:cut]
    cuts = sorted(draw(st.lists(st.integers(0, len(raw)), max_size=6)))
    chunks = [raw[a:b] for a, b in zip([0] + cuts, cuts + [len(raw)])]
    return chunks, draw(st.booleans()), well_formed, body


@pytest.fixture(scope="module")
def parser():
    return SimulationServer(worker_mode="thread")


@pytest.fixture(scope="module")
def served():
    srv = ServerThread(worker_mode="thread").start()
    yield srv
    srv.stop(drain=False, timeout=30.0)


async def _read(server, chunks, eof):
    """Feed ``chunks`` one write at a time while the server reads."""
    reader = asyncio.StreamReader()

    async def write():
        for chunk in chunks:
            reader.feed_data(chunk)
            await asyncio.sleep(0)  # the parser runs between writes
        if eof:
            reader.feed_eof()

    writer = asyncio.ensure_future(write())
    try:
        return await server._read_request(reader)
    finally:
        writer.cancel()


@settings(max_examples=300, deadline=None)
@given(request=_requests())
def test_read_request_parses_or_refuses(parser, request):
    """The request reader returns a well-formed request's body intact
    and refuses anything else with a 400, 408 or 413."""
    chunks, eof, well_formed, body = request
    # Only a stalled request waits out the deadline.
    deadline = 5.0 if eof else 0.1
    with mock.patch.object(server_module, "REQUEST_DEADLINE_S", deadline):
        try:
            method, path, headers, got = asyncio.run(
                _read(parser, chunks, eof)
            )
        except ProtocolError as exc:
            assert exc.status in REFUSALS
            assert not well_formed, f"refused a well-formed request: {exc}"
            return
    if well_formed:
        assert got == body


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(request=_requests(kinds=["no_such_kind"]))
def test_served_request_parses_or_refuses(served, caplog, request):
    """End to end over a socket, with writes spread in time: every
    request gets a status line, never a silent close or a 500."""
    chunks, eof, well_formed, __ = request
    with mock.patch.object(server_module, "REQUEST_DEADLINE_S", 0.3), \
            caplog.at_level(logging.ERROR, logger="asyncio"):
        with socket.create_connection((served.host, served.port),
                                      timeout=10) as sock:
            try:
                for chunk in chunks:
                    sock.sendall(chunk)
                    time.sleep(0.001)
                if eof:
                    sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # refused before the last write: the answer is queued
            response = b""
            try:
                while True:
                    data = sock.recv(65536)
                    if not data:
                        break
                    response += data
            except ConnectionResetError:
                pass  # the reset of writes past the answer follows it
    status = _status(response)
    assert status < 500, response
    if well_formed:
        assert status not in (408, 413), response
    assert "Unhandled exception in client_connected_cb" not in caplog.text
