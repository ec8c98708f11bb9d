"""Hostile HTTP input: every malformed or stalled request gets a status.

The server must answer each with a 4xx response and log no unhandled
exception from its connection callback.
"""

import logging
import socket

import pytest

from repro.serve import server as server_module

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
