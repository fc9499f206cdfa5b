"""The framed-socket skeleton, checked once per server built on it.

``MatchingDaemon`` and ``CacheServer`` share transport checks, socket-file
hygiene, the read loop, the error model, the ``auth`` handshake and the
``ping``/``shutdown`` ops through :class:`~repro.service.framed.FramedServer`.
Every test here runs against both, over raw newline-delimited JSON, so
error frames are asserted verbatim.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time

import pytest

from repro.cachenet import CacheServer
from repro.exceptions import DaemonError
from repro.service import LRUCache, MatchingDaemon
from repro.service import framed

from tests.wire import Wire

SERVERS = {
    "daemon": lambda tmp_path, **kw: MatchingDaemon(
        store_dir=tmp_path / "runs", **kw
    ),
    "cache-server": lambda tmp_path, **kw: CacheServer(LRUCache(), **kw),
}


@pytest.fixture(params=sorted(SERVERS))
def make(request, tmp_path):
    """Build servers of one kind; every one built is stopped afterwards."""
    built = []

    def build(**kwargs):
        server = SERVERS[request.param](tmp_path, **kwargs)
        built.append(server)
        return server

    yield build
    for server in built:
        server.stop()


@pytest.fixture
def started(make, tmp_path):
    def start(**kwargs):
        server = make(socket_path=tmp_path / "s.sock", **kwargs)
        server.start()
        return server

    return start


@pytest.fixture
def wire(started):
    wires = []

    def connect(server=None, **kwargs):
        wires.append(Wire(server if server is not None else started(**kwargs)))
        return wires[-1]

    yield connect
    for client in wires:
        client.close()


class TestTransport:
    def test_exactly_one_transport(self, make, tmp_path):
        with pytest.raises(DaemonError, match="exactly one transport"):
            make()
        with pytest.raises(DaemonError, match="exactly one transport"):
            make(socket_path=tmp_path / "s.sock", host="127.0.0.1", port=0)

    def test_tcp_needs_a_port(self, make):
        with pytest.raises(DaemonError, match="needs a port"):
            make(host="127.0.0.1")

    def test_non_loopback_bind_without_token_is_refused(self, make):
        refused = make(host="0.0.0.0", port=0)
        with pytest.raises(DaemonError, match="non-loopback") as error:
            refused.start()
        assert f"({refused.COMMAND} --auth-token-file)" in str(error.value)

    def test_non_loopback_bind_starts_with_token_or_insecure(self, make):
        for kwargs in ({"auth_token": "sesame"}, {"insecure": True}):
            server = make(host="0.0.0.0", port=0, **kwargs)
            server.start()
            assert server.address.startswith("tcp:0.0.0.0:")

    def test_loopback_tcp_serves_without_a_token(self, make, wire):
        server = make(host="127.0.0.1", port=0)
        server.start()
        assert server.address.startswith("tcp:127.0.0.1:")
        response = wire(server).roundtrip({"op": "ping"})
        assert response["ok"] is True
        assert response["protocol"] == server.PROTOCOL
        assert isinstance(response["pid"], int)


class TestSocketFile:
    def test_stale_socket_file_is_bound_over(self, wire, tmp_path):
        stale = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        stale.bind(str(tmp_path / "s.sock"))
        stale.close()  # no listener behind the file: a dead server's leftovers
        assert wire().roundtrip({"op": "ping"})["ok"] is True

    def test_live_socket_is_not_hijacked(self, started, make, wire, tmp_path):
        live = started()
        second = make(socket_path=tmp_path / "s.sock")
        with pytest.raises(DaemonError, match="already serving") as error:
            second.start()
        assert str(error.value).startswith(f"a {live.SERVER_NAME} is already")
        second.stop()  # a refused server leaves the live address alone
        assert wire(live).roundtrip({"op": "ping"})["ok"] is True


class TestErrorModel:
    def test_ping_carries_protocol_and_pid(self, started, wire):
        server = started()
        response = wire(server).roundtrip({"op": "ping"})
        assert response["ok"] is True and response["op"] == "ping"
        assert response["protocol"] == server.PROTOCOL
        assert response["pid"] == os.getpid()

    def test_malformed_frames_keep_the_connection_open(self, wire):
        client = wire()
        for raw in ("this is not JSON", '["not", "an", "object"]'):
            response = client.send_raw(raw)
            assert response["ok"] is False
            assert response["error"].startswith("malformed frame: ")
        assert client.roundtrip({"op": "ping"})["ok"] is True

    def test_unknown_op(self, started, wire):
        server = started()
        client = wire(server)
        for op in ("bogus", ["not", "hashable"]):
            assert client.roundtrip({"op": op}) == {
                "ok": False,
                "protocol": server.PROTOCOL,
                "error": f"unknown op {op!r}",
            }

    def test_frame_over_the_limit_closes_only_that_connection(
        self, started, wire, monkeypatch
    ):
        monkeypatch.setattr(framed, "MAX_FRAME_CHARS", 64)
        server = started()
        client = wire(server)
        at_limit = json.dumps({"op": "ping", "pad": ""})
        at_limit = json.dumps({"op": "ping", "pad": "x" * (64 - len(at_limit))})
        assert len(at_limit) == 64 and client.send_raw(at_limit)["ok"] is True
        response = client.send_raw(json.dumps({"op": "ping", "pad": "x" * 200}))
        assert response["ok"] is False
        assert response["error"].startswith("frame too large: ")
        assert client.at_eof()
        assert wire(server).roundtrip({"op": "ping"})["ok"] is True


class TestAuth:
    def test_only_ping_and_auth_are_unauthenticated(self, started, wire):
        server = started(auth_token="sesame")
        client = wire(server)
        assert client.roundtrip({"op": "ping"})["ok"] is True
        for op in sorted(set(server.OPS) - {"ping", "auth"}) + ["bogus"]:
            response = client.roundtrip({"op": op})
            assert response["ok"] is False
            assert response["error"].startswith("authentication required")

    def test_bad_token_is_an_error_frame_not_a_hangup(self, wire):
        client = wire(auth_token="sesame")
        response = client.roundtrip({"op": "auth", "token": "wrong"})
        assert response["error"] == "auth failed: bad token"
        response = client.roundtrip({"op": "auth", "token": 42})
        assert response["error"] == "auth needs a string 'token'"
        denied = client.roundtrip({"op": "stats"})
        assert denied["error"].startswith("authentication required")
        # Still connected: the same connection authenticates and proceeds.
        granted = client.roundtrip({"op": "auth", "token": "sesame"})
        assert granted["authenticated"] is True
        assert client.roundtrip({"op": "stats"})["ok"] is True

    def test_auth_is_per_connection(self, started, wire):
        server = started(auth_token="sesame")
        first, second = wire(server), wire(server)
        assert first.roundtrip({"op": "auth", "token": "sesame"})["ok"] is True
        assert first.roundtrip({"op": "stats"})["ok"] is True
        denied = second.roundtrip({"op": "stats"})
        assert denied["error"].startswith("authentication required")

    def test_auth_without_a_configured_token_is_a_noop(self, wire):
        response = wire().roundtrip({"op": "auth", "token": "anything"})
        assert response["authenticated"] is True


def test_shutdown_op_stops_the_server(started, wire, tmp_path):
    server = started()
    waiter = threading.Thread(target=server.serve_forever, daemon=True)
    waiter.start()
    client = wire(server)
    assert client.roundtrip({"op": "shutdown"})["shutting_down"] is True
    assert client.at_eof()
    waiter.join(timeout=10.0)
    assert not waiter.is_alive(), "serve_forever did not return"
    assert not (tmp_path / "s.sock").exists()
    server.stop()  # idempotent


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_stop_wakes_the_accept_loop(make, tmp_path, transport):
    """stop() interrupts the blocked accept() rather than waiting it out.

    Best of three, so one descheduled run on a busy machine does not
    fail the bound; a poll-based accept loop misses it every time.
    """
    elapsed = []
    for attempt in range(3):
        if transport == "unix":
            server = make(socket_path=tmp_path / f"s{attempt}.sock")
        else:
            server = make(host="127.0.0.1", port=0)
        server.start()
        time.sleep(0.05)  # the accept thread is now blocked in accept()
        began = time.perf_counter()
        server.stop()
        elapsed.append(time.perf_counter() - began)
    assert min(elapsed) < 0.05, elapsed
