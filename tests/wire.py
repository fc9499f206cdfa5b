"""A raw-socket test client for the framed JSON servers.

Speaks newline-delimited JSON by hand, so tests can assert error frames
verbatim where a :class:`~repro.service.daemon.DaemonClient` would raise.
"""

from __future__ import annotations

import json
import socket


class Wire:
    """A raw-socket client speaking one JSON frame per line."""

    def __init__(self, server) -> None:
        kind, _, rest = server.address.partition(":")
        if kind == "unix":
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(10.0)
            self._sock.connect(rest)
        else:
            host, _, port = rest.rpartition(":")
            self._sock = socket.create_connection((host, int(port)), timeout=10.0)
        self._reader = self._sock.makefile("r", encoding="utf-8")

    def send_raw(self, line: str) -> dict:
        self._sock.sendall((line + "\n").encode("utf-8"))
        response = self._reader.readline()
        assert response, "server hung up"
        return json.loads(response)

    def roundtrip(self, frame: dict) -> dict:
        return self.send_raw(json.dumps(frame))

    def at_eof(self) -> bool:
        return self._reader.readline() == ""

    def close(self) -> None:
        self._reader.close()
        self._sock.close()
