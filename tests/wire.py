"""Raw-socket test peers for the framed JSON protocols.

:class:`Wire` speaks newline-delimited JSON by hand, so tests can assert
error frames verbatim where a :class:`~repro.service.daemon.DaemonClient`
would raise.  :class:`ReplyServer` is the other side: a server that
answers every request line with one fixed reply, so tests can feed a
client responses no real server would send.
"""

from __future__ import annotations

import json
import socket
import threading


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


class ReplyServer:
    """A loopback TCP server answering every request line with ``reply``.

    Connections are served one at a time; :attr:`connections` counts the
    ones accepted so far.
    """

    def __init__(self, reply: str) -> None:
        self._reply = (reply + "\n").encode("utf-8")
        self._sock = socket.create_server(("127.0.0.1", 0))
        self._sock.settimeout(0.05)
        self.address = f"tcp:127.0.0.1:{self._sock.getsockname()[1]}"
        self.connections = 0
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._sock.accept()
            except TimeoutError:
                continue
            self.connections += 1
            connection.settimeout(10.0)
            try:
                with connection, connection.makefile("rb") as reader:
                    while reader.readline():
                        connection.sendall(self._reply)
            except OSError:
                pass  # the client hung up mid-reply

    def close(self) -> None:
        self._stopping.set()
        self._thread.join(timeout=10.0)
        self._sock.close()
