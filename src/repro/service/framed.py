"""The framed-socket server skeleton shared by the daemon and the cache server.

``repro serve`` (:class:`~repro.service.daemon.MatchingDaemon`) and
``repro cache-server`` (:class:`~repro.cachenet.server.CacheServer`)
speak the same wire shape: newline-delimited JSON request/response frames
over a Unix or TCP socket, every response stamped with ``ok`` and the
server's ``protocol``, errors answered with an error frame instead of a
hang-up.  :class:`FramedServer` owns all of that once — transport checks,
the stale-socket probe, bind/listen, the accept thread, the per-connection
read loop (with its frame-size bound), the shared-secret ``auth``
handshake and the ``ping``/``shutdown`` ops — and a concrete server is an
``OPS`` table plus its own handlers.

The op-table contract: ``OPS`` is a class-level dict literal mapping every
op string the server serves (``ping``/``auth``/``shutdown`` included) to a
handler ``handler(self, frame, session) -> dict | None``.  A returned dict
is sent as the response frame; a handler may also write frames of its own
through ``session.writer`` first (the daemon's streaming ``events`` op
does), and returns ``None`` once it has answered in full.  The
``drift-protocol-ops`` lint rule reads the table's keys, so the dict
literal *is* the documented op set.
"""

from __future__ import annotations

import hmac
import ipaddress
import json
import os
import socket
import threading
import time
from pathlib import Path

from repro.exceptions import DaemonError

__all__ = ["MAX_FRAME_CHARS", "FramedServer", "Session"]

#: Longest request line (excluding its newline) a server reads.  Far above
#: the largest frame any repro client sends (a fleet ``records``
#: pre-seed submit); a longer line gets one ``frame too large`` error frame
#: and the connection is closed, since there is no frame boundary to
#: resynchronise on mid-line.  ``DaemonClient`` bounds response lines the
#: same way.
MAX_FRAME_CHARS = 64 * 2**20

#: Ops served before the ``auth`` handshake: liveness and the version
#: handshake must work before the token exchange.
_UNAUTHENTICATED_OPS = ("ping", "auth")


def _is_loopback(host: str) -> bool:
    """Whether a bind/connect host is loopback-only.

    Hostnames other than ``localhost`` are treated as non-loopback: a
    server asked to bind a *name* may end up on a routable interface, so
    the auth requirement errs on the side of demanding a token.
    """
    if host == "localhost":
        return True
    try:
        return ipaddress.ip_address(host).is_loopback
    except ValueError:
        return False


class Session:
    """One client connection's state, owned by its handler thread.

    Attributes:
        writer: the connection's text writer (for handlers that stream).
        authenticated: starts True only when the server has no token; the
            ``auth`` op upgrades it for this connection alone.
        open: cleared by a handler to close the connection after its reply.
    """

    __slots__ = ("writer", "authenticated", "open")

    def __init__(self, writer, authenticated: bool) -> None:
        self.writer = writer
        self.authenticated = authenticated
        self.open = True


class FramedServer:
    """A newline-delimited JSON socket server dispatching through ``OPS``.

    Subclasses set :attr:`PROTOCOL`, :attr:`SERVER_NAME`, :attr:`COMMAND`
    and :attr:`OPS`, and may override :meth:`_on_start` / :meth:`_on_stop`
    for their own lifecycle.

    Args:
        socket_path: serve on a Unix socket at this path...
        host, port: ...or on TCP (``port=0`` picks a free port; the bound
            address is :attr:`address`).  Exactly one transport.
        auth_token: shared secret clients must present via the ``auth``
            op before any op other than ``ping``/``auth``.  Required for a
            non-loopback TCP bind (the server refuses to start without one
            unless ``insecure`` is set); optional elsewhere.
        insecure: allow a non-loopback TCP bind with no auth token — an
            explicit opt-out for trusted networks, never the default.
    """

    #: Wire-protocol version stamped on every response frame.
    PROTOCOL: str
    #: How error messages name the server ("daemon", "cache server").
    SERVER_NAME: str
    #: The CLI command that starts the server, for the refusal hint.
    COMMAND: str
    #: Op string -> handler; see the module docstring for the contract.
    OPS: dict

    def __init__(
        self,
        *,
        socket_path: str | Path | None = None,
        host: str | None = None,
        port: int | None = None,
        auth_token: str | None = None,
        insecure: bool = False,
    ) -> None:
        if (socket_path is None) == (host is None):
            raise DaemonError(
                "choose exactly one transport: socket_path=... or host=/port="
            )
        if host is not None and port is None:
            raise DaemonError(
                f"a TCP {self.SERVER_NAME} needs a port (0 picks one)"
            )
        self._socket_path = Path(socket_path) if socket_path is not None else None
        self._host = host
        self._port = port
        self._auth_token = auth_token
        self._insecure = insecure
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._connections: set[socket.socket] = set()
        self._connections_lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._started_at: float | None = None

    # -- lifecycle -------------------------------------------------------------
    @property
    def address(self) -> str:
        """The bound address: ``unix:<path>`` or ``tcp:<host>:<port>``."""
        if self._socket_path is not None:
            return f"unix:{self._socket_path}"
        return f"tcp:{self._host}:{self._port}"

    @property
    def _thread_prefix(self) -> str:
        # "repro-daemon/v1" -> "repro-daemon": thread names match the wire.
        return self.PROTOCOL.partition("/")[0]

    def start(self) -> None:
        """Bind the socket, run :meth:`_on_start`, start the accept thread."""
        if self._listener is not None:
            raise DaemonError(f"{self.SERVER_NAME} already started")
        if (
            self._host is not None
            and not _is_loopback(self._host)
            and self._auth_token is None
            and not self._insecure
        ):
            raise DaemonError(
                f"refusing to serve on non-loopback address {self._host!r} "
                "without an auth token; pass auth_token=... "
                f"({self.COMMAND} --auth-token-file) or insecure=True "
                "(--insecure) to opt out explicitly"
            )
        if self._socket_path is not None:
            if self._socket_path.exists():
                # A *stale* socket file (the previous server died) is safe
                # to unlink and bind over; a *live* one is not — silently
                # hijacking a serving address would strand that server.
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.settimeout(1.0)
                    probe.connect(str(self._socket_path))
                except OSError:
                    self._socket_path.unlink()
                else:
                    raise DaemonError(
                        f"a {self.SERVER_NAME} is already serving on "
                        f"{self._socket_path}"
                    )
                finally:
                    probe.close()
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(str(self._socket_path))
        else:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            self._port = listener.getsockname()[1]
        listener.listen()
        self._listener = listener
        self._started_at = time.monotonic()
        self._on_start()
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"{self._thread_prefix}-accept",
            daemon=True,
        )
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Start (if needed) and block until the server is stopped."""
        if self._listener is None:
            self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.stop()

    def stop(self) -> None:
        """Shut down: run :meth:`_on_stop`, close the listener and connections.

        Safe to call from a client-handler thread (the ``shutdown`` op
        does) and idempotent.
        """
        if self._stopping.is_set():
            self._stopped.wait()
            return
        self._stopping.set()
        self._on_stop()
        if self._listener is not None:
            # Wakes the accept loop's blocking accept() with an OSError.
            self._listener.shutdown(socket.SHUT_RDWR)
        if self._accept_thread is not None:
            self._accept_thread.join()
        if self._listener is not None:
            self._listener.close()
            # Only a bound server owns its socket file; one whose start()
            # was refused must not unlink a live server's address.
            if self._socket_path is not None and self._socket_path.exists():
                self._socket_path.unlink()
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            connection.close()
        self._stopped.set()

    def _on_start(self) -> None:
        """Hook: runs once the socket is bound, before the first accept."""

    def _on_stop(self) -> None:
        """Hook: runs first in :meth:`stop`, while sockets are still open."""

    # -- socket plumbing -------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                connection, _ = self._listener.accept()
            except OSError:
                break
            with self._connections_lock:
                self._connections.add(connection)
            threading.Thread(
                target=self._serve_connection,
                args=(connection,),
                name=f"{self._thread_prefix}-client",
                daemon=True,
            ).start()

    def _serve_connection(self, connection: socket.socket) -> None:
        reader = connection.makefile("r", encoding="utf-8")
        writer = connection.makefile("w", encoding="utf-8")
        session = Session(writer, authenticated=self._auth_token is None)
        try:
            while session.open and not self._stopping.is_set():
                line = reader.readline(MAX_FRAME_CHARS + 1)
                if not line:
                    break
                if len(line) > MAX_FRAME_CHARS and not line.endswith("\n"):
                    self._send(writer, self._error(
                        f"frame too large: request lines are capped at "
                        f"{MAX_FRAME_CHARS} characters"
                    ))
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    frame = json.loads(line)
                    if not isinstance(frame, dict):
                        raise ValueError("frame must be a JSON object")
                except ValueError as error:
                    self._send(writer, self._error(f"malformed frame: {error}"))
                    continue
                response = self._dispatch(frame, session)
                if response is not None:
                    self._send(writer, response)
        except OSError:
            # Client went away mid-write (or the server is closing the
            # socket under us); nothing to clean up beyond the handles.
            pass
        finally:
            with self._connections_lock:
                self._connections.discard(connection)
            for handle in (reader, writer, connection):
                try:
                    handle.close()
                except OSError:
                    pass

    @staticmethod
    def _send(writer, frame: dict) -> None:
        writer.write(json.dumps(frame) + "\n")
        writer.flush()

    def _error(self, message: str) -> dict:
        return {"ok": False, "protocol": self.PROTOCOL, "error": message}

    def _ok(self, **fields) -> dict:
        frame = {"ok": True, "protocol": self.PROTOCOL}
        frame.update(fields)
        return frame

    def _dispatch(self, frame: dict, session: Session) -> dict | None:
        """Route one request frame through :attr:`OPS`; returns the reply."""
        op = frame.get("op")
        if not session.authenticated and op not in _UNAUTHENTICATED_OPS:
            return self._error(
                'authentication required: send {"op": "auth", "token": ...} first'
            )
        handler = self.OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            return self._error(f"unknown op {op!r}")
        return handler(self, frame, session)

    # -- the shared ops --------------------------------------------------------
    def _handle_ping(self, frame: dict, session: Session) -> dict:
        return self._ok(op="ping", pid=os.getpid())

    def _handle_auth(self, frame: dict, session: Session) -> dict:
        """The shared-secret handshake; constant-time token comparison."""
        if self._auth_token is None:
            return self._ok(op="auth", authenticated=True)
        token = frame.get("token")
        if not isinstance(token, str):
            return self._error("auth needs a string 'token'")
        if not hmac.compare_digest(
            token.encode("utf-8"), self._auth_token.encode("utf-8")
        ):
            # An error frame, not a hang-up: the protocol promise that
            # errors never close the connection holds for auth too.
            return self._error("auth failed: bad token")
        session.authenticated = True
        return self._ok(op="auth", authenticated=True)

    def _handle_shutdown(self, frame: dict, session: Session) -> None:
        # Answer first, then stop from a fresh thread: stop() joins the
        # accept thread and closes handler sockets, and this handler must
        # return so its own connection can be torn down.
        self._send(session.writer, self._ok(op="shutdown", shutting_down=True))
        session.open = False
        threading.Thread(
            target=self.stop, name=f"{self._thread_prefix}-shutdown", daemon=True
        ).start()
