"""Client transports: in-process loopback and a persistent TCP connection.

Both move the exact frames of :mod:`repro.serving.wire`.  The loopback
transport is the test/bench harness -- it still encodes and decodes every
frame, so anything it carries would survive a real network.
:class:`SocketTransport` is the client half of the production shape: one
persistent connection per client session to the server's one TCP front
end, :class:`~repro.serving.gateway.AsyncGateway`.
"""

from __future__ import annotations

import errno
import logging
import random
import socket
import threading
import time
from typing import Protocol

from .engine import ServingEngine
from .wire import Message, decode_message, encode_message, recv_frame, send_frame

logger = logging.getLogger(__name__)


def bind_listener(host: str, port: int, attempts: int = 5) -> socket.socket:
    """Bind a listening socket, retrying the ephemeral-port race.

    Ephemeral binds (port 0) retry the rare EADDRINUSE race (an
    exhausted ephemeral range on a busy host); an explicit port is the
    operator's claim and fails immediately.  Every server in the repo
    -- and the test suite, via ``tests/conftest.py`` -- binds through
    this helper, so no test ever needs a fixed port or a sleep.
    """
    for attempt in range(attempts):
        try:
            return socket.create_server((host, port))
        except OSError as exc:  # pragma: no cover - needs port exhaustion
            if (
                port != 0
                or exc.errno != errno.EADDRINUSE
                or attempt == attempts - 1
            ):
                raise
    raise OSError("unreachable")  # pragma: no cover


class Transport(Protocol):
    """Anything a :class:`~repro.serving.session.ClientSession` can drive."""

    def request(self, message: Message) -> Message:
        """Send one request frame and block for its reply frame."""
        ...


class LoopbackTransport:
    """Drive a :class:`ServingEngine` in process, through the wire format.

    Every request and reply round-trips ``encode_message`` /
    ``decode_message``, so serialization bugs surface in unit tests
    without sockets; concurrency still works (call ``request`` from many
    threads to exercise cross-client batching).
    """

    def __init__(self, engine: ServingEngine):
        self.engine = engine

    def request(self, message: Message) -> Message:
        reply = self.engine.handle(decode_message(encode_message(message)))
        return decode_message(encode_message(reply))


class SocketTransport:
    """Client side of the TCP transport: one persistent framed connection.

    The transport is *resilient*: ``timeout`` bounds every read (a
    server that accepts and then dies mid-frame cannot hang the client
    forever), and a failed round -- connection refused, reset, dropped,
    or a corrupted reply frame -- is retried up to ``max_retries`` times
    over a fresh connection with exponential backoff plus jitter.  The
    retry re-issues the *exact* request bytes: protocol rounds are
    deterministic functions of session state, so a replay is
    bit-identical, and the serving engine treats a re-sent round
    idempotently (the session state a ``linear`` round reads is not
    advanced by serving it).

    ``socket_factory`` is the fault-injection seam: anything with the
    ``create_connection(address, timeout)`` shape (see
    :meth:`repro.serving.faults.ConnectionFaults.connect`).
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float | None = 60.0,
        connect_timeout_s: float | None = None,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_max_s: float = 2.0,
        retry_jitter_seed: int | None = None,
        socket_factory=None,
        max_frame_bytes: int | None = None,
    ):
        self._address = (host, port)
        self._timeout = timeout
        #: Reply-frame size cap (``None`` = the wire module default).
        self.max_frame_bytes = max_frame_bytes
        self._connect_timeout_s = (
            timeout if connect_timeout_s is None else connect_timeout_s
        )
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_max_s = float(backoff_max_s)
        self._rng = random.Random(retry_jitter_seed)
        self._factory = (
            socket.create_connection if socket_factory is None
            else socket_factory
        )
        self._lock = threading.Lock()
        self._sock: socket.socket | None = None
        #: Lifetime count of retried rounds (reconnect + replay).
        self.retries = 0
        self._sock = self._connect()

    def _connect(self) -> socket.socket:
        """Open one configured connection; never leaks a half-open socket."""
        sock = self._factory(self._address, timeout=self._connect_timeout_s)
        try:
            # The connect timeout did its job; from here on the socket
            # timeout is the per-read bound.
            sock.settimeout(self._timeout)
        except BaseException:
            sock.close()
            raise
        return sock

    def request(self, message: Message) -> Message:
        payload = encode_message(message)
        with self._lock:
            last_error: Exception | None = None
            for attempt in range(self.max_retries + 1):
                if attempt:
                    self._backoff(attempt)
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    send_frame(self._sock, payload)
                    reply = recv_frame(self._sock, self.max_frame_bytes)
                    if reply is None:
                        raise ConnectionError("server closed the connection")
                    return decode_message(reply)
                except (OSError, ValueError, ConnectionError) as exc:
                    # OSError covers resets/timeouts/refused connections;
                    # ValueError covers corrupted or truncated frames.
                    # Either way the stream is unusable: drop it and
                    # replay the round over a fresh connection.
                    last_error = exc
                    if self._sock is not None:
                        try:
                            self._sock.close()
                        except OSError:
                            pass
                        self._sock = None
                    if attempt < self.max_retries:
                        self.retries += 1
                        logger.warning(
                            "transport round failed (%s: %s); retrying "
                            "(%d/%d)", type(exc).__name__, exc, attempt + 1,
                            self.max_retries,
                        )
            raise ConnectionError(
                f"request failed after {self.max_retries + 1} attempt(s): "
                f"{type(last_error).__name__}: {last_error}"
            ) from last_error

    def _backoff(self, attempt: int) -> None:
        delay = min(
            self.backoff_max_s, self.backoff_base_s * (2 ** (attempt - 1))
        )
        # Full jitter in [0.5, 1.5)x keeps reconnect stampedes apart.
        time.sleep(delay * (0.5 + self._rng.random()))

    def close(self) -> None:
        with self._lock:
            if self._sock is None:
                return
            try:
                self._sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def one_shot_request(
    host: str,
    port: int,
    message: Message,
    timeout: float | None = 30.0,
    max_retries: int = 0,
) -> Message:
    """Send one message over a fresh connection and return the reply.

    The control-plane shape (``repro admin``, health probes): no session
    to keep warm, so the connection is opened, used for one round, and
    closed.  Retries default to off -- an admin action such as
    ``reload-zoo`` is *not* a blind replay-safe round from the
    operator's point of view (it may have applied before the reply was
    lost), so the caller decides whether to retry.
    """
    with SocketTransport(
        host, port, timeout=timeout, max_retries=max_retries
    ) as transport:
        return transport.request(message)
