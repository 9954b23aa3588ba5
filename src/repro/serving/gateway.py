"""The asyncio serving gateway: the engine's one TCP front end.

A private-inference client spends most of a session in *think-time* --
decrypting the blinded layer outputs, running the garbled-circuit
stage, re-encrypting the next activations -- so a server that parks a
thread per connection caps how many clients can connect and starves the
cross-client batcher (threads reach the engine staggered by think-time
instead of together).

:class:`AsyncGateway` decouples connections from threads.  All
connections multiplex onto one ``asyncio`` event loop (running in a
background thread, so callers see a synchronous ``start()``/``stop()``
surface); a thread from the small executor pool is occupied only while
the engine is actually computing a reply (``run_in_executor``).
Concurrent requests therefore reach
:class:`~repro.serving.engine.ServingEngine` together and meet in its
``_LayerBatcher`` -- the event-driven batch window (flush on a full
batch, the fixed 20 ms window, or an idle gap) sees full same-layer
stacks instead of think-time-staggered stragglers.

Everything below the front end is untouched: same wire frames, same
engine, same executors -- which is what lets the differential
conformance suite pin the gateway to bit-identical logits and HE op
counters against every other execution path.

The gateway speaks two protocols on one port, distinguished by the
first four bytes of a connection: the native length-prefixed wire
protocol, and a one-shot ``GET /metrics`` HTTP scrape (``b"GET "`` can
never open a wire frame -- read as a length prefix it decodes to ~0.5
GiB, far past any sane frame cap).  Backpressure is layered: the engine's
admission controller enforces tenant quotas and queue bounds, and the
gateway itself sheds ``linear`` load in the event loop -- before
spending an executor thread -- once ``queue_limit`` rounds are in
flight.
"""

from __future__ import annotations

import asyncio
import logging
import struct
import threading
from concurrent.futures import ThreadPoolExecutor

from .admission import DEFAULT_RETRY_AFTER_S, busy_message
from .metrics import render_http
from .tracing import NULL_TRACER
from .wire import (
    MAX_FRAME_BYTES,
    TRACE_META_KEY,
    Message,
    decode_message,
    encode_message,
    error_message,
)

logger = logging.getLogger(__name__)

_LEN = struct.Struct("<I")

#: Request kinds the gateway may refuse with ``busy`` under load.  Only
#: the HE-heavy data-plane round is sheddable; control-plane kinds
#: (``hello``, ``galois_keys``, ``close``, ``metrics``, ``admin``) always
#: get through -- an operator must be able to reach (and drain, and
#: upgrade) a server precisely when it is saturated.
SHEDDABLE_KINDS = frozenset({"linear"})

#: How long ``stop()`` waits for in-flight requests to get their replies.
_DRAIN_TIMEOUT_S = 30.0
#: Period of the idle-session TTL sweep (shortened to the TTL itself
#: when that is smaller).
_SESSION_SWEEP_INTERVAL_S = 1.0


class AsyncGateway:
    """Event-driven TCP front end for a :class:`ServingEngine`.

    Synchronous surface for callers (CLI, benchmarks, tests): ``start``,
    ``stop``, ``host``/``port``, context manager.
    """

    def __init__(
        self,
        engine,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_threads: int = 16,
        queue_limit: int | None = None,
        max_frame_bytes: int | None = None,
    ):
        self.engine = engine
        self.host = host
        self.port = port  # rewritten to the bound port after start()
        self.executor_threads = max(1, int(executor_threads))
        #: In-flight bound for ``linear`` rounds; beyond it the gateway
        #: replies ``busy`` from the event loop.  ``0`` disables.
        self.queue_limit = (
            2 * self.executor_threads if queue_limit is None else int(queue_limit)
        )
        self.max_frame_bytes = (
            MAX_FRAME_BYTES if max_frame_bytes is None else int(max_frame_bytes)
        )
        self.metrics = getattr(engine, "metrics", None)
        #: Request tracer, shared with the engine: the gateway owns each
        #: request's root span, the engine hangs its ``handle`` span off it.
        self.tracer = getattr(engine, "tracer", None) or NULL_TRACER
        self._executor = ThreadPoolExecutor(
            max_workers=self.executor_threads, thread_name_prefix="repro-gateway"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self._sweep_task: asyncio.Task | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._stopping = False
        self._stopped = False
        # Loop-confined state: mutated only on the event-loop thread, so
        # no lock -- gauges read racily (a stale int is fine for metrics).
        self._inflight = 0
        #: Set when ``_inflight`` returns to zero: what a drain waits on.
        self._drained = asyncio.Event()
        self._writers: set[asyncio.StreamWriter] = set()
        #: Linear rounds refused because ``queue_limit`` was reached.
        self.busy_rejections = 0
        if self.metrics is not None:
            self.metrics.add_gauge("gateway_queue_depth", lambda: self._inflight)
            self.metrics.add_gauge("gateway_connections", lambda: len(self._writers))
            self.metrics.add_gauge(
                "gateway_busy_rejections", lambda: self.busy_rejections
            )

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "AsyncGateway":
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            raise self._startup_error
        if not self._ready.is_set():  # pragma: no cover - defensive
            raise RuntimeError("gateway event loop failed to start")
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._startup())
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    async def _startup(self) -> None:
        self._server = await asyncio.start_server(
            self._serve_connection, self.host, self.port
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if getattr(self.engine, "session_ttl_s", None) is not None:
            self._sweep_task = asyncio.get_running_loop().create_task(
                self._sweep_sessions()
            )

    async def _sweep_sessions(self) -> None:
        """Periodic idle-session TTL sweep (the engine's is lazy)."""
        interval = min(
            _SESSION_SWEEP_INTERVAL_S, float(self.engine.session_ttl_s)
        )
        while True:
            await asyncio.sleep(max(interval, 0.01))
            try:
                self.engine.evict_idle_sessions()
            except Exception:  # pragma: no cover - defensive
                logger.exception("idle-session sweep failed")

    def stop(self) -> None:
        """Stop accepting, drain in-flight requests, then tear down."""
        if self._thread is None or self._stopped:
            return
        self._stopped = True
        if self._startup_error is None and self._loop is not None:
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
            try:
                future.result(timeout=_DRAIN_TIMEOUT_S + 15)
            except Exception:  # pragma: no cover - defensive
                logger.exception("gateway shutdown raised")
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=15)
        self._executor.shutdown(wait=True, cancel_futures=True)

    async def _shutdown(self) -> None:
        self._stopping = True
        if self._sweep_task is not None:
            self._sweep_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Drain: requests already dispatched to the executor get their
        # replies written before their connections are closed.  The
        # in-flight counter and the reply write happen in the same
        # scheduling slice (no await between them), and setting the event
        # only schedules this waiter, so waking here means every reply is
        # at least in the transport buffer.
        if self._inflight:
            self._drained.clear()
            try:
                await asyncio.wait_for(self._drained.wait(), _DRAIN_TIMEOUT_S)
            except TimeoutError:
                pass  # past the drain budget: close the stragglers anyway
        for writer in list(self._writers):
            writer.close()

    def __enter__(self) -> "AsyncGateway":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    # -- connection handling -------------------------------------------------

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while not self._stopping:
                try:
                    prefix = await reader.readexactly(4)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                if prefix == b"GET ":
                    await self._serve_http(reader, writer)
                    return
                (length,) = _LEN.unpack(prefix)
                if length > self.max_frame_bytes:
                    # Oversized claim in the length prefix: drop the
                    # connection before a single body byte is buffered.
                    logger.warning(
                        "dropping connection claiming a %d-byte frame "
                        "(cap %d)", length, self.max_frame_bytes,
                    )
                    return
                try:
                    payload = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    return
                reply = await self._dispatch(payload)
                writer.write(_LEN.pack(len(reply)) + reply)
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    return
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, payload: bytes) -> bytes:
        try:
            request = decode_message(payload)
        except ValueError as exc:
            return encode_message(error_message(f"bad frame: {exc}"))
        span = self.tracer.accept("request", request.meta, kind=request.kind)
        if (
            self.queue_limit
            and request.kind in SHEDDABLE_KINDS
            and self._inflight >= self.queue_limit
        ):
            # Load shedding in the event loop: the refusal costs no
            # executor thread and no engine work.
            self.busy_rejections += 1
            reply = busy_message(DEFAULT_RETRY_AFTER_S, "gateway job queue full")
            if self.metrics is not None:
                self.metrics.record_request(request.kind, 0.0, reply.kind)
        else:
            self._inflight += 1
            try:
                reply = await asyncio.get_running_loop().run_in_executor(
                    self._executor, self._handle, request
                )
            finally:
                self._inflight -= 1
                if not self._inflight:
                    self._drained.set()
        span.set(outcome=reply.kind).finish()
        if span.trace_id is not None:
            # The engine echoes the id on the replies it builds; this
            # covers the ones it does not (busy, internal error, unknown
            # kind), so every reply to a traced request names its trace.
            reply.meta.setdefault(TRACE_META_KEY, {"trace_id": span.trace_id})
        return encode_message(reply)

    def _handle(self, request: Message) -> Message:
        try:
            return self.engine.handle(request)
        except Exception as exc:  # keep the connection alive
            logger.exception("engine raised handling %r", request.kind)
            return error_message(f"internal error: {exc}")

    # -- the HTTP surface (/metrics, /healthz) -------------------------------

    async def _serve_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One-shot HTTP GET on the wire port (``curl :port/metrics``).

        The ``b"GET "`` prefix was already consumed by the sniffer, so
        the stream resumes at the request target.  Routing (``/metrics``
        JSON, ``/metrics?format=prometheus``, ``/healthz``) lives in
        :func:`~repro.serving.metrics.render_http`.
        """
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5.0
            )
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            TimeoutError,
            ConnectionError,
            OSError,
        ):
            return
        target = head.split(b" ", 1)[0].decode("latin-1")
        status, content_type, body = render_http(target, self.engine, self.metrics)
        writer.write(
            (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
            + body
        )
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass
