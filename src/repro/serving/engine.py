"""The serving engine: sessions, per-layer cross-client batching, blinding.

The cloud side of the wire protocol.  A :class:`ServingEngine` owns a
:class:`~repro.serving.registry.ModelRegistry` and processes
:class:`~repro.serving.wire.Message` requests from any number of
transports/worker threads:

``hello``
    Parameter handshake.  The client's parameter description must match
    the model's exactly (plans and mask encodings are parameter-bound);
    a mismatch is rejected with a reason instead of producing garbage
    ciphertexts later.  The reply carries the model's rotation-step set
    so the client generates exactly the Galois keys the compiled plans
    need.
``galois_keys``
    One-time per-session key upload (the Gazelle setup transmission).
``linear``
    One protocol round: the client's freshly encrypted activations in,
    the blinded layer outputs plus the dense mask block out.

Every linear round goes through the :class:`_LayerBatcher` of its
``(model, layer)``, which merges requests pending together -- at most
``max_batch`` of them -- into a single
:meth:`~repro.scheduling.plan.LinearPlan.execute_batch` call, so the HE
work of ``B`` clients rides the batched ``(k, B, n)`` NTT path of
:class:`~repro.bfv.ntt_batch.RnsNttEngine` -- the serving-side analogue
of the paper's on-chip batching discipline.  Each client still key-
switches under its own Galois keys and is blinded with its own mask;
outputs are bit-identical to serial execution.

Per-session traffic is tallied with
:class:`~repro.protocol.messages.TrafficLog` (blob bytes, per-layer
labels, round counts), matching the accounting of the in-process
:class:`~repro.protocol.gazelle.GazelleProtocol`.
"""

from __future__ import annotations

import functools
import hmac
import logging
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..bfv.counters import GLOBAL_COUNTERS
from ..bfv.serialize import deserialize_ciphertext, deserialize_galois_keys, serialize_ciphertext
from ..protocol.gazelle import blind_ciphertext_rows
from ..protocol.messages import TrafficLog
from ..scheduling.layouts import linear_output_view
from .admission import busy_message
from .registry import ModelEntry, ModelRegistry
from .tracing import NULL_TRACER
from .wire import TRACE_META_KEY, Message, error_message

logger = logging.getLogger(__name__)


class SessionState(Enum):
    """Explicit per-session protocol state.

    The lifecycle is ``AWAIT_KEYS -> READY`` (``close`` removes the
    session from the table entirely, so there is no terminal state to
    represent).  ``galois_keys`` is accepted in *either* state -- a
    re-upload in ``READY`` replaces the key handle idempotently, which is
    what makes the transport's replay-on-reconnect safe -- while
    ``linear`` requires ``READY``.  Because the state lives on the
    session (keyed by id in the engine) and not on a connection or a
    thread, a session survives its transport: a client may reconnect
    mid-inference.
    """

    AWAIT_KEYS = "await_keys"
    READY = "ready"


@dataclass
class _Session:
    """Per-client serving state: model binding, keys, traffic tally.

    ``galois_keys`` holds whatever the engine's execution backend
    returned from ``prepare_keys`` -- the deserialized
    :class:`~repro.bfv.keys.GaloisKeys` for in-process execution, or an
    opaque per-session handle for remote/sharded backends.
    ``fallback_keys`` always holds the deserialized keys themselves, so
    the engine can degrade a layer call to its in-process
    :class:`LocalExecutor` when the backend fails (remote handles are
    opaque and useless to the local path).
    """

    session_id: str
    entry: ModelEntry
    galois_keys: object | None = None
    fallback_keys: object | None = None
    traffic: TrafficLog = field(default_factory=TrafficLog)
    state: SessionState = SessionState.AWAIT_KEYS
    tenant: str = "default"
    #: Last request instant (``time.monotonic()``); drives the idle TTL.
    last_used: float = field(default_factory=time.monotonic)


class ExecutionBackendError(RuntimeError):
    """A pluggable execution backend failed to run a layer.

    Raised by executors (e.g. the sharded pool) for backend-level
    failures -- a dead worker, an IPC timeout, a model missing from the
    workers' artifact set.  The engine converts it into a protocol
    ``error`` reply instead of letting it tear down the transport.
    """


class LocalExecutor:
    """The default execution backend: run compiled plans in this process.

    Executors are the engine's seam for *where* plan math runs.  The
    contract (all three methods):

    ``prepare_keys(entry, key_id, blob, keys)``
        Called once per session after the engine validated the uploaded
        Galois keys; returns the object stored as the session's key
        handle and later passed back to ``execute``.
    ``release_keys(key_id)``
        The session closed or was evicted; free anything held for it.
    ``execute(entry, layer, batch_inputs, batch_handles, deadline=None)``
        Run one (possibly cross-client batched) layer call.  Returns one
        ``list[Ciphertext]`` per request -- ``co`` ciphertexts for a
        convolution, one for an FC layer -- bit-identical to
        ``plan.execute`` under each request's own keys.  ``deadline`` is
        an absolute ``time.monotonic()`` instant (or ``None``); remote
        backends enforce it, the in-process path ignores it (a started
        plan execution is never abandoned half-way).

    The other implementation is :class:`~repro.serving.shards
    .ShardExecutor`, which fans layer calls out over a
    :class:`~repro.serving.shards.ShardPool` of forked (socketpair) and/or
    remote ``tcp://`` workers, one framed stream each --
    all bit-identical to this executor by the conformance suite.
    """

    def prepare_keys(self, entry, key_id, blob, keys):
        return keys

    def release_keys(self, key_id):
        pass

    def execute(
        self, entry: ModelEntry, layer, batch_inputs, batch_handles,
        deadline=None, trace=None,
    ):
        # ``trace`` (one optional SpanContext per request) is part of the
        # executor contract for backends that emit their own spans; the
        # in-process path runs inside the engine's execute span already.
        return entry.plans[layer.name].execute_batch(batch_inputs, batch_handles)


class _BatchItem:
    """One pending layer request inside a :class:`_LayerBatcher`."""

    __slots__ = ("cts", "keys", "fallback_keys", "deadline", "done", "output",
                 "error", "trace_ctx", "wait_span")

    def __init__(self, cts, keys, fallback_keys=None, deadline=None):
        self.cts = cts
        self.keys = keys
        self.fallback_keys = fallback_keys
        self.deadline = deadline
        self.done = False
        self.output = None
        self.error: BaseException | None = None
        #: Trace context of the submitting request (crosses into the
        #: leader's thread) and its open ``batch_wait`` span.
        self.trace_ctx = None
        self.wait_span = None


#: Longest a batch leader waits for followers.
_WINDOW_S = 0.02
#: Quiet time after which a batch leader stops waiting for followers.
_IDLE_GAP_S = 0.005


class _LayerBatcher:
    """Merge concurrently pending requests for one (model, layer) pair.

    Requests queue in arrival order, and the one at the head of the queue
    *leads* the next generation: it waits until ``max_batch`` requests are
    queued, ``_WINDOW_S`` has passed since it took the lead, or no request
    has arrived for ``_IDLE_GAP_S`` (the burst is over -- waiting longer
    would be pure idle time), then takes at most ``max_batch`` from the
    head, runs them in one execute call and hands each request its own
    output.  The first request left over is the new head and leads the
    next generation at once, so no generation exceeds ``max_batch`` and a
    request arriving while a batch executes never waits for it.  Leaders
    and followers alike wait on the batcher's one condition.
    """

    def __init__(self, execute, max_batch: int, metrics=None, tracer=None):
        #: ``execute(items)`` -> one output per :class:`_BatchItem`.
        self._execute = execute
        self.max_batch = max(1, int(max_batch))
        self._metrics = metrics
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: The ModelEntry this batcher executes against (set by the engine;
        #: used to prune batchers of replaced models).
        self.entry = None
        self._cond = threading.Condition()
        self._pending: list[_BatchItem] = []

    def submit(self, cts, keys, fallback_keys=None, deadline=None):
        item = _BatchItem(cts, keys, fallback_keys, deadline)
        parent = self._tracer.current()
        if parent is not None:
            # The wait span opens on the submitter's thread but closes on
            # the leader's, hence the detached begin/finish pair; the
            # context rides the item so the execute span can parent to
            # this request even though the leader runs the batch.
            item.trace_ctx = parent.context
            item.wait_span = self._tracer.begin("batch_wait", parent)
        with self._cond:
            self._pending.append(item)
            if len(self._pending) >= self.max_batch:
                self._cond.notify_all()
            while not item.done and not (
                self._pending and self._pending[0] is item
            ):
                self._cond.wait()
            batch = None if item.done else self._take()
        if batch is not None:
            self._run(batch)
        if item.error is not None:
            raise item.error
        return item.output

    def _take(self) -> list[_BatchItem]:
        """The leader's wait for followers, then its generation (lock held)."""
        deadline = time.monotonic() + _WINDOW_S
        last_size = len(self._pending)
        last_growth = time.monotonic()
        while len(self._pending) < self.max_batch:
            now = time.monotonic()
            quiet_for = now - last_growth
            if now >= deadline or quiet_for >= _IDLE_GAP_S:
                break
            self._cond.wait(min(deadline - now, _IDLE_GAP_S - quiet_for))
            if len(self._pending) > last_size:
                last_size = len(self._pending)
                last_growth = time.monotonic()
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        if self._pending:
            self._cond.notify_all()  # the new head leads the next generation
        return batch

    def _run(self, batch: list[_BatchItem]) -> None:
        if self._metrics is not None:
            self._metrics.record_batch(len(batch))
        for item in batch:
            if item.wait_span is not None:
                item.wait_span.set(batch=len(batch)).finish()
        try:
            for item, output in zip(batch, self._execute(batch)):
                item.output = output
        except BaseException as exc:  # surface to every waiter, don't hang
            for item in batch:
                item.error = exc
        finally:
            with self._cond:
                for item in batch:
                    item.done = True
                self._cond.notify_all()


class ServingEngine:
    """Multi-client private-inference server over the repro wire format."""

    def __init__(
        self,
        registry: ModelRegistry,
        max_batch: int = 8,
        max_sessions: int = 256,
        seed: int | None = None,
        executor=None,
        request_deadline_s: float | None = None,
        session_ttl_s: float | None = None,
        metrics=None,
        admission=None,
        tracer=None,
        admin_token: str | None = None,
    ):
        self.registry = registry
        #: Shared secret for the ``admin`` wire message (``repro admin``).
        #: ``None`` disables the admin surface entirely: an unauthenticated
        #: deployment must not expose reload/drain/evict to anyone who can
        #: reach the serving port.
        self.admin_token = admin_token if admin_token else None
        #: Request tracer (default: shared no-op).  When enabled, it is
        #: also handed to a trace-aware executor (``ShardExecutor``) so
        #: shard envelopes and worker spans land in the same traces.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if (
            self.tracer.enabled
            and executor is not None
            and hasattr(executor, "tracer")
            and getattr(executor, "tracer") is None
        ):
            executor.tracer = self.tracer
        #: Where plan math runs: in-process by default, or a pluggable
        #: backend such as :class:`~repro.serving.shards.ShardExecutor`
        #: (see :class:`LocalExecutor` for the contract).
        self.executor = executor if executor is not None else LocalExecutor()
        self.max_batch = max(1, int(max_batch))
        #: Soft per-request deadline (seconds per linear round), or
        #: ``None``.  Propagated into the backend as an absolute
        #: monotonic instant; a backend that cannot meet it fails the
        #: call and the engine degrades to the local executor.
        self.request_deadline_s = (
            None if not request_deadline_s else float(request_deadline_s)
        )
        #: When the execution backend fails a layer call
        #: (:class:`ExecutionBackendError`: pool below quorum, task out
        #: of attempts, deadline missed), it is re-run on this in-process
        #: :class:`LocalExecutor` instead of failing the session.
        self._local = (
            self.executor
            if isinstance(self.executor, LocalExecutor)
            else LocalExecutor()
        )
        self._stats_lock = threading.Lock()
        #: Layer calls served by the local fallback after a backend failure.
        self.degraded_calls = 0
        #: Backend failures observed (== degraded_calls unless the
        #: fallback keys were missing or the fallback itself failed).
        self.backend_failures = 0
        #: Session-table bound: clients that vanish without sending ``close``
        #: (crashes, dropped connections) must not leak their multi-MB Galois
        #: key sets forever, so the least-recently-used session is evicted
        #: once the table is full.  An evicted client's next request fails
        #: with "unknown session" and it simply reconnects.
        self.max_sessions = max(1, int(max_sessions))
        self._sessions: "OrderedDict[str, _Session]" = OrderedDict()
        self._batchers: dict[tuple[int, str], _LayerBatcher] = {}
        self._lock = threading.Lock()
        self._mask_lock = threading.Lock()
        # Blinding masks hide partial weight sums from *remote* clients, so
        # the default is OS entropy; pass a seed only for reproducible tests
        # (predictable masks let a client unmask the withheld slots).
        self._rng = np.random.default_rng(seed)
        self._next_session = 0
        #: Idle session TTL (seconds), or ``None`` to keep the pure-LRU
        #: behaviour.  A session idle longer than this has its Galois
        #: keys and TrafficLog dropped; the client simply re-handshakes.
        self.session_ttl_s = (
            None if not session_ttl_s else float(session_ttl_s)
        )
        self._last_sweep = time.monotonic()
        #: Optional :class:`~repro.serving.metrics.MetricsRegistry` and
        #: :class:`~repro.serving.admission.AdmissionController`; both
        #: default to off so library users and tests pay nothing.
        self.metrics = metrics
        self.admission = admission
        if metrics is not None:
            from .metrics import noise_floor_bits

            metrics.add_gauge("sessions", lambda: len(self._sessions))
            metrics.add_gauge("max_batch", lambda: self.max_batch)
            metrics.add_gauge("degraded_calls", lambda: self.degraded_calls)
            metrics.add_gauge(
                "backend_failures", lambda: self.backend_failures
            )
            metrics.add_gauge(
                "noise_headroom_bits",
                lambda: {
                    entry.name: noise_floor_bits(entry)
                    for entry in self.registry.entries()
                },
            )
            # Live-deployment gauges: which zoo generation is being
            # served, and whether a rolling upgrade is in progress
            # (0 when the executor has no shard pool).
            metrics.add_gauge(
                "zoo_generation",
                lambda: getattr(self.registry, "zoo_generation", 0),
            )
            metrics.add_gauge(
                "upgrading_slots",
                lambda: getattr(
                    getattr(self.executor, "pool", None),
                    "upgrading_slots", 0,
                ),
            )
            if admission is not None:
                metrics.add_gauge("admission", admission.stats)

    # -- dispatch -----------------------------------------------------------

    def handle(self, request: Message) -> Message:
        """Process one request message; always returns a reply message."""
        if self.session_ttl_s is not None:
            self._sweep_idle()
        handler = {
            "hello": self._handle_hello,
            "galois_keys": self._handle_galois_keys,
            "linear": self._handle_linear,
            "close": self._handle_close,
            "metrics": self._handle_metrics,
            "admin": self._handle_admin,
        }.get(request.kind)
        if handler is None:
            return error_message(f"unknown request kind {request.kind!r}")
        span = self.tracer.server_span("handle", request.meta, kind=request.kind)
        start = time.monotonic()
        with span:
            try:
                reply = handler(request)
            except (KeyError, ValueError, TypeError, ExecutionBackendError) as exc:
                reply = error_message(str(exc))
            span.set(outcome=reply.kind)
        if span.trace_id is not None:
            # Echo the trace id so clients can correlate replies with
            # server-side traces.
            reply.meta.setdefault(TRACE_META_KEY, {"trace_id": span.trace_id})
        if self.metrics is not None:
            self.metrics.record_request(
                request.kind, time.monotonic() - start, reply.kind
            )
        return reply

    def _handle_metrics(self, request: Message) -> Message:
        """The wire-level metrics scrape (same snapshot as HTTP /metrics)."""
        if self.metrics is None:
            return error_message("metrics are not enabled on this server")
        return Message("metrics_ok", {"metrics": self.metrics.snapshot()})

    # -- admin control plane -------------------------------------------------

    def _handle_admin(self, request: Message) -> Message:
        """Authenticated operator actions (``repro admin``).

        Disabled unless the engine was constructed with an
        ``admin_token``; every request must carry the matching token
        (compared with :func:`hmac.compare_digest`).  Actions run under
        their own tracer span even without client trace context, so
        operator interventions are visible in the same traces as the
        traffic they affect.
        """
        if not self.admin_token:
            return error_message(
                "admin is not enabled on this server "
                "(start it with --admin-token)"
            )
        token = str(request.meta.get("token", ""))
        if not hmac.compare_digest(str(self.admin_token), token):
            logger.warning("admin: rejected request with invalid token")
            return error_message("admin: invalid token")
        action = str(request.meta.get("action", ""))
        handler = {
            "status": self._admin_status,
            "reload-zoo": self._admin_reload_zoo,
            "drain-worker": self._admin_drain_worker,
            "evict-session": self._admin_evict_session,
            "drain-tenant": self._admin_drain_tenant,
        }.get(action)
        if handler is None:
            return error_message(
                f"admin: unknown action {action!r} (expected one of "
                "status, reload-zoo, drain-worker, evict-session, "
                "drain-tenant)"
            )
        # Admin requests usually arrive without trace context (the CLI is
        # not a traced client), but operator actions are exactly the events
        # one wants to see in a trace -- so start a fresh root when there
        # is no parent to attach to.
        parent = self.tracer.current()
        if parent is not None:
            span = self.tracer.span(f"admin:{action}")
        else:
            span = self.tracer.root_span(f"admin:{action}")
        with span:
            try:
                result = handler(request)
            except Exception as exc:  # noqa: BLE001 - reported to operator
                span.set(outcome="error")
                logger.warning("admin %s failed: %s", action, exc)
                return error_message(f"admin {action} failed: {exc}")
            span.set(outcome="ok")
        return Message("admin_ok", {"action": action, "result": result})

    def _admin_status(self, request: Message) -> dict:
        """Deployment status: health, zoo generation, pool upgrade state."""
        from .metrics import health_payload

        payload = health_payload(self)
        payload["zoo"] = {
            "dir": getattr(self.registry, "zoo_dir", None),
            "generation": getattr(self.registry, "zoo_generation", 0),
            "models": sorted(self.registry.names()),
        }
        pool = getattr(self.executor, "pool", None)
        if pool is not None:
            payload.setdefault("pool", {}).update(
                {
                    "draining_workers": pool.draining_workers(),
                    "upgrading_slots": pool.upgrading_slots,
                    "upgrades_total": pool.upgrades_total,
                    "artifact_dir": pool.artifact_dir,
                }
            )
        with self._lock:
            tenants: dict[str, int] = {}
            for session in self._sessions.values():
                tenants[session.tenant] = tenants.get(session.tenant, 0) + 1
        payload["tenants"] = tenants
        return payload

    def _admin_reload_zoo(self, request: Message) -> dict:
        """Swap in a new zoo generation, then roll it across the pool.

        The registry reload is the atomic front-end swap (new sessions
        bind the new generation; in-flight rounds finish on their pinned
        entries).  When the executor is a shard pool and the reload
        applied, the workers are then rolling-upgraded one at a time so
        quorum is never violated; ``rolling: false`` skips that step.
        """
        directory = request.meta.get("directory")
        summary = self.registry.reload_zoo(directory)
        pool = getattr(self.executor, "pool", None)
        if summary.get("applied") and pool is not None and bool(
            request.meta.get("rolling", True)
        ):
            summary["pool"] = pool.rolling_upgrade(
                getattr(self.registry, "zoo_dir", None)
            )
        return summary

    def _admin_drain_worker(self, request: Message) -> dict:
        """Drain (or resume) one shard worker out of the dispatch set."""
        pool = getattr(self.executor, "pool", None)
        if pool is None:
            raise ValueError("this server has no shard pool to drain")
        worker = request.meta.get("worker")
        if worker is None:
            raise ValueError("drain-worker requires a worker id")
        if bool(request.meta.get("resume", False)):
            return pool.resume_worker(int(worker))
        return pool.drain_worker(
            int(worker), wait_s=float(request.meta.get("wait_s", 30.0))
        )

    def _admin_evict_session(self, request: Message) -> dict:
        """Force-evict one session (keys and traffic log released)."""
        session_id = request.meta.get("session")
        if not session_id:
            raise ValueError("evict-session requires a session id")
        session_id = str(session_id)
        with self._dropping("admin evict-session") as drop:
            evicted = drop(session_id)
        return {"session": session_id, "evicted": evicted}

    def _admin_drain_tenant(self, request: Message) -> dict:
        """Evict every session belonging to one tenant."""
        tenant = request.meta.get("tenant")
        if not tenant:
            raise ValueError("drain-tenant requires a tenant name")
        tenant = str(tenant)
        with self._dropping(f"admin drain-tenant {tenant}") as drop:
            matched = [
                session_id
                for session_id, session in list(self._sessions.items())
                if session.tenant == tenant and drop(session_id)
            ]
        return {"tenant": tenant, "evicted": sorted(matched)}

    def session_traffic(self, session_id: str) -> TrafficLog:
        """The per-session byte/round tally (server-side view)."""
        return self._session(session_id).traffic

    def _session(self, session_id: str) -> _Session:
        with self._lock:
            try:
                session = self._sessions[session_id]
            except KeyError:
                raise KeyError(f"unknown session {session_id!r}") from None
            self._sessions.move_to_end(session_id)
            session.last_used = time.monotonic()
            return session

    # -- session lifecycle ---------------------------------------------------

    @contextmanager
    def _dropping(self, reason: str):
        """The one way out of the session table.

        Holds ``_lock`` for the block and yields ``drop(session_id)``,
        which pops that session (``True`` if it was there).  After the
        block, outside the lock, every dropped session's executor keys
        are released and one log line names them with ``reason``.  The
        session object itself -- in-process fallback keys, TrafficLog --
        goes with the table entry; a client whose session was dropped
        gets "unknown session" on its next round and re-handshakes.
        """
        dropped: list[str] = []

        def drop(session_id: str) -> bool:
            if self._sessions.pop(session_id, None) is None:
                return False
            dropped.append(session_id)
            return True

        try:
            with self._lock:
                yield drop
        finally:
            for session_id in dropped:
                self.executor.release_keys(session_id)
            if dropped:
                logger.info(
                    "dropped %d session(s) (%s): %s",
                    len(dropped), reason, ", ".join(dropped),
                )

    def evict_idle_sessions(self) -> list[str]:
        """Drop sessions idle longer than the TTL; returns evicted ids.

        Safe to call from any thread (the gateway runs it on a timer; the
        engine itself calls it lazily from :meth:`handle`).
        """
        ttl = self.session_ttl_s
        if ttl is None:
            return []
        now = time.monotonic()
        with self._dropping(f"idle past the {ttl:.3g}s TTL") as drop:
            return [
                session_id
                for session_id, session in list(self._sessions.items())
                if now - session.last_used > ttl and drop(session_id)
            ]

    def _sweep_idle(self) -> None:
        """Rate-limited lazy TTL sweep, piggybacked on request handling."""
        now = time.monotonic()
        with self._lock:
            if now - self._last_sweep < min(1.0, self.session_ttl_s):
                return
            self._last_sweep = now
        self.evict_idle_sessions()

    # -- handshake ----------------------------------------------------------

    def _handle_hello(self, request: Message) -> Message:
        model_name, client_params = request.require("model", "params")
        entry = self.registry.get(model_name)
        reason = self.registry.params_compatible(entry, client_params)
        if reason is not None:
            return error_message(reason)
        tenant = str(request.meta.get("tenant", "default"))
        # The least-recently-used pop shares the insert's critical section,
        # so the table never holds more than ``max_sessions``.
        with self._dropping("least recently used, session table full") as drop:
            while len(self._sessions) >= self.max_sessions:
                drop(next(iter(self._sessions)))
            session_id = f"s{self._next_session}"
            self._next_session += 1
            self._sessions[session_id] = _Session(
                session_id, entry, tenant=tenant
            )
        meta = {"session": session_id, **entry.handshake_meta()}
        return Message("hello_ok", meta)

    def _handle_galois_keys(self, request: Message) -> Message:
        session = self._session(request.require("session"))
        if len(request.blobs) != 1:
            return error_message("galois_keys expects exactly one key blob")
        blob = request.blobs[0]
        keys = deserialize_galois_keys(blob, session.entry.params)
        missing = [
            step
            for step in session.entry.rotation_steps
            if session.entry.scheme.galois_elt_for_step(step) not in keys
        ]
        if missing:
            return error_message(
                f"uploaded Galois keys missing rotation step(s) {missing}"
            )
        session.galois_keys = self.executor.prepare_keys(
            session.entry, session.session_id, blob, keys
        )
        session.fallback_keys = keys
        session.state = SessionState.READY
        session.traffic.send_to_cloud(len(blob), "galois_keys")
        return Message("keys_ok", {"session": session.session_id})

    def _handle_close(self, request: Message) -> Message:
        session_id = request.require("session")
        with self._dropping("close") as drop:
            drop(session_id)
        return Message("close_ok", {"session": session_id})

    # -- linear rounds -------------------------------------------------------

    def _handle_linear(self, request: Message) -> Message:
        session_id, layer_name = request.require("session", "layer")
        session = self._session(session_id)
        if session.state is not SessionState.READY:
            return error_message(
                f"session {session_id!r} has not uploaded Galois keys"
            )
        if self.admission is not None:
            with self.tracer.span("admission") as adm_span:
                wait = self.admission.try_admit(session.tenant)
                if wait is not None:
                    adm_span.set(outcome="busy", retry_after_s=wait)
            if wait is not None:
                return busy_message(wait, "server at capacity")
            try:
                return self._linear_round(session, layer_name, request)
            finally:
                self.admission.release()
        return self._linear_round(session, layer_name, request)

    def _linear_round(
        self, session: _Session, layer_name: str, request: Message
    ) -> Message:
        session_id = session.session_id
        entry = session.entry
        layer = entry.layer(layer_name)
        expected = entry.plans[layer_name].inputs
        if len(request.blobs) != expected:
            return error_message(
                f"layer {layer_name!r} expects {expected} ciphertext(s), "
                f"got {len(request.blobs)}"
            )
        with self.tracer.span("deserialize", blobs=len(request.blobs)):
            cts = [
                deserialize_ciphertext(blob, entry.params)
                for blob in request.blobs
            ]
        session.traffic.send_to_cloud(
            sum(len(blob) for blob in request.blobs), layer_name
        )
        start = time.monotonic()
        deadline = (
            start + self.request_deadline_s
            if self.request_deadline_s is not None
            else None
        )
        masked_cts, mask = self._run_layer(
            entry, layer, cts, session.galois_keys, session.fallback_keys,
            deadline,
        )
        if self.metrics is not None:
            self.metrics.record_layer(layer_name, time.monotonic() - start)
        with self.tracer.span("serialize"):
            ct_blobs = [
                serialize_ciphertext(ct, entry.params) for ct in masked_cts
            ]
            mask_blob = np.ascontiguousarray(mask, dtype="<u4").tobytes()
        session.traffic.send_to_client(
            sum(len(blob) for blob in ct_blobs) + len(mask_blob),
            layer_name + "+mask",
        )
        session.traffic.end_round()
        return Message(
            "linear_ok",
            {"layer": layer_name, "mask_shape": list(mask.shape)},
            [*ct_blobs, mask_blob],
        )

    def _run_layer(
        self, entry: ModelEntry, layer, cts, galois_keys, fallback_keys=None,
        deadline=None,
    ):
        """Execute one layer through its batcher, merged across clients
        when they are pending together.

        Returns this request's ``(masked_cts, mask_view)``.
        """
        # Keyed by entry *identity*: re-registering a model name creates a
        # fresh ModelEntry, and sessions opened before and after must not
        # share a batch (their plans and weights differ).  Sessions keep
        # executing against the entry they handshook with.
        key = (id(entry), layer.name)
        with self._lock:
            batcher = self._batchers.get(key)
            if batcher is None:
                self._prune_stale_batchers()
                batcher = _LayerBatcher(
                    functools.partial(self._execute_layer, entry, layer),
                    self.max_batch,
                    metrics=self.metrics,
                    tracer=self.tracer,
                )
                batcher.entry = entry
                self._batchers[key] = batcher
        return batcher.submit(cts, galois_keys, fallback_keys, deadline)

    def _prune_stale_batchers(self) -> None:
        """Drop idle batchers for replaced model entries (holds self._lock)."""
        current = {id(e) for e in self.registry.entries()}
        stale = [
            key
            for key, batcher in self._batchers.items()
            if key[0] not in current and not batcher._pending
        ]
        for key in stale:
            del self._batchers[key]

    def _execute_layer(self, entry: ModelEntry, layer, batch: list[_BatchItem]):
        """One stacked plan execution + blinding for B pending requests.

        A backend failure degrades to the in-process executor (when the
        raw Galois keys are at hand) instead of failing every session in
        the batch: plan execution is deterministic, so the local replay is
        bit-identical to what the backend would have produced.
        """
        batch_inputs = [item.cts for item in batch]
        deadlines = [item.deadline for item in batch if item.deadline is not None]
        traced = self.tracer.enabled and any(
            item.trace_ctx is not None for item in batch
        )
        exec_spans = []
        before = None
        if traced:
            exec_spans = [
                self.tracer.begin(
                    "execute", item.trace_ctx, layer=layer.name, batch=len(batch)
                )
                for item in batch
            ]
            before = GLOBAL_COUNTERS.snapshot()
        try:
            outputs = self.executor.execute(
                entry, layer, batch_inputs, [item.keys for item in batch],
                deadline=min(deadlines) if deadlines else None,
                trace=[span.context for span in exec_spans] if traced else None,
            )
        except ExecutionBackendError as exc:
            with self._stats_lock:
                self.backend_failures += 1
            fallback = [item.fallback_keys for item in batch]
            if self.executor is self._local or any(
                keys is None for keys in fallback
            ):
                for span in exec_spans:
                    span.set(error=type(exc).__name__).finish()
                raise
            logger.warning(
                "execution backend failed for layer %r (%s); degrading "
                "this call to the in-process executor", layer.name, exc,
            )
            for span in exec_spans:
                span.set(degraded=True)
            outputs = self._local.execute(entry, layer, batch_inputs, fallback)
            with self._stats_lock:
                self.degraded_calls += 1
        if traced:
            # The batch's HE-op delta, attached to every member's execute
            # span (the work is shared; per-request splits live on the
            # shard-task / worker spans underneath when sharded).
            delta = GLOBAL_COUNTERS.diff(before)
            ops = delta.he_ops()
            for span in exec_spans:
                span.set(he_ops=ops).finish()
        # One blinding pass over every output of the whole batch: the mask
        # encode + eval-domain lift run as a single (k, B*co, n) call.
        flat = [ct for request_cts in outputs for ct in request_cts]
        blind_spans = [
            self.tracer.begin("blind", item.trace_ctx, rows=len(flat))
            for item in batch
        ] if traced else []
        with self._mask_lock:
            masked_flat, mask_rows = blind_ciphertext_rows(
                entry.scheme, self._rng, flat
            )
        for span in blind_spans:
            span.finish()
        # Each request gets its own outputs and the dense mask block its
        # client reads (the client applies any stride).
        grid_w = getattr(entry.plans[layer.name], "grid_w", None)
        results, offset = [], 0
        for request_cts in outputs:
            end = offset + len(request_cts)
            view = linear_output_view(layer, mask_rows[offset:end], grid_w)
            results.append((masked_flat[offset:end], view))
            offset = end
        return results
