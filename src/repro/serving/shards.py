"""Multi-process sharded execution backend for the serving engine.

One Python process cannot use more than one core for the plan math, so
the lock-free NTT engine and the memmapped ``.rpa`` artifacts (whose
weight pages N processes share through the OS page cache) are scaling
enablers the single-process :class:`~repro.serving.engine.ServingEngine`
never cashes in.  This module adds the missing piece:

* :class:`ShardPool` forks ``N`` worker processes.  Each worker
  ``load_zoo``'s the same artifact directory -- memmapped weight stacks,
  zero plan recompilation, shared pages -- reports readiness as the first
  frame on its channel, then pulls work from that channel.  The
  coordinator dispatches each task to the least-loaded live worker, so
  idle workers still balance the load -- but every worker has one
  private stream and no stream is shared.  That topology is a
  *fault-tolerance* decision: a worker SIGKILLed mid-frame poisons only
  its own stream, which is discarded and rebuilt on respawn.
* :class:`ShardExecutor` plugs into the engine's execution-backend seam
  (:class:`~repro.serving.engine.LocalExecutor` documents the contract).
  A batched ``(k, B, n)`` layer call is split into per-shard sub-batches
  by request rows, shipped over the worker channels, and the partial
  outputs are merged back in order.  A request is never split: its
  layer runs whole on one worker, so Sched-IA's hoisted rotations stay
  shared across all of its output channels.  Every ciphertext crosses
  the process boundary through :mod:`repro.bfv.serialize` inside a
  :mod:`repro.serving.wire` frame, so the IPC path is the *same*
  validated wire format the network uses.

A pool slot is a *channel* plus a liveness probe.  A channel is one
framed stream (:func:`~repro.serving.wire.send_frame`) carrying
:class:`~repro.serving.wire.Message` frames -- headers *and* ciphertext
blobs -- both ways; it can be stopped, killed and retired, and that is
all :class:`ShardPool` knows about it, so supervision, dispatch, key
broadcast, collection and rolling upgrades are one code path for every
worker.  The worker side is one loop too (:func:`_serve_shard`).  Workers
differ only in where the stream comes from: a forked worker
(``workers=N``) holds one end of a ``socket.socketpair()``; a remote
worker (``remote_endpoints=["tcp://host:port", ...]``) is a
:class:`ShardWorkerServer` (``repro shard-worker``) on any host that
memmaps the same ``.rpa`` artifacts, reached over TCP with a
``shard_hello``.

Bit-identity is the invariant that makes the split safe: plan execution
is deterministic and independent per request, so any row partition of
the batch produces ciphertexts byte-identical to a single-process run at
identical op counts (``tests/test_conformance.py::TestPartitionInvariance``
pins merged == one-by-one == row-split, bytes and op counts).  Blinding
stays in the coordinator -- workers never see masks -- and each worker
ships back its HE op-counter delta, which the executor folds into the
coordinator's :data:`~repro.bfv.counters.GLOBAL_COUNTERS` so accounting
matches single-process execution exactly.

Galois keys are too large to ship per task: the executor broadcasts each
session's key blob once to every worker (workers cache them, dropping
them on session close/eviction), so a task only references a ``key_id``.
Key frames ride the same per-worker stream as tasks, and a
broadcast is enqueued -- or replayed into a respawned worker's fresh
channel -- before any task that names it can be dispatched, so a task
whose key is missing is a protocol error, never a race.  Ids are scoped
per executor and per upload, so "cache hit" implies exactly the right
keys: a worker can never *mistake* stale keys for current ones.

Fault tolerance
---------------

The pool is *supervised*: a monitor thread watches worker liveness and
pending-task progress, and a crashed or stalled worker costs a retry,
not the request.

* Every task is dispatched to exactly one worker incarnation, and the
  worker announces it with a ``claimed`` frame before executing, so the
  coordinator knows both where every in-flight task lives and whether
  execution started.  When a worker dies, everything assigned to the
  dead incarnation is requeued onto the survivors immediately; a task
  making no progress for ``attempt_timeout_s`` (hung worker, lost
  reply) is requeued by the stall check.
* Each requeue bumps the task's ``attempt`` counter; after
  ``max_attempts`` the task fails with a :class:`ShardError` and the
  engine degrades to its in-process executor rather than failing the
  session.
* A dead worker (a crash, a cut link, a corrupt frame) and a rolling
  upgrade's swap leave their slot by one path and differ only in
  accounting (a death backs off exponentially).  Once the pool is up the
  monitor is the only spawner: a fresh fork or reconnect, then a replay
  of every live key blob into the new channel, so respawned workers
  serve existing sessions without client involvement.  After ``max_respawns``
  deaths a slot is abandoned and the survivors carry the load; when
  every slot is abandoned the pool fails all pending and future work
  fast (the engine's local fallback takes over).
* Exactly-once accounting holds under retries because op-counter deltas
  travel inside result frames and are folded only from the single
  *accepted* reply per task (first ``ok`` wins; duplicates from
  spurious requeues and stale attempts are dropped on the floor).
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import multiprocessing
import os
import queue
import signal
import socket
import threading
import time
import uuid
from collections import Counter
from dataclasses import dataclass

from ..bfv.counters import GLOBAL_COUNTERS
from ..bfv.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    serialize_ciphertext,
)
from .engine import ExecutionBackendError
from .faults import WorkerFaults
from .metrics import noise_floor_bits
from .tracing import WorkerSpanLog
from .transport import bind_listener
from .wire import (
    TRACE_META_KEY,
    Message,
    attempt_of,
    decode_message,
    encode_message,
    error_message,
    recv_frame,
    send_frame,
)

logger = logging.getLogger(__name__)


class ShardError(ExecutionBackendError):
    """A shard pool failure: dead worker, startup error, or task failure."""


# -- worker process -----------------------------------------------------------


def _run_task(registry, key_cache, request: Message) -> Message:
    """Execute one layer sub-batch; reply with outputs + counter delta.

    When the task carries a trace context the worker records its own
    deserialize / compute / serialize spans as *offsets* from a local
    t0 (see :class:`~repro.serving.tracing.WorkerSpanLog`) and ships
    them back in the result meta; the coordinator anchors them inside
    its dispatch envelope, so no cross-process clock comparison ever
    happens.
    """
    model, layer_name, task_id = request.require("model", "layer", "task")
    key_ids = request.require("key_ids")
    counts = [int(c) for c in request.require("cts_per_request")]
    slog = WorkerSpanLog() if TRACE_META_KEY in request.meta else None
    entry = registry.get(model)
    layer = entry.layer(layer_name)
    t_stage = time.monotonic()
    cts = [deserialize_ciphertext(blob, entry.params) for blob in request.blobs]
    starts = list(itertools.accumulate(counts, initial=0))
    batch_inputs = [cts[lo:hi] for lo, hi in zip(starts, starts[1:])]
    batch_keys = [key_cache[key_id] for key_id in key_ids]
    if slog is not None:
        slog.add(
            "worker.deserialize", t_stage,
            bytes=sum(len(blob) for blob in request.blobs),
        )
        t_stage = time.monotonic()
    before = GLOBAL_COUNTERS.snapshot()
    outputs = entry.plans[layer.name].execute_batch(batch_inputs, batch_keys)
    counters = GLOBAL_COUNTERS.diff(before).he_ops()
    if slog is not None:
        slog.add(
            "worker.compute", t_stage,
            he_ops=counters,
            noise_headroom_bits=noise_floor_bits(entry),
        )
        t_stage = time.monotonic()
    blobs = [
        serialize_ciphertext(ct, entry.params)
        for request_cts in outputs
        for ct in request_cts
    ]
    meta = {
        "task": task_id,
        "status": "ok",
        "attempt": attempt_of(request),
        "outputs_per_request": [len(cts) for cts in outputs],
        "counters": counters,
    }
    if slog is not None:
        slog.add(
            "worker.serialize", t_stage,
            bytes=sum(len(blob) for blob in blobs),
        )
        meta["spans"] = slog.dump()
    return Message("result", meta, blobs)


def _serve_shard(
    recv, send, registry, worker_id, incarnation, fault_plan, forked: bool
) -> None:
    """The worker side of the shard protocol -- one loop for every fabric.

    ``recv()`` / ``send(message)`` come from :func:`_stream_endpoints`
    over the caller's stream (a forked worker's socketpair end, a
    :class:`ShardWorkerServer` connection); ``recv()`` returning ``None``
    ends the loop, a broken stream raises out of it.  The first frame out
    is ``shard_ready``; after that ``keys`` / ``drop_keys`` frames update
    the Galois-key cache silently and every other frame is answered with
    ``claimed`` (before executing) and exactly one ``result``.

    ``forked`` is the one thing that legitimately differs between the
    callers.  A forked worker shares the coordinator's monotonic clock,
    so it enforces ``deadline_mono``, and owns its process's
    ``GLOBAL_COUNTERS``.  A server connection may be on another host
    (the instant is not comparable; the coordinator still enforces the
    deadline on its side) and may share the coordinator's *process* (the
    test topology), so each task's counter delta is rolled back out of
    ``GLOBAL_COUNTERS`` -- the coordinator's fold of the reply is then
    the one and only accounting, exactly the arithmetic a separate
    process gives.
    """
    send(Message(
        "shard_ready", {"models": registry.names(), "pid": os.getpid()}
    ))
    key_cache: dict[str, object] = {}
    tasks_claimed = 0
    while (request := recv()) is not None:
        if request.kind in ("keys", "drop_keys"):
            try:
                key_id = request.require("key_id")
                if request.kind == "drop_keys":
                    key_cache.pop(key_id, None)
                else:
                    key_cache[key_id] = deserialize_galois_keys(
                        request.blobs[0],
                        registry.get(request.require("model")).params,
                    )
            except Exception:
                # Key frames have no reply: tasks naming this id fail
                # with "keys not on this worker" (the engine degrades
                # that session) rather than the worker dying on every
                # replay of the same frame.
                logger.exception(
                    "shard worker %d: ignoring bad %s frame",
                    worker_id, request.kind,
                )
            request = None  # do not pin a multi-MB key blob while idle
            continue
        attempt = attempt_of(request)
        task_id = request.meta.get("task", "?")
        # Claim before executing: claims tell the coordinator that
        # execution started (refreshing the stall clock) and carry this
        # incarnation, pinning the task to this process.
        send(Message(
            "claimed",
            {
                "task": task_id,
                "attempt": attempt,
                "worker": worker_id,
                "incarnation": incarnation,
            },
        ))
        try:
            if request.kind == "ping":
                reply = Message(
                    "result",
                    {
                        "task": task_id,
                        "status": "ok",
                        "attempt": attempt,
                        "worker": worker_id,
                        "incarnation": incarnation,
                        "models": registry.names(),
                        "cached_keys": {i: k.nbytes for i, k in key_cache.items()},
                        "pid": os.getpid(),
                    },
                )
            elif request.kind == "task":
                tasks_claimed += 1
                if fault_plan is not None:
                    fault_plan.on_task(worker_id, incarnation, tasks_claimed)
                deadline_mono = request.meta.get("deadline_mono")
                if (
                    forked
                    and deadline_mono is not None
                    and time.monotonic() > float(deadline_mono)
                ):
                    raise ShardError(
                        "request deadline exceeded before execution"
                    )
                for key_id in request.require("key_ids"):
                    if key_id not in key_cache:
                        raise ShardError(
                            f"Galois keys {key_id!r} not on this worker "
                            "(coordinator must broadcast before dispatch)"
                        )
                reply = _run_task(registry, key_cache, request)
                if not forked:
                    GLOBAL_COUNTERS.fold(reply.meta["counters"], sign=-1)
            else:
                raise ShardError(f"unknown shard request {request.kind!r}")
        except Exception as exc:  # keep the worker alive for the next task
            reply = Message(
                "result",
                {
                    "task": task_id,
                    "status": "error",
                    "attempt": attempt,
                    "reason": f"worker {worker_id}: {type(exc).__name__}: {exc}",
                },
            )
        send(reply)


def _stream_endpoints(sock, stopping=None):
    """A worker's ``(recv, send)`` over its stream; ``recv`` ends the loop
    on the coordinator's EOF (its stop, or its death) or ``stopping``."""

    def recv() -> Message | None:
        payload = recv_frame(sock)
        if payload is None or (stopping is not None and stopping.is_set()):
            return None
        return decode_message(payload)

    return recv, lambda message: send_frame(sock, encode_message(message))


def _worker_main(
    worker_id, incarnation, artifact_dir, verify, fault_plan, sock,
    coordinator_end,
):
    """Forked worker entry point: warm-start from artifacts, then serve.

    Closing this child's copy of ``coordinator_end`` leaves the
    coordinator the only holder of ``sock``'s far end, so the worker
    reads EOF and exits however the coordinator goes (even SIGKILLed).
    Ends of earlier pairs inherited here only delay those workers until
    this one exits: the newest worker always sees EOF first.  SIGTERM is
    reset: an inherited handler (``repro serve``'s) would swallow retire's.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    coordinator_end.close()
    recv, send = _stream_endpoints(sock)
    try:
        if fault_plan is not None:
            fault_plan.on_worker_start(worker_id, incarnation)
        from ..artifacts.zoo import load_zoo

        registry = load_zoo(artifact_dir, verify=verify)
    except BaseException as exc:
        send(error_message(f"{type(exc).__name__}: {exc}"))
        return
    # A broken stream means the coordinator killed it or is gone.
    with contextlib.suppress(OSError, ValueError):
        _serve_shard(
            recv, send, registry, worker_id, incarnation, fault_plan,
            forked=True,
        )


# -- coordinator --------------------------------------------------------------


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Parse ``tcp://host:port`` (or bare ``host:port``) -> ``(host, port)``."""
    spec = str(endpoint).strip()
    if spec.startswith("tcp://"):
        spec = spec[len("tcp://") :]
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"malformed shard-worker endpoint {endpoint!r} "
            "(expected tcp://host:port)"
        )
    return host, int(port)


class _Channel:
    """One worker incarnation's framed stream: a forked worker's
    socketpair (:meth:`fork`) or a remote :class:`ShardWorkerServer`'s
    TCP connection (:meth:`connect`).  Never reused: a SIGKILLed worker
    or a cut link can leave the stream mid-frame.

    Sends never block: one writer thread drains an outbox in order, so
    dispatch (under the pool lock) never waits on a worker that is
    itself blocked writing a reply the collector needs that lock to take,
    and key replay, queued first, stays ahead of every task.  Any send or
    receive failure -- EOF, reset, a frame that fails validation --
    kills the channel, which the supervisor treats as a worker death.
    """

    def __init__(self, sock, process=None, endpoint: str = "local"):
        self.sock, self.process, self.endpoint = sock, process, endpoint
        self._dead = threading.Event()
        self._outbox: queue.SimpleQueue = queue.SimpleQueue()
        self._writer = threading.Thread(target=self._write, daemon=True)
        self._writer.start()

    @classmethod
    def fork(cls, ctx, worker_args: tuple) -> "_Channel":
        """Fork a local worker onto one end of a fresh socketpair."""
        ours, theirs = socket.socketpair()
        with theirs:  # the child's end lives in the child only
            process = ctx.Process(
                target=_worker_main, args=(*worker_args, theirs, ours),
                name=f"repro-shard-{worker_args[0]}", daemon=True,
            )
            process.start()
        return cls(ours, process)

    @classmethod
    def connect(cls, endpoint: str, factory, timeout_s: float) -> "_Channel":
        """Connect to a remote worker and say ``shard_hello`` (the connect
        timeout stays on until ``shard_ready``: it bounds the handshake)."""
        sock = factory(parse_endpoint(endpoint), timeout=timeout_s)
        channel = cls(sock, endpoint=endpoint)
        channel.send(Message("shard_hello", {}))
        return channel

    def send(self, message: Message) -> int:
        """Queue one frame -> its byte count."""
        frame = encode_message(message)
        self.send_encoded(frame)
        return len(frame)

    def send_encoded(self, frame: bytes) -> None:
        """Queue an already-encoded frame (Galois-key traffic).

        Key frames are encoded once and kept for replay; re-encoding one
        per send costs the coordinator tens of MB of peak RSS.
        """
        self._outbox.put(frame)

    def _write(self) -> None:
        """The channel's one writer: frames in outbox order, then --
        after :meth:`stop`'s sentinel -- EOF."""
        try:
            while (frame := self._outbox.get()) is not None:
                send_frame(self.sock, frame)
            self.sock.shutdown(socket.SHUT_WR)
        except OSError:
            self.kill()

    def recv(self) -> tuple[Message, int] | None:
        """Block for the next frame -> ``(message, frame bytes)``;
        ``None`` once the stream is unusable."""
        try:
            payload = recv_frame(self.sock)
            if payload is None:  # EOF, quietly: the supervisor logs deaths
                self.kill()
                return None
            message = decode_message(payload)
        except (OSError, ValueError) as exc:
            if self.alive():
                logger.warning(
                    "shard worker %s stream failed: %s", self.endpoint, exc
                )
            self.kill()
            return None
        if message.kind == "shard_ready":
            self.sock.settimeout(None)
        return message, len(payload)

    def alive(self) -> bool:
        return not self._dead.is_set() and (
            self.process is None or self.process.is_alive()
        )

    def stop(self) -> None:
        """Drain-stop: the worker reads EOF after every frame queued so
        far, finishes, and leaves its loop."""
        self._outbox.put(None)

    def kill(self) -> None:
        """End the stream now (both directions) and terminate a forked
        worker; the writer and the collector wake and return."""
        self._dead.set()
        self._outbox.put(None)
        with contextlib.suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        if self.process is not None and self.process.is_alive():
            self.process.terminate()

    def retire(self, timeout_s: float = 0.0) -> None:
        """Give a :meth:`stop` up to ``timeout_s`` to land -- a forked
        worker's exit, the EOF written to a remote one -- then kill, reap
        and close; the channel is finished.  A forked worker that outlives
        SIGTERM by ``_TERM_GRACE_S`` gets SIGKILL and is reaped within
        what is left of ``timeout_s`` (at least the grace again)."""
        deadline = time.monotonic() + timeout_s
        waiter = self._writer if self.process is None else self.process
        waiter.join(timeout=timeout_s)
        self.kill()
        if self.process is not None:
            self.process.join(timeout=_TERM_GRACE_S)
            self.process.kill()  # a no-op once reaped
            self.process.join(max(_TERM_GRACE_S, deadline - time.monotonic()))
        self.sock.close()

    def exit_status(self) -> str:
        """How a reaped forked worker ended, for the log ('' if unknown)."""
        code = getattr(self.process, "exitcode", None)
        if code is None or code >= 0:
            return "" if code is None else f"exit code {code}"
        return f"signal {-code} ({signal.strsignal(-code)})"


class _PendingTask:
    """Coordinator-side state for one in-flight task (guarded by pool lock).

    The un-encoded request :class:`~repro.serving.wire.Message` is kept
    so a retry can re-dispatch it with a bumped ``attempt`` -- tasks are
    deterministic, so a replay is bit-identical.  Setting ``reply``
    (once, under the pool condition, with ``notify_all``) resolves the
    task; ``ShardPool._pending`` only ever holds unresolved ones.
    """

    __slots__ = (
        "request", "reply", "attempt", "assigned", "claimed_at",
        "dispatched_at", "first_dispatched_at",
    )

    def __init__(self, request: Message):
        self.request = request
        self.reply: Message | None = None
        self.attempt = 0
        #: ``(worker_id, incarnation)`` this attempt was dispatched to,
        #: or ``None`` while parked waiting for a live worker.
        self.assigned: tuple[int, int] | None = None
        self.claimed_at: float | None = None
        self.dispatched_at: float | None = None
        #: When attempt 0 left the coordinator -- the start of the task's
        #: trace envelope, surviving requeues (``dispatched_at`` resets).
        self.first_dispatched_at: float | None = None


@dataclass
class _Slot:
    """One supervised worker position in the pool: a channel + its state.

    ``endpoint`` is what :meth:`ShardPool._open_channel` builds the
    channel from (``None`` forks a local worker, ``tcp://host:port``
    connects to a remote one); ``channel`` is ``None`` while the slot is
    down (retired and awaiting the respawn the supervisor claims at
    ``respawn_at``, or abandoned).
    """

    worker_id: int
    endpoint: str | None = None
    channel: object = None
    incarnation: int = 0
    ready: bool = False
    abandoned: bool = False
    respawn_at: float | None = None
    deaths: int = 0
    last_error: str = ""
    #: Excluded from new dispatch (admin drain, or the drain phase of a
    #: rolling upgrade); in-flight tasks finish normally.
    draining: bool = False

    def alive(self) -> bool:
        return self.channel is not None and self.channel.alive()

    @property
    def process(self):
        """The forked worker's process, if any (the chaos suite's SIGKILL
        target; the pool itself only talks to ``channel``)."""
        return getattr(self.channel, "process", None)


#: Longest a coordinator call waits for its tasks when the request has
#: no deadline of its own (retries included).
_TASK_TIMEOUT_S = 300.0
#: Seconds a forked worker gets between SIGTERM and SIGKILL on retire.
_TERM_GRACE_S = 1.0
#: TCP connect timeout for a remote worker's channel.
_REMOTE_CONNECT_TIMEOUT_S = 10.0
#: Longest a rolling upgrade waits out a slot's in-flight tasks before
#: swapping it anyway (the stragglers replay onto siblings).
_UPGRADE_DRAIN_TIMEOUT_S = 60.0


class ShardPool:
    """A supervised pool of local and/or remote workers executing plan layers.

    Local workers fork and warm-start by ``load_zoo``-ing
    ``artifact_dir`` (memmapped stacks -> the weight pages of all
    workers are shared through the OS page cache) and speak the remote
    workers' framed stream over a private socketpair each.  ``channels``
    selects nothing: ``"queue"`` and ``"shm"`` are both that one channel
    (``"shm"`` is accepted only because the ``shard_shm`` benchmark
    workload passes it), and any other value is a ``ValueError``.
    ``remote_endpoints`` adds ``tcp://host:port``
    workers (:class:`ShardWorkerServer` instances memmapping the same
    artifacts on any host); ``artifact_dir`` may be ``None`` for an
    all-remote pool.  The coordinator dispatches each
    :class:`~repro.serving.wire.Message` task to the least-loaded live
    worker's private channel.

    A monitor thread supervises the pool (see the module docstring):
    dead workers have their in-flight tasks requeued (at most
    ``max_attempts`` attempts per task, ``attempt_timeout_s`` per
    attempt before a stalled attempt is retried) and are respawned with
    backoff up to ``max_respawns`` times before their slot is abandoned.
    ``fault_plan`` injects deterministic worker faults for tests
    (defaults to :meth:`WorkerFaults.from_env`, so ``REPRO_FAULT_*``
    environment hooks reach unmodified servers).

    The pool is transport-agnostic -- :class:`ShardExecutor` adapts it to
    the serving engine, and tests/benchmarks drive :meth:`execute`
    directly.
    """

    def __init__(
        self,
        artifact_dir,
        workers: int = 2,
        verify: bool | str = True,
        start_timeout_s: float = 120.0,
        max_attempts: int = 3,
        attempt_timeout_s: float = 60.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.2,
        fault_plan: WorkerFaults | None = None,
        channels: str = "queue",
        remote_endpoints=None,
        remote_socket_factory=None,
    ):
        self.remote_endpoints = [
            str(endpoint) for endpoint in (remote_endpoints or [])
        ]
        for endpoint in self.remote_endpoints:
            parse_endpoint(endpoint)  # fail fast on malformed specs
        if workers < 0 or workers + len(self.remote_endpoints) < 1:
            raise ValueError(
                f"need at least one worker, got {workers} local + "
                f"{len(self.remote_endpoints)} remote"
            )
        if max_attempts < 1:
            raise ValueError(f"need at least one attempt, got {max_attempts}")
        if channels not in ("queue", "shm"):
            raise ValueError(f"unknown channel kind {channels!r}")
        if artifact_dir is None and workers > 0:
            raise ValueError("local shard workers need an artifact_dir")
        self.artifact_dir = None if artifact_dir is None else str(artifact_dir)
        #: Local (forked) worker count; ``workers`` is the total slot
        #: count the executor splits over.
        self.local_workers = int(workers)
        self.workers = self.local_workers + len(self.remote_endpoints)
        self._remote_factory = (
            socket.create_connection if remote_socket_factory is None
            else remote_socket_factory
        )
        self.verify = verify
        self.start_timeout_s = start_timeout_s
        self.max_attempts = int(max_attempts)
        self.attempt_timeout_s = float(attempt_timeout_s)
        self.max_respawns = int(max_respawns)
        self.respawn_backoff_s = float(respawn_backoff_s)
        self.fault_plan = (
            WorkerFaults.from_env() if fault_plan is None else fault_plan
        )
        # fork keeps startup cheap (no re-import of numpy per worker) and
        # lets children inherit the already-built twiddle tables; workers
        # still load_zoo their own registry, per the artifact discipline.
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._slots: list[_Slot] = []
        self.model_names: list[str] = []
        self._pending: dict[str, _PendingTask] = {}
        self._lock = threading.Lock()
        #: Notified (pool lock held) whenever a pending task is dispatched,
        #: claimed, moved or resolved and whenever a slot turns ready,
        #: fails, is abandoned or changes ``draining``: what start(),
        #: execute(), drains and upgrade swaps wait on.
        self._changed = threading.Condition(self._lock)
        self._next_task = 0
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        # Live key frames (key_id -> encoded ``keys`` frame), replayed
        # into the fresh channel of every respawned worker.
        self._key_lock = threading.Lock()
        self._key_blobs: dict[str, bytes] = {}
        self._fatal: str | None = None
        self.retries_total = 0
        self.respawns_total = 0
        #: Slots currently inside a rolling-upgrade drain/swap/rejoin
        #: window (exported as the ``upgrading_slots`` gauge) and how many
        #: whole-pool upgrades have completed.
        self.upgrading_slots = 0
        self.upgrades_total = 0
        #: Serialises rolling upgrades: one at a time, pool-wide, so the
        #: one-slot-out-at-a-time quorum argument holds.
        self._upgrade_lock = threading.Lock()
        # IPC accounting (coordinator side, pool lock held): frame bytes on
        # local vs remote streams, and the task/ping dispatches they
        # amortize over.
        self._ipc = {"pickled_bytes": 0, "remote_bytes": 0, "tasks": 0}

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "ShardPool":
        """Bring up every worker and block until each reports ready.

        A worker that fails or dies *during* startup (before readiness)
        ends the wait at once: every sibling is killed and
        :class:`ShardError` raised rather than waiting out
        ``start_timeout_s``.
        """
        if self._slots:
            raise ShardError("shard pool already started")
        endpoints = [None] * self.local_workers + self.remote_endpoints
        self._slots = [
            _Slot(worker_id, endpoint)
            for worker_id, endpoint in enumerate(endpoints)
        ]
        for slot in self._slots:
            self._spawn(slot)
        with self._changed:
            self._changed.wait_for(
                lambda: any(slot.last_error for slot in self._slots)
                or all(slot.ready for slot in self._slots),
                timeout=self.start_timeout_s,
            )
            failed = next(
                (slot for slot in self._slots if slot.last_error), None
            )
            ready = all(slot.ready for slot in self._slots)
        if failed is not None or not ready:
            # No drain: kill every worker at once, then the usual stop.
            for slot in self._slots:
                if slot.channel is not None:
                    slot.channel.kill()
            self.stop(timeout_s=5.0)
            raise ShardError(
                f"shard worker {failed.worker_id} failed: {failed.last_error}"
                if failed is not None else
                f"shard worker(s) did not report ready within "
                f"{self.start_timeout_s:.0f}s"
            )
        self._monitor = threading.Thread(
            target=self._supervise, name="repro-shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def _open_channel(self, slot: _Slot):
        """A fresh channel to ``slot``'s worker: the one place fabrics differ."""
        if slot.endpoint is not None:
            return _Channel.connect(
                slot.endpoint, self._remote_factory, _REMOTE_CONNECT_TIMEOUT_S
            )
        return _Channel.fork(self._ctx, (
            slot.worker_id, slot.incarnation, self.artifact_dir, self.verify,
            self.fault_plan,
        ))

    def _spawn(self, slot: _Slot) -> None:
        """Bring up one worker in ``slot`` (first start or respawn).

        Every incarnation gets a fresh channel -- a SIGKILLed process
        (or a cut link) can leave its old one mid-write, so channels are
        never reused -- and a collector thread that drains it.  Every
        live key frame is replayed into the channel *before* it becomes
        visible to :meth:`broadcast_keys` and dispatch, so the worker's
        FIFO is complete: replayed history, then whatever is broadcast
        from now on, then tasks.  A channel that cannot be opened
        (refused connection, fork failure) counts like a death: backoff,
        retry, and eventually slot abandonment.
        """
        try:
            channel = self._open_channel(slot)
        except (OSError, ValueError) as exc:
            with self._changed:
                slot.last_error = f"{type(exc).__name__}: {exc}"
                self._changed.notify_all()
            if self._monitor is not None:
                self._retire(slot, None, planned=False)
            return
        with self._key_lock:
            for frame in self._key_blobs.values():
                channel.send_encoded(frame)
            with self._lock:
                slot.channel = channel
        threading.Thread(
            target=self._collect,
            args=(slot, channel),
            name=f"repro-shard-collect-{slot.worker_id}.{slot.incarnation}",
            daemon=True,
        ).start()

    def stop(self, timeout_s: float = 10.0) -> None:
        """Drain-stop the pool: workers finish their current task and exit."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=2.0)
        channels = [s.channel for s in self._slots if s.channel is not None]
        for channel in channels:
            channel.stop()
        deadline = time.monotonic() + timeout_s
        for channel in channels:
            channel.retire(max(0.1, deadline - time.monotonic()))
        # Fail anything still pending so no submitter blocks forever.
        self._fail_all_pending("shard pool stopped with tasks in flight")

    def _check_running(self) -> None:
        if self._monitor is None or self._stopping.is_set():
            raise ShardError("shard pool is not running")
        if self._fatal is not None:
            raise ShardError(self._fatal)

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def alive_workers(self) -> int:
        return sum(slot.alive() for slot in self._slots)

    def available_workers(self) -> int:
        """Worker slots still in service (alive or pending respawn)."""
        return sum(1 for slot in self._slots if not slot.abandoned)

    def draining_workers(self) -> list[int]:
        """Worker ids currently excluded from dispatch by a drain."""
        return [slot.worker_id for slot in self._slots if slot.draining]

    # -- live upgrades ------------------------------------------------------

    def _slot_by_id(self, worker_id: int) -> _Slot:
        if not 0 <= int(worker_id) < len(self._slots):
            raise ShardError(f"no shard worker slot {worker_id}")
        return self._slots[int(worker_id)]  # start() numbers slots in order

    def _inflight_locked(self, slot: _Slot) -> list[_PendingTask]:
        """Unresolved tasks assigned to ``slot``, any incarnation (lock held)."""
        return [
            pending
            for pending in self._pending.values()
            if pending.assigned is not None
            and pending.assigned[0] == slot.worker_id
        ]

    def drain_worker(self, worker_id: int, wait_s: float = 30.0) -> dict:
        """Stop dispatching to one worker and wait out its in-flight tasks.

        The admin surface for taking a worker out of rotation without
        killing it (inspect it, let the host drain, ...).  The slot keeps
        its process, channels, and cached keys; :meth:`resume_worker`
        puts it back into dispatch.  Returns the drain outcome, including
        how many tasks were still in flight when ``wait_s`` ran out.
        """
        slot = self._slot_by_id(worker_id)
        if slot.abandoned:
            raise ShardError(f"shard worker slot {worker_id} is abandoned")
        with self._changed:
            slot.draining = True
            self._changed.notify_all()
            self._changed.wait_for(
                lambda: not self._inflight_locked(slot),
                timeout=max(0.0, float(wait_s)),
            )
            inflight = len(self._inflight_locked(slot))
        return {
            "worker": slot.worker_id,
            "draining": True,
            "inflight": inflight,
        }

    def resume_worker(self, worker_id: int) -> dict:
        """Put a drained worker back into dispatch rotation."""
        slot = self._slot_by_id(worker_id)
        with self._changed:
            slot.draining = False
            self._changed.notify_all()
        return {"worker": slot.worker_id, "draining": False}

    def rolling_upgrade(self, artifact_dir=None) -> dict:
        """Swap every worker onto a new artifact zoo with no serving gap.

        One slot at a time, three steps: drain it (the wait of
        :meth:`drain_worker`, at most ``_UPGRADE_DRAIN_TIMEOUT_S``), retire
        it as planned (:meth:`_retire`; the supervisor respawns it at once
        -- local slots fork and ``load_zoo`` ``artifact_dir``, remote slots
        reconnect and the :class:`ShardWorkerServer` re-reads its own zoo
        when the manifest generation on disk moved), then wait up to
        ``start_timeout_s`` for the new worker's readiness before touching
        the next slot -- so at most one slot is ever out of rotation and
        :meth:`available_workers` (the executor's quorum input) never
        drops.  A slot an admin had drained is swapped too and stays
        drained.

        ``artifact_dir=None`` re-rolls onto the current directory (the
        regenerated-in-place case).  Upgrades are serialised pool-wide.
        A worker that dies mid-drain or crashes right after its swap goes
        the normal death path (requeue onto siblings, respawn with
        backoff), and the upgrade waits for the slot to come back.  Raises
        :class:`ShardError` when a slot cannot rejoin (it is then
        abandoned, like any other permanent failure).
        """
        self._check_running()
        if artifact_dir is not None and self.local_workers > 0:
            from ..artifacts.zoo import zoo_files

            # Validate the new zoo before any slot is touched: a broken
            # directory must fail the upgrade, not strand the fleet.
            if not zoo_files(artifact_dir):
                raise ShardError(f"no artifacts found in {artifact_dir}")
        with self._upgrade_lock:
            if artifact_dir is not None and self.local_workers > 0:
                self.artifact_dir = str(artifact_dir)
            upgraded, skipped = [], []
            for slot in list(self._slots):
                if slot.abandoned:
                    skipped.append(slot.worker_id)
                    continue
                admin_drained = slot.draining
                self.upgrading_slots += 1  # written under _upgrade_lock only
                try:
                    self.drain_worker(slot.worker_id, _UPGRADE_DRAIN_TIMEOUT_S)
                    # A worker that died mid-drain is swapped once its
                    # respawn is ready: that spawn may have started
                    # before ``artifact_dir`` moved.
                    self._retire(slot, self._await_ready(slot), planned=True)
                    self._await_ready(slot)
                finally:
                    with self._changed:
                        slot.draining = admin_drained
                        self.upgrading_slots -= 1
                        self._changed.notify_all()
                upgraded.append(slot.worker_id)
            self.upgrades_total += 1
        return {
            "upgraded": upgraded,
            "skipped": skipped,
            "artifact_dir": self.artifact_dir,
        }

    def _await_ready(self, slot: _Slot):
        """Wait ``start_timeout_s`` for ``slot`` to be ready -> its channel.

        Raises :class:`ShardError` when the pool stops, the slot is
        abandoned, or the wait runs out first.
        """
        with self._changed:
            self._changed.wait_for(
                lambda: self._stopping.is_set() or slot.abandoned or slot.ready,
                timeout=self.start_timeout_s,
            )
            if self._stopping.is_set():
                raise ShardError("shard pool stopped during upgrade")
            if not slot.ready:  # abandoned, or out of time
                raise ShardError(
                    f"worker {slot.worker_id} did not rejoin its upgrade"
                    + (f": {slot.last_error}" if slot.last_error else "")
                )
            return slot.channel

    # -- supervision --------------------------------------------------------

    def _supervise(self) -> None:
        """Monitor loop: detect deaths, respawn, un-stall, fail fast.

        Once the pool is up this is the only thread that spawns: it
        claims a slot's due respawn under the pool lock, whichever retire
        scheduled it.  Deaths are found by polling channel liveness: a
        collector that sees its stream fail only marks the channel dead.
        """
        while not self._stopping.is_set():
            now = time.monotonic()
            for slot in self._slots:
                channel = slot.channel
                if channel is not None:
                    if not channel.alive():
                        self._retire(slot, channel, planned=False)
                    continue
                with self._lock:
                    due = slot.respawn_at is not None and now >= slot.respawn_at
                    if due:
                        slot.respawn_at = None
                if due:
                    self._spawn(slot)
            self._check_stalls(now)
            with self._lock:  # re-dispatch parked tasks
                for pending in self._pending.values():
                    if pending.assigned is None:
                        self._dispatch_locked(pending)
            if self._fatal is None and all(
                slot.abandoned for slot in self._slots
            ):
                self._fatal = (
                    "all shard workers failed permanently "
                    f"(each died > {self.max_respawns} times)"
                )
                logger.error("%s", self._fatal)
            if self._fatal is not None:
                self._fail_all_pending(self._fatal)
            self._stopping.wait(0.05)

    def _retire(self, slot: _Slot, channel, planned: bool) -> None:
        """Take ``channel`` out of ``slot``: requeue, retire, schedule.

        The one way a worker leaves its slot, whether it died (``channel``
        is dead, or ``None`` when it could not be brought up) or a
        rolling upgrade swaps it (``planned``).  The incarnation's
        in-flight tasks requeue onto siblings, the channel is retired --
        at once when the worker is dead, by a drain-stop with a bounded
        wait when planned -- and the slot's next incarnation is scheduled
        for the supervisor to spawn.  The two differ only in accounting:
        a death adds to ``deaths`` and ``respawns_total``, backs off
        exponentially and abandons the slot after ``max_respawns``; a
        planned retire respawns at once and counts nothing.  A ``channel``
        that is no longer the slot's (the other kind of retire took it
        first) is left alone.
        """
        with self._lock:
            if slot.channel is not channel:
                return
            slot.channel = None
            slot.ready = False
            incarnation = (slot.worker_id, slot.incarnation)
            orphans = [
                pending
                for pending in self._pending.values()
                if pending.assigned == incarnation
            ]
        what = f"worker {slot.worker_id} " + (
            "swapped for upgrade" if planned else "died"
        )
        for pending in orphans:
            self._retry(pending, what)
        if channel is not None:
            if planned:
                # Drain-stop: the worker reads EOF after what is queued
                # and exits its loop cleanly; retire's kill is the
                # backstop.
                channel.stop()
            channel.retire(5.0 if planned else 0.0)
        cause = [] if planned else [slot.last_error, channel and channel.exit_status()]
        logger.log(
            logging.INFO if planned else logging.WARNING,
            "shard %s (incarnation %d)%s; requeued %d task(s)",
            what, slot.incarnation,
            "".join(f": {part}" for part in cause if part), len(orphans),
        )
        with self._changed:
            if planned:
                slot.respawn_at = time.monotonic()
            else:
                slot.deaths += 1
                if slot.deaths > self.max_respawns:
                    slot.abandoned = True
                    logger.error(
                        "abandoning shard worker slot %d after %d deaths",
                        slot.worker_id, slot.deaths,
                    )
                else:
                    self.respawns_total += 1
                    slot.respawn_at = time.monotonic() + (
                        self.respawn_backoff_s * 2 ** (slot.deaths - 1)
                    )
            if not slot.abandoned:
                slot.incarnation += 1
            self._changed.notify_all()

    def _check_stalls(self, now: float) -> None:
        """Retry attempts that have made no progress for attempt_timeout_s.

        Covers the claim-gap race (a worker killed between reading a
        task and claiming it), hung workers, and replies lost with a
        corpse's stream.  A spurious retry is safe: replays are bit-identical, the
        first ``ok`` reply wins, and later duplicates are dropped
        without folding their counters.
        """
        with self._lock:
            stalled = [
                pending
                for pending in self._pending.values()
                if now - (pending.claimed_at or pending.dispatched_at)
                > self.attempt_timeout_s
            ]
        for pending in stalled:
            self._retry(pending, "attempt stalled")

    def _eligible_slot(self) -> _Slot | None:
        """The least-loaded live worker slot (requires ``self._lock``)."""
        counts = Counter(pending.assigned for pending in self._pending.values())
        return min(
            (slot for slot in self._slots
             if not slot.draining and slot.alive()),
            key=lambda slot: counts[(slot.worker_id, slot.incarnation)],
            default=None,
        )

    def _dispatch_locked(self, pending: _PendingTask) -> None:
        """Dispatch (requires ``self._lock``); parks when no worker is live."""
        pending.claimed_at = None
        pending.dispatched_at = time.monotonic()
        if pending.first_dispatched_at is None:
            pending.first_dispatched_at = pending.dispatched_at
        slot = self._eligible_slot()
        if slot is None:
            pending.assigned = None  # parked; the supervisor re-dispatches
            return
        pending.assigned = (slot.worker_id, slot.incarnation)
        pending.request.meta["attempt"] = pending.attempt
        stat = "remote_bytes" if slot.endpoint else "pickled_bytes"
        self._ipc[stat] += slot.channel.send(pending.request)
        self._ipc["tasks"] += 1
        self._changed.notify_all()  # a slot's in-flight count moved

    def _retry(self, pending: _PendingTask, reason: str) -> None:
        """Requeue one task with a bumped attempt, or fail it out."""
        with self._changed:
            if pending.reply is not None:
                return
            # Either way the task leaves the slot it was on: wake drains.
            self._changed.notify_all()
            pending.attempt += 1
            if pending.attempt >= self.max_attempts:
                self._fail_locked(
                    pending,
                    f"shard task {pending.request.meta.get('task')} exhausted "
                    f"{self.max_attempts} attempts ({reason})",
                )
                return
            self.retries_total += 1
            logger.warning(
                "requeueing shard task %s (attempt %d/%d): %s",
                pending.request.meta.get("task"), pending.attempt + 1,
                self.max_attempts, reason,
            )
            self._dispatch_locked(pending)

    def _fail_locked(self, pending: _PendingTask, reason: str) -> None:
        """Resolve one task with an error reply (pool condition held)."""
        task_id = pending.request.meta.get("task", "?")
        self._pending.pop(str(task_id), None)
        pending.reply = Message(
            "result", {"task": task_id, "status": "error", "reason": reason}
        )

    def _fail_all_pending(self, reason: str) -> None:
        with self._changed:
            for pending in list(self._pending.values()):
                self._fail_locked(pending, reason)
            self._changed.notify_all()  # also wakes waits on _stopping

    # -- key distribution ---------------------------------------------------

    def broadcast_keys(self, key_id: str, model: str, blob: bytes) -> None:
        """Ship one session's Galois keys to every worker (cached there).

        The frame is retained coordinator-side until :meth:`drop_keys` so
        it can be replayed to respawned workers.
        """
        frame = encode_message(
            Message("keys", {"key_id": key_id, "model": model}, [blob])
        )
        with self._key_lock:
            self._key_blobs[key_id] = frame
            self._broadcast_locked(frame)

    def drop_keys(self, key_id: str) -> None:
        """Tell every worker to forget a session's keys (close/eviction)."""
        frame = encode_message(Message("drop_keys", {"key_id": key_id}))
        with self._key_lock:
            self._key_blobs.pop(key_id, None)
            self._broadcast_locked(frame)

    def _broadcast_locked(self, frame: bytes) -> None:
        """Fan one key frame out to every live channel (key lock held).

        A slot that is down misses nothing: its next channel starts with
        a replay of every live key frame.  Key traffic is not part of
        the per-task IPC tallies.
        """
        for slot in self._slots:
            channel = slot.channel
            if channel is not None and channel.alive():
                channel.send_encoded(frame)

    # -- task execution -----------------------------------------------------

    def _collect(self, slot: _Slot, channel) -> None:
        """Drain one channel incarnation (one thread each) until it closes.

        The channel's first frame is the worker's readiness report
        (``shard_ready`` with the zoo it actually loaded, or ``error``
        when warm-up failed); everything after is ``claimed`` / ``result``
        traffic.  A channel that closes before reporting ready is a
        startup death.  After a respawn supersedes this channel the
        thread keeps draining leftover replies until the channel reports
        closed.
        """
        while (received := channel.recv()) is not None:
            reply, frame_bytes = received
            try:
                if reply.kind == "shard_ready":
                    with self._changed:
                        if slot.channel is channel:
                            slot.ready = True
                            # After a rolling upgrade this is the new
                            # generation's model list, which
                            # prepare_keys validates against.
                            self.model_names = list(reply.require("models"))
                            self._changed.notify_all()
                elif reply.kind == "error":
                    with self._changed:
                        slot.last_error = str(reply.meta.get("reason", ""))
                        self._changed.notify_all()
                else:
                    self._handle_reply(slot, reply, frame_bytes)
            except Exception:  # never let a bad frame kill collection
                logger.exception("discarding malformed shard reply")
        with self._changed:
            if slot.channel is channel and not slot.ready and not slot.last_error:
                slot.last_error = "died during startup (before readiness)"
            self._changed.notify_all()

    def _handle_reply(self, slot: _Slot, reply: Message, frame_bytes: int) -> None:
        task_id = str(reply.meta.get("task"))
        with self._changed:
            stat = "remote_bytes" if slot.endpoint else "pickled_bytes"
            self._ipc[stat] += frame_bytes
            pending = self._pending.get(task_id)
            if pending is None:
                # Duplicate of an already-accepted task (spurious
                # requeue) or a reply to an abandoned one: dropped, its
                # counters never folded twice.
                return
            self._changed.notify_all()  # claimed or resolved: it moved
            if reply.kind == "claimed":
                if attempt_of(reply) == pending.attempt:
                    pending.claimed_at = time.monotonic()
                return
            if reply.meta.get("status") == "ok":
                # First ok reply wins, whatever attempt produced it --
                # replays are bit-identical by construction.
                if TRACE_META_KEY in pending.request.meta:
                    # Coordinator-clock envelope for the trace: first
                    # dispatch -> this receive (plus which attempt and
                    # worker won), so the executor can record the shard
                    # span and anchor the worker's offset spans inside it.
                    reply.meta["env"] = {
                        "first_dispatch": pending.first_dispatched_at,
                        "dispatch": pending.dispatched_at,
                        "recv": time.monotonic(),
                        "attempt": pending.attempt,
                        "worker": (
                            pending.assigned[0]
                            if pending.assigned is not None else None
                        ),
                    }
            elif attempt_of(reply) != pending.attempt:
                # A stale attempt failing is not news: its replacement
                # is already dispatched.
                return
            self._pending.pop(task_id, None)
            pending.reply = reply

    def execute(
        self, requests: list[Message], deadline: float | None = None
    ) -> list[Message]:
        """Run task messages on the pool; blocks until all replies arrive.

        Thread-safe (the engine calls this from many transport threads).
        Task ids are assigned here; replies are returned in request
        order.  ``deadline`` is an absolute ``time.monotonic()`` instant
        propagated into task frames (workers skip expired work) and
        enforced here.

        Worker death no longer fails the call: the supervisor requeues
        the dead worker's tasks onto the survivors (or the respawned
        worker) and only a task that exhausts ``max_attempts`` -- or a
        pool whose every slot is abandoned -- raises
        :class:`ShardError`.
        """
        self._check_running()
        now = time.monotonic()
        pendings = []
        with self._lock:
            for request in requests:
                task_id = f"t{self._next_task}"
                self._next_task += 1
                request.meta["task"] = task_id
                request.meta["attempt"] = 0
                if deadline is not None:
                    request.meta["deadline_mono"] = float(deadline)
                pending = _PendingTask(request)
                self._pending[task_id] = pending
                pendings.append((task_id, pending))
                self._dispatch_locked(pending)
        hard_deadline = now + _TASK_TIMEOUT_S
        if deadline is not None:
            hard_deadline = min(hard_deadline, deadline)
        with self._changed:
            self._changed.wait_for(
                lambda: all(pending.reply is not None for _, pending in pendings),
                timeout=max(0.0, hard_deadline - time.monotonic()),
            )
        replies = []
        for task_id, pending in pendings:
            reply = pending.reply
            if reply is None or reply.meta.get("status") != "ok":
                with self._changed:  # the call is over: forget its tasks
                    for other_id, _ in pendings:
                        self._pending.pop(other_id, None)
                    self._changed.notify_all()
                raise ShardError(
                    str(reply.meta.get("reason", "unknown shard error"))
                    if reply is not None else
                    f"shard task {task_id} timed out"
                    + (
                        " (request deadline exceeded)"
                        if deadline is not None and hard_deadline == deadline
                        else f" after {_TASK_TIMEOUT_S:.0f}s"
                    )
                )
            replies.append(reply)
        return replies

    def ping(self, count: int | None = None) -> list[Message]:
        """Round-trip ``count`` no-op tasks (worker/model/key introspection).

        Dispatch is least-loaded, so ``count`` concurrent pings spread
        across ``count`` live workers -- with a single-worker pool this
        is deterministic, which is what the tests use it for.
        """
        count = self.workers if count is None else count
        return self.execute([Message("ping", {}) for _ in range(count)])

    def ipc_stats(self) -> dict:
        """Coordinator-side IPC byte accounting (``shards.*_bytes_per_task``).

        ``pickled_bytes`` (a name older than the socketpair) crossed forked
        workers' streams, ``remote_bytes`` remote ones: both directions,
        over ``tasks`` dispatches.
        """
        with self._lock:
            return dict(self._ipc)


@dataclass
class _ShardKeyHandle:
    """What a sharded session stores instead of deserialized Galois keys."""

    key_id: str


class ShardExecutor:
    """Adapt a :class:`ShardPool` to the engine's execution-backend seam.

    Splitting policy (bit-identical, see module docstring): ``B``
    batched requests are split into ``min(B, workers)`` contiguous row
    chunks, one task each -- zero duplicated work, so HE op counters
    stay identical to single-process execution, which the conformance
    suite asserts.  A single request is one task on one worker.

    ``quorum`` is the minimum number of in-service worker slots this
    executor requires: when attrition drops the pool below it, every
    ``execute`` raises :class:`ShardError` up front so the engine can
    degrade to its in-process executor instead of queueing onto a husk.
    """

    def __init__(self, pool: ShardPool, quorum: int = 1):
        self.pool = pool
        self.quorum = int(quorum)
        #: Set by a tracing-enabled engine: shard dispatch envelopes and
        #: piggybacked worker spans are recorded against request traces.
        self.tracer = None
        # Key ids on the wire are scoped per executor *and* per upload:
        # several engines may share one pool, and their session ids all
        # start at "s0".  Scoping makes every broadcast's id unique, so
        # "already cached" implies "exactly the right keys" and a worker
        # can never serve a task with a stale cache entry.
        self._scope = uuid.uuid4().hex[:12]
        self._scoped: dict[str, str] = {}
        self._uploads = 0
        self._lock = threading.Lock()

    # -- executor contract --------------------------------------------------

    def prepare_keys(self, entry, key_id, blob, keys):
        if entry.name not in self.pool.model_names:
            raise ShardError(
                f"model {entry.name!r} is not in the shard workers' artifact "
                f"set {self.pool.model_names} -- sharded serving requires the "
                f"registry and the pool to load the same artifact directory"
            )
        with self._lock:
            self._uploads += 1
            scoped = f"{self._scope}:{key_id}:{self._uploads}"
            previous = self._scoped.get(key_id)
            self._scoped[key_id] = scoped
        if previous is not None:
            self.pool.drop_keys(previous)
        self.pool.broadcast_keys(scoped, entry.name, blob)
        return _ShardKeyHandle(scoped)

    def release_keys(self, key_id):
        with self._lock:
            scoped = self._scoped.pop(key_id, None)
        if scoped is not None and not self.pool._stopping.is_set():
            self.pool.drop_keys(scoped)

    def execute(self, entry, layer, batch_inputs, batch_handles, deadline=None,
                trace=None):
        available = self.pool.available_workers()
        if available < self.quorum:
            raise ShardError(
                f"shard pool below quorum: {available} worker slot(s) in "
                f"service, need {self.quorum}"
            )
        batch = len(batch_inputs)
        key_ids = [handle.key_id for handle in batch_handles]
        ctxs = list(trace or [])
        ctxs += [None] * (batch - len(ctxs))
        shards = min(batch, max(1, self.pool.workers))
        bounds = [round(i * batch / shards) for i in range(shards + 1)]
        spans = [bounds[i : i + 2] for i in range(shards)
                 if bounds[i] < bounds[i + 1]]
        tasks = [
            self._task(entry, layer, batch_inputs[lo:hi], key_ids[lo:hi],
                       ctxs[lo:hi])
            for lo, hi in spans
        ]
        replies = self.pool.execute(tasks, deadline=deadline)
        outputs = []
        for (lo, hi), reply in zip(spans, replies):
            self._trace_task(ctxs[lo:hi], reply)
            outputs.extend(self._parse_outputs(entry, reply))
        return outputs

    # -- tasks --------------------------------------------------------------

    def _task(self, entry, layer, chunk_inputs, chunk_key_ids, trace_ctxs):
        meta = {
            "model": entry.name,
            "layer": layer.name,
            "key_ids": list(chunk_key_ids),
            "cts_per_request": [len(cts) for cts in chunk_inputs],
        }
        traced = next((ctx for ctx in trace_ctxs if ctx is not None), None)
        if traced is not None:
            # The task only needs to know *that* it is traced (workers
            # key their span logs off this); parenting happens entirely
            # coordinator-side, per participating request.
            meta[TRACE_META_KEY] = {"trace_id": traced.trace_id}
        blobs = [
            serialize_ciphertext(ct, entry.params)
            for cts in chunk_inputs
            for ct in cts
        ]
        return Message("task", meta, blobs)

    def _trace_task(self, ctxs, reply: Message) -> None:
        """Record one accepted task's spans into each participating trace.

        The ``shard_task`` span is the coordinator-clock envelope (first
        dispatch of attempt 0 to accepted receive); when the accepted
        reply came from a retry, the lost attempt's window shows up as a
        sibling ``shard_requeue`` span (first dispatch to the winning
        re-dispatch) rather than disappearing.  Worker offset spans are
        anchored inside the envelope by :meth:`Tracer.ingest`.
        """
        tracer = self.tracer
        if tracer is None or not tracer.enabled:
            return
        env = reply.meta.get("env")
        if not isinstance(env, dict):
            return
        first = env.get("first_dispatch")
        dispatch = env.get("dispatch")
        recv = env.get("recv")
        if first is None or dispatch is None or recv is None:
            return
        attempts = int(env.get("attempt") or 0)
        worker = env.get("worker")
        task_id = reply.meta.get("task")
        worker_spans = reply.meta.get("spans") or []
        for ctx in ctxs:
            if ctx is None:
                continue
            span_id = tracer.record(
                ctx.trace_id, "shard_task", first, recv,
                parent_id=ctx.span_id,
                task=task_id, worker=worker, attempts=attempts,
            )
            if attempts > 0:
                tracer.record(
                    ctx.trace_id, "shard_requeue", first, dispatch,
                    parent_id=ctx.span_id, task=task_id, attempts=attempts,
                )
            tracer.ingest(
                ctx.trace_id, span_id, worker_spans, dispatch, recv,
                worker=worker,
            )

    def _parse_outputs(self, entry, reply: Message):
        """Deserialize a reply's ciphertexts and fold in its op counters.

        Only *accepted* replies reach this point (the pool's collectors
        drop duplicates and stale attempts), so each task's counter
        delta is folded exactly once no matter how many attempts ran.
        """
        GLOBAL_COUNTERS.fold(reply.meta.get("counters", {}))
        outputs, offset = [], 0
        for count in reply.meta.get("outputs_per_request", []):
            count = int(count)
            outputs.append(
                [
                    deserialize_ciphertext(blob, entry.params)
                    for blob in reply.blobs[offset : offset + count]
                ]
            )
            offset += count
        return outputs


# -- remote worker server -----------------------------------------------------


class ShardWorkerServer:
    """A standalone remote shard worker (``repro shard-worker``).

    Runs on any host that can reach the same ``.rpa`` artifact
    directory: the zoo is ``load_zoo``'d eagerly at :meth:`start` (so a
    bad artifact dir fails before the port is announced), then every
    coordinator connection is a ``shard_hello`` followed by the one
    worker loop the forked workers run (:func:`_serve_shard`) over the
    framed TCP stream.

    Per-connection state is only the Galois-key cache: a coordinator
    that reconnects replays every live key blob before dispatching (see
    :meth:`ShardPool._spawn`), so dropping the cache with the
    connection is exactly right.

    Binding ``port=0`` picks a free port (``host``/``port``/
    ``endpoint`` report the bound address), which is what tests use to
    avoid port races.
    """

    def __init__(
        self,
        artifact_dir,
        host: str = "127.0.0.1",
        port: int = 0,
        verify: bool | str = True,
        fault_plan: WorkerFaults | None = None,
    ):
        self.artifact_dir = str(artifact_dir)
        self._requested = (str(host), int(port))
        self.verify = verify
        self.fault_plan = (
            WorkerFaults.from_env() if fault_plan is None else fault_plan
        )
        self.registry = None
        self.host: str | None = None
        self.port: int | None = None
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._conns: set[socket.socket] = set()
        self._conn_lock = threading.Lock()
        self._stopping = threading.Event()
        self.reloads_total = 0

    @property
    def endpoint(self) -> str:
        """The ``tcp://host:port`` spec coordinators pass as an endpoint."""
        if self.host is None:
            raise ShardError("shard worker server is not started")
        return f"tcp://{self.host}:{self.port}"

    def start(self) -> "ShardWorkerServer":
        if self._listener is not None:
            raise ShardError("shard worker server already started")
        from ..artifacts.zoo import load_zoo

        self.registry = load_zoo(self.artifact_dir, verify=self.verify)
        self._listener = bind_listener(*self._requested)
        self.host, self.port = self._listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"repro-shard-worker-{self.port}",
            daemon=True,
        )
        self._accept_thread.start()
        logger.info("shard worker serving %s on %s",
                    self.registry.names(), self.endpoint)
        return self

    def stop(self) -> None:
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._listener is not None:
            # Poke the accept loop awake so it observes _stopping.
            with contextlib.suppress(OSError):
                socket.create_connection((self.host, self.port), 1.0).close()
            self._listener.close()
        with self._conn_lock:
            conns = list(self._conns)
        for conn in conns:
            with contextlib.suppress(OSError):
                conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)

    def __enter__(self) -> "ShardWorkerServer":
        return self.start()

    def __exit__(self, *_exc) -> None:
        self.stop()

    def _maybe_reload(self) -> None:
        """Pick up a regenerated zoo when the manifest generation moved.

        Called on every new coordinator connection, which is exactly when
        a rolling upgrade reaches this worker: the coordinator drains the
        slot, drops the connection, and reconnects -- the new channel's
        ``shard_hello`` then serves as the upgrade trigger.  In-flight
        tasks on *other* connections keep their already-resolved registry
        entries (read-copy-update, same as
        :meth:`~repro.serving.registry.ModelRegistry.reload_zoo`, which
        also serialises concurrent handshakes and no-ops at the
        generation already served).  A reload failure is logged and the
        current generation keeps serving: availability beats freshness
        for a worker.
        """
        from ..artifacts.format import ArtifactError

        try:
            summary = self.registry.reload_zoo(verify=self.verify)
        except ArtifactError as exc:
            logger.warning(
                "shard worker keeping zoo generation %d (reload of %s "
                "failed: %s)",
                self.registry.zoo_generation, self.artifact_dir, exc,
            )
            return
        if summary["applied"]:
            with self._conn_lock:  # handshakes run on their own threads
                self.reloads_total += 1
            logger.info(
                "shard worker reloaded zoo %s: generation %d -> %d",
                self.artifact_dir, summary["previous_generation"],
                summary["generation"],
            )

    # -- connection handling ------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed by stop()
            if self._stopping.is_set():
                conn.close()
                return
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_conn,
                args=(conn, addr),
                name=f"repro-shard-worker-conn-{addr[1]}",
                daemon=True,
            ).start()

    def _serve_conn(self, conn: socket.socket, addr) -> None:
        """One coordinator connection: ``shard_hello``, then the worker loop.

        Any protocol violation or stream failure closes the connection;
        the coordinator's supervision treats that as a worker death and
        reconnects with a full key replay, so there is nothing to
        salvage here (crash-only, like the forked workers).
        """
        recv, send = _stream_endpoints(conn, self._stopping)
        try:
            hello = recv()
            if hello is None:
                return
            if hello.kind != "shard_hello":
                raise ValueError(f"expected shard_hello, got {hello.kind!r}")
            self._maybe_reload()
            _serve_shard(
                recv, send, self.registry, -1, 0, self.fault_plan, forked=False
            )
        except (OSError, ValueError) as exc:
            if not self._stopping.is_set():
                logger.warning(
                    "shard worker connection from %s failed: %s", addr, exc
                )
        finally:
            with self._conn_lock:
                self._conns.discard(conn)
            with contextlib.suppress(OSError):
                conn.close()
