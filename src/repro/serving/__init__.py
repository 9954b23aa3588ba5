"""Session-oriented serving runtime for private inference over the wire.

Everything PR 1-2 made fast (the batched RNS-NTT engine, compiled
linear-layer plans) becomes reachable by remote clients here: a
:class:`ServingEngine` terminates the Gazelle-style protocol rounds over
the :mod:`repro.bfv.serialize` wire format, a :class:`ModelRegistry`
amortises plan compilation across sessions, and concurrently pending
requests for the same layer are merged into single stacked ``(k, B, n)``
engine calls (cross-client batching).  Clients drive sessions with
:class:`ClientSession` over an in-process :class:`LoopbackTransport` or
a TCP :class:`SocketTransport` to the server's :class:`AsyncGateway`.  Plan
math runs in-process by default (:class:`LocalExecutor`) or across a
pool of forked worker processes memmapping the same ``.rpa`` artifacts
(:class:`ShardPool` + :class:`ShardExecutor`, which splits a batch by
request rows -- bit-identical outputs at identical op counts).  Every
shard worker speaks one framed stream: a socketpair to a forked worker,
TCP to a remote one (:class:`ShardWorkerServer`, ``repro
shard-worker``), so a fleet of hosts memmapping the same artifacts
serves one model.

One front end terminates TCP: the event-driven :class:`AsyncGateway`
multiplexes sessions onto an asyncio loop, bridges engine calls through
a small executor pool, sheds ``linear`` load past its in-flight bound
(the engine's :class:`AdmissionController` adds tenant quotas), and
serves the engine's metrics snapshot (:class:`MetricsRegistry`) over
HTTP on the same port.  The conformance suite pins it to bit-identical outputs
against every other execution path.

Observability is one :class:`Tracer` threaded through all of the above:
the gateway mints per-request root spans, the engine and batcher hang
admission/deserialize/batch-wait/execute/blind/serialize children off
them, and shard workers ship their own deserialize/compute/serialize
spans back inside result frames to be stitched under the coordinator's
dispatch envelopes.  Traces export as Chrome ``trace_event`` JSON
(``repro trace``, ``--trace-dir``), per-span structured log lines
(:func:`configure_logging`), and per-stage latency histograms inside
the ``/metrics`` snapshot; ``/healthz`` and Prometheus text exposition
ride the same HTTP surface.

Deployments stay live while they change: the zoo manifest carries a
monotonic generation, :meth:`ModelRegistry.reload_zoo` atomically swaps
in a new generation (in-flight rounds finish on their pinned entries),
:meth:`ShardPool.rolling_upgrade` drains and warm-respawns workers one
at a time so quorum is never violated, and an authenticated ``admin``
wire message (:func:`admin_message`, ``repro admin``) drives it all
from the operator's terminal.
"""

from .admission import AdmissionController, TokenBucket, busy_message
from .engine import (
    ExecutionBackendError,
    LocalExecutor,
    ServingEngine,
    SessionState,
)
from .faults import ConnectionFaults, WorkerFaults
from .gateway import AsyncGateway
from .logging import configure_logging
from .metrics import (
    MetricsRegistry,
    health_payload,
    noise_floor_bits,
    prometheus_text,
)
from .models import (
    DEMO_RESCALE_BITS,
    demo_image,
    demo_network,
    demo_params,
    demo_weights,
)
from .registry import ModelEntry, ModelRegistry
from .session import ClientSession, ServingResult
from .shards import (
    ShardError,
    ShardExecutor,
    ShardPool,
    ShardWorkerServer,
)
from .tracing import NULL_TRACER, SpanContext, Tracer
from .transport import (
    LoopbackTransport,
    SocketTransport,
    bind_listener,
    one_shot_request,
)
from .wire import (
    Message,
    ServingError,
    admin_message,
    decode_message,
    encode_message,
)

__all__ = [
    "ServingEngine",
    "SessionState",
    "LocalExecutor",
    "ExecutionBackendError",
    "AsyncGateway",
    "MetricsRegistry",
    "noise_floor_bits",
    "health_payload",
    "prometheus_text",
    "Tracer",
    "SpanContext",
    "NULL_TRACER",
    "configure_logging",
    "AdmissionController",
    "TokenBucket",
    "busy_message",
    "ShardPool",
    "ShardExecutor",
    "ShardError",
    "ShardWorkerServer",
    "bind_listener",
    "ModelRegistry",
    "ModelEntry",
    "ClientSession",
    "ServingResult",
    "LoopbackTransport",
    "SocketTransport",
    "Message",
    "ServingError",
    "admin_message",
    "one_shot_request",
    "WorkerFaults",
    "ConnectionFaults",
    "encode_message",
    "decode_message",
    "DEMO_RESCALE_BITS",
    "demo_network",
    "demo_weights",
    "demo_params",
    "demo_image",
]
