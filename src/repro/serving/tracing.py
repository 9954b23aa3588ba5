"""End-to-end request tracing for the serving stack.

One request produces one *trace*: a tree of timed spans covering the
front-end accept, engine handling (admission, deserialize, batch wait,
execute, blind, serialize) and — when a :class:`ShardExecutor` is in
play — per-shard dispatch envelopes with the worker-side spans
(deserialize / compute / serialize) stitched underneath them.

Design constraints, in order:

* **Off-by-default cheap.** A disabled :class:`Tracer` hands out the
  shared :data:`NOOP_SPAN` and touches no locks; the per-request cost is
  a couple of attribute loads (the e2e benchmark's ``trace.overhead_pct``).
* **Monotonic clocks only.** Span timestamps are ``time.monotonic()``
  offsets from the tracer's epoch; nothing here depends on wall time.
* **Skew-free stitching.** Worker spans cross the wire as *offsets*
  from the worker's own first timestamp. The coordinator re-anchors
  them inside its dispatch→receive envelope (centering the slack), so
  remote-host clock skew can never produce a child span outside its
  parent.
* **Wire-compatible.** The trace context rides ``Message.meta`` under
  :data:`~repro.serving.wire.TRACE_META_KEY`; peers that predate it
  ignore the key (decode preserves unknown meta) and peers that never
  send it get untraced requests — no version negotiation.

Span dictionaries use ``start_s``/``end_s`` relative to the tracer
epoch.  Export paths: :meth:`Tracer.chrome_trace` (Chrome
``trace_event`` JSON, loadable in Perfetto / ``chrome://tracing``),
per-span structured log lines on ``repro.serving.trace``, and per-stage
latency fold into :meth:`MetricsRegistry.record_stage`.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import threading
import time
import uuid
from collections import OrderedDict

from .wire import TRACE_META_KEY

__all__ = [
    "NOOP_SPAN",
    "NULL_TRACER",
    "Span",
    "SpanContext",
    "Tracer",
    "WorkerSpanLog",
]

_log = logging.getLogger("repro.serving.trace")



class SpanContext:
    """Immutable (trace_id, span_id) pair used for parenting.

    Crosses thread boundaries inside a process (batch items, executor
    trace lists) and — flattened to a meta dict — process boundaries.
    """

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    def to_meta(self, fe: bool = False) -> dict:
        ctx = {"trace_id": self.trace_id, "span_id": self.span_id}
        if fe:
            ctx["fe"] = True
        return ctx

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"SpanContext({self.trace_id}, {self.span_id})"


class _NoopSpan:
    """Shared do-nothing span handed out by disabled tracers.

    Every method is a cheap no-op returning something safe, so call
    sites never branch on "is tracing on".
    """

    __slots__ = ()

    trace_id = None
    span_id = None
    context = None

    def set(self, **attrs):
        return self

    def finish(self, end=None):
        return self

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def __bool__(self):
        return False


NOOP_SPAN = _NoopSpan()


class Span:
    """A single timed operation inside a trace.

    Usable as a context manager (pushes itself on the tracer's
    thread-local stack so nested :meth:`Tracer.span` calls parent
    implicitly) or detached via :meth:`Tracer.begin` + :meth:`finish`
    when start and end happen on different threads (batch waits).
    """

    __slots__ = (
        "_tracer", "trace_id", "span_id", "parent_id", "name",
        "start", "end", "attrs", "root", "_attached",
    )

    def __init__(self, tracer, trace_id, span_id, parent_id, name,
                 start, root=False, attrs=None):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = None
        self.attrs = dict(attrs) if attrs else {}
        self.root = root
        self._attached = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def finish(self, end=None) -> "Span":
        if self.end is None:
            self.end = self._tracer._clock() if end is None else end
            self._tracer._finish(self)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self._attached = True
        return self

    def __exit__(self, exc_type, exc, tb):
        if self._attached:
            self._tracer._pop(self)
            self._attached = False
        if exc_type is not None and "error" not in self.attrs:
            self.attrs["error"] = exc_type.__name__
        self.finish()
        return False

    def __bool__(self):
        return True


class WorkerSpanLog:
    """Worker-side span accumulator, serialized into result meta.

    Records offsets relative to the log's creation time — never
    absolute clocks — so the coordinator can anchor the whole bundle
    inside its own dispatch→receive envelope regardless of clock skew
    (the remote-TCP case) or scheduling delay (the forked case).
    """

    __slots__ = ("t0", "spans")

    def __init__(self):
        self.t0 = time.monotonic()
        self.spans = []

    def add(self, name: str, start: float, **attrs) -> None:
        """Record a span that started at monotonic ``start`` and ends now."""
        now = time.monotonic()
        self.spans.append({
            "name": name,
            "off_s": round(start - self.t0, 9),
            "dur_s": round(now - start, 9),
            "attrs": attrs,
        })

    def dump(self) -> list:
        return self.spans


class Tracer:
    """Mints, collects and exports request traces.

    Parameters
    ----------
    enabled:
        When ``False`` every entry point returns :data:`NOOP_SPAN`
        immediately; the instance holds no state and takes no locks.
    metrics:
        Optional :class:`MetricsRegistry`; every finished span folds its
        duration into ``record_stage(name)`` so ``/metrics`` answers
        "queue-wait vs compute" without a captured trace.
    trace_dir:
        When set, each completed trace is written as Chrome
        ``trace_event`` JSON (``trace-<seq>-<id>.json``); at most
        ``max_trace_files`` files are retained (oldest pruned).
    max_traces:
        In-memory ring of completed traces (oldest evicted).
    log_spans:
        Emit one structured log line per finished span at INFO on
        ``repro.serving.trace`` (always emitted at DEBUG regardless).
    """

    def __init__(self, enabled: bool = True, metrics=None, trace_dir=None,
                 max_traces: int = 256, max_trace_files: int = 64,
                 log_spans: bool = False, clock=time.monotonic):
        self.enabled = bool(enabled)
        self._metrics = metrics
        self.trace_dir = None if trace_dir is None else str(trace_dir)
        self.max_traces = int(max_traces)
        self.max_trace_files = int(max_trace_files)
        self.log_spans = bool(log_spans)
        self._clock = clock
        self._epoch = clock()
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._live: dict[str, list] = {}
        self._finished: "OrderedDict[str, list]" = OrderedDict()
        self._seq = itertools.count()
        self.spans_total = 0
        self.traces_total = 0
        self.dropped_traces = 0
        if self.trace_dir is not None:
            os.makedirs(self.trace_dir, exist_ok=True)

    # -- id minting ---------------------------------------------------------

    @staticmethod
    def _new_trace_id() -> str:
        return uuid.uuid4().hex[:16]

    @staticmethod
    def _new_span_id() -> str:
        return uuid.uuid4().hex[:8]

    # -- thread-local span stack -------------------------------------------

    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _push(self, span):
        self._stack().append(span)

    def _pop(self, span):
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - unbalanced exit
            stack.remove(span)

    def current(self):
        """The innermost active span on this thread, or ``None``."""
        if not self.enabled:
            return None
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    # -- span creation ------------------------------------------------------

    def accept(self, name: str, meta: dict, **attrs):
        """Front-end entry point: mint (or adopt) the request's root span.

        Rewrites ``meta[TRACE_META_KEY]`` to the root's context with the
        ``fe`` flag set, so the engine knows a front end owns the root
        and creates a child rather than a second root.
        """
        if not self.enabled:
            return NOOP_SPAN
        ctx = meta.get(TRACE_META_KEY)
        parent_id = None
        if isinstance(ctx, dict) and ctx.get("trace_id"):
            trace_id = str(ctx["trace_id"])
            parent_id = ctx.get("span_id")
        else:
            trace_id = self._new_trace_id()
        span = Span(self, trace_id, self._new_span_id(), parent_id, name,
                    self._clock(), root=True, attrs=attrs)
        meta[TRACE_META_KEY] = span.context.to_meta(fe=True)
        return span

    def server_span(self, name: str, meta: dict, **attrs):
        """Engine entry point: child of the front-end root, or its own root.

        Requests arriving without a trace context stay untraced (the
        backward-compat path); requests carrying a client-minted
        ``trace_id`` but no front-end root (loopback transports) get a
        root span adopting that id.
        """
        if not self.enabled:
            return NOOP_SPAN
        ctx = meta.get(TRACE_META_KEY)
        if not isinstance(ctx, dict) or not ctx.get("trace_id"):
            return NOOP_SPAN
        trace_id = str(ctx["trace_id"])
        root = not ctx.get("fe")
        return Span(self, trace_id, self._new_span_id(), ctx.get("span_id"),
                    name, self._clock(), root=root, attrs=attrs)

    def root_span(self, name: str, **attrs):
        """An unconditional root span for server-initiated work.

        Admin actions and other operator-triggered maintenance have no
        client trace context to adopt, but must still be visible in the
        span stream (and the per-stage latency series): this mints a
        fresh trace unconditionally, unlike :meth:`server_span` which
        stays no-op without a request context.
        """
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, self._new_trace_id(), self._new_span_id(), None,
                    name, self._clock(), root=True, attrs=attrs)

    def span(self, name: str, parent=None, **attrs):
        """Context-managed child of ``parent`` (default: current span)."""
        if not self.enabled:
            return NOOP_SPAN
        if parent is None:
            parent = self.current()
        if parent is None or parent.trace_id is None:
            return NOOP_SPAN
        return Span(self, parent.trace_id, self._new_span_id(),
                    parent.span_id, name, self._clock(), attrs=attrs)

    def begin(self, name: str, parent, **attrs):
        """Detached child span: started now, finished manually.

        For operations whose start and end live on different threads
        (batch waits, executor spans); never touches the thread-local
        stack. ``parent`` may be a :class:`Span` or :class:`SpanContext`.
        """
        if not self.enabled or parent is None or parent.trace_id is None:
            return NOOP_SPAN
        return Span(self, parent.trace_id, self._new_span_id(),
                    parent.span_id, name, self._clock(), attrs=attrs)

    def record(self, trace_id: str, name: str, start: float, end: float,
               parent_id=None, **attrs) -> str:
        """Record an already-timed span (coordinator envelopes)."""
        span_id = self._new_span_id()
        self._store({
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start_s": start - self._epoch,
            "end_s": end - self._epoch,
            "attrs": dict(attrs),
        })
        return span_id

    def ingest(self, trace_id: str, parent_id: str, worker_spans,
               anchor_start: float, anchor_end: float, **extra) -> None:
        """Stitch worker-offset spans under a coordinator envelope.

        ``worker_spans`` carry offsets from the worker's own t0; the
        coordinator knows only that the work happened somewhere inside
        ``[anchor_start, anchor_end]`` on *its* clock. We center the
        bundle in that envelope (splitting the transport slack evenly)
        and clamp so skew can never push a child outside its parent.
        """
        if not worker_spans:
            return
        total = 0.0
        for ws in worker_spans:
            try:
                total = max(total, float(ws["off_s"]) + float(ws["dur_s"]))
            except (KeyError, TypeError, ValueError):
                return
        envelope = max(0.0, anchor_end - anchor_start)
        base = anchor_start + max(0.0, (envelope - total) / 2.0)
        for ws in worker_spans:
            start = base + float(ws["off_s"])
            end = start + float(ws["dur_s"])
            start = min(max(start, anchor_start), anchor_end)
            end = min(max(end, start), anchor_end)
            attrs = dict(ws.get("attrs") or {})
            attrs.update(extra)
            self.record(trace_id, str(ws.get("name", "worker")), start, end,
                        parent_id=parent_id, **attrs)

    # -- collection ---------------------------------------------------------

    def _finish(self, span: Span) -> None:
        self._store({
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "start_s": span.start - self._epoch,
            "end_s": span.end - self._epoch,
            "attrs": span.attrs,
        }, finalize=span.root)

    def _store(self, record: dict, finalize: bool = False) -> None:
        duration = max(0.0, record["end_s"] - record["start_s"])
        if self._metrics is not None:
            try:
                self._metrics.record_stage(record["name"], duration)
            except AttributeError:  # pragma: no cover - older registry
                pass
        level = logging.INFO if self.log_spans else logging.DEBUG
        if _log.isEnabledFor(level):
            _log.log(level, "span %s %.3fms trace=%s", record["name"],
                     duration * 1e3, record["trace_id"],
                     extra={"span": record})
        done = None
        with self._lock:
            self.spans_total += 1
            self._live.setdefault(record["trace_id"], []).append(record)
            if finalize:
                done = self._finalize_locked(record["trace_id"])
        if done is not None and self.trace_dir is not None:
            self._write_trace_file(*done)

    def _finalize_locked(self, trace_id: str):
        spans = self._live.pop(trace_id, [])
        if trace_id in self._finished:
            # A retried request reused its trace id; merge rather than
            # clobber the earlier attempt's spans.
            self._finished[trace_id].extend(spans)
            self._finished.move_to_end(trace_id)
        else:
            self._finished[trace_id] = spans
            self.traces_total += 1
        while len(self._finished) > self.max_traces:
            self._finished.popitem(last=False)
            self.dropped_traces += 1
        return trace_id, list(self._finished[trace_id])

    # -- export -------------------------------------------------------------

    def trace_ids(self) -> list:
        with self._lock:
            return list(self._finished.keys())

    def spans_of(self, trace_id: str) -> list:
        with self._lock:
            return list(self._finished.get(trace_id, []))

    def chrome_trace(self, trace_id: str) -> dict:
        """One trace as a Chrome ``trace_event`` JSON object."""
        spans = self.spans_of(trace_id)
        return chrome_trace_events(spans)

    def _write_trace_file(self, trace_id: str, spans: list) -> None:
        seq = next(self._seq)
        path = os.path.join(self.trace_dir, f"trace-{seq:06d}-{trace_id}.json")
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(chrome_trace_events(spans), fh)
        except OSError as exc:  # pragma: no cover - disk trouble
            _log.warning("could not write trace file %s: %s", path, exc)
            return
        try:
            names = sorted(
                name for name in os.listdir(self.trace_dir)
                if name.startswith("trace-") and name.endswith(".json")
            )
            for name in names[:-self.max_trace_files or None]:
                os.unlink(os.path.join(self.trace_dir, name))
        except OSError:  # pragma: no cover - concurrent pruning
            pass


def chrome_trace_events(spans: list) -> dict:
    """Convert span dicts to the Chrome ``trace_event`` format.

    Complete (``ph: "X"``) events with microsecond timestamps relative
    to the trace's first span.  Each shard worker renders on its own
    ``tid`` lane so concurrent shard tasks do not stack ambiguously.
    """
    if spans:
        origin = min(s["start_s"] for s in spans)
    else:
        origin = 0.0
    events = []
    for s in spans:
        attrs = s.get("attrs") or {}
        worker = attrs.get("worker")
        tid = 2 + int(worker) if isinstance(worker, int) and worker >= 0 else 1
        args = dict(attrs)
        args["span_id"] = s["span_id"]
        if s.get("parent_id"):
            args["parent_id"] = s["parent_id"]
        events.append({
            "name": s["name"],
            "cat": "serving",
            "ph": "X",
            "ts": round((s["start_s"] - origin) * 1e6, 3),
            "dur": round(max(0.0, s["end_s"] - s["start_s"]) * 1e6, 3),
            "pid": 1,
            "tid": tid,
            "args": args,
        })
    events.sort(key=lambda ev: ev["ts"])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: Shared disabled tracer: the default wherever tracing is optional.
NULL_TRACER = Tracer(enabled=False)
