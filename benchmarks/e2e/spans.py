"""In-memory spans for the traced run, recorded from the harness's side.

The traced run wraps the *public* function at each layer boundary of the
serving stack (``ClientSession.infer``, ``serialize_ciphertext``,
``ServingEngine.handle``, ``RnsNttEngine.forward`` ...) and records one
:class:`Span` per call.  Nothing under ``src/`` changes; the untraced run
installs nothing.

Several ``repro`` modules bind the codec functions by name (``from
..bfv.serialize import serialize_ciphertext``), so a module-level
function is replaced in *every* ``repro`` module that holds a reference
to it, not only where it is defined.  Wrappers must be installed before
``ShardPool.start()`` forks: a forked worker keeps recording into its own
copy of the recorder and writes its spans to ``worker_dir`` when it
exits, which is how the worker's side of the fabric (codec, plan,
kernels) reaches the waterfall.  ``time.perf_counter`` is one system-wide
monotonic clock on Linux, so worker timestamps share the coordinator's
time base.

A span has one parent (the enclosing span on its thread, or the request
span that caused it on another thread) plus, for a layer call the
batcher merged, the ``engine.handle`` spans of the other batch members
(``also``).  Self time is duration minus the part its children cover.
A span reached from ``m`` inferences counts ``m`` times, so that the
self times under every inference add up to that inference's wall time.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path

#: Root span of one private inference; every other name is a stage.
ROOT = "session.infer"

#: The paper's Fig 7 kernel profile (ResNet50 on SEAL), in percent.
PAPER_FIG7 = {"NTT": 55.2, "Rotate": 31.8, "Mult": 10.3, "Add": 2.2, "Other": 0.5}

#: Fig 7 rows and the kernels (below) each one sums.
_FIG7_ROWS = {
    "NTT": ("NTT",), "Rotate": ("Hoist", "Rotate"), "Mult": ("Mult",),
    "Add": ("Add",), "Other": ("Other",),
}

_KERNEL_OF = {
    "ntt.forward": "NTT",
    "ntt.inverse": "NTT",
    "scheme.hoist": "Hoist",
    "scheme.rotate": "Rotate",
    "scheme.mul": "Mult",
    "scheme.add": "Add",
}
_PLAN_SPANS = ("plan.execute", "plan.conv", "plan.fc")


class Span:
    __slots__ = (
        "name", "start", "end", "parent", "also", "inference", "label",
        "value", "tid", "pid",
    )

    def __init__(self, name, parent, tid, pid):
        self.name = name
        self.start = time.perf_counter()
        self.end = None
        self.parent = parent
        #: Further parents: the other requests of a merged batch.
        self.also = ()
        self.inference = None if parent is None else parent.inference
        #: Request kind / layer name, where the boundary has one.
        self.label = None
        #: Bytes or batch size, where the boundary has one.
        self.value = 0
        self.tid = tid
        self.pid = pid


class Recorder:
    """Collects spans from every thread of this process and its workers."""

    def __init__(self, worker_dir: Path):
        self.worker_dir = Path(worker_dir)
        self.spans: list[Span] = []
        self._inferences = itertools.count()
        self._reset_links()
        mp_util.register_after_fork(self, Recorder._after_fork)

    def _reset_links(self) -> None:
        self._tls = threading.local()
        # Session id -> its request span in flight: the link from a TCP
        # client's thread to the gateway thread that serves the request.
        self._inflight: dict[str, Span] = {}
        # Linear ``engine.handle`` spans in flight -> layer name, oldest
        # first: where a merged batch finds its other members.
        self._linear: dict[Span, str] = {}
        self.pid = os.getpid()

    def _after_fork(self) -> None:
        self.spans = []
        self._reset_links()
        mp_util.Finalize(self, self._dump_worker, exitpriority=0)

    # -- recording ---------------------------------------------------------

    def current(self) -> Span | None:
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def begin(self, name: str, parent: Span | None = None) -> Span:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, threading.get_ident(), self.pid)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._tls.stack.pop()
        self.spans.append(span)

    # -- worker hand-back --------------------------------------------------

    def _dump_worker(self) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [
            [s.name, s.start, s.end, index.get(id(s.parent)), s.label, s.value, s.tid]
            for s in self.spans
        ]
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(rows))

    def collect_workers(self) -> None:
        """Merge the span files exited workers left."""
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            pid = int(path.stem.split("-")[1])
            rows = json.loads(path.read_text())
            spans = []
            for name, start, end, _parent, label, value, tid in rows:
                span = Span(name, None, tid, pid)
                span.start, span.end, span.label, span.value = start, end, label, value
                spans.append(span)
            for span, row in zip(spans, rows):
                if row[3] is not None:
                    span.parent = spans[row[3]]
            self.spans.extend(spans)
            path.unlink()

    def adopt_orphans(self) -> None:
        """Give each parentless stage the in-flight call that waited on it.

        A worker's spans, and those of the coordinator's collector and the
        gateway's loop thread, start on a thread with nothing open.  Each
        is adopted by the earliest-started ``shards.execute`` call that
        contains it, else by such a ``transport.request``: workers take
        tasks first come first served.  At a task boundary a span can land
        on the neighbouring call; totals per name do not depend on it.
        """
        carriers = [
            sorted((s for s in self.spans if s.name == name), key=lambda s: s.start)
            for name in ("shards.execute", "transport.request")
        ]
        for span in self.spans:
            if span.parent is None and span.name not in (ROOT, "transport.request"):
                span.parent = next(
                    (
                        carrier for group in carriers for carrier in group
                        if carrier is not span
                        and carrier.start <= span.start and span.end <= carrier.end
                    ),
                    None,
                )
        for span in self.spans:
            node = span
            while node is not None and node.inference is None:
                node = node.parent
            if node is not None:
                span.inference = node.inference


# -- wrappers -------------------------------------------------------------


def _timed(rec: Recorder, fn, name: str, value=None):
    """Wrap ``fn`` in a span; ``value(args, result)`` sizes the call."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
            if value is not None:
                span.value = value(args, result)
            return result
        finally:
            rec.end(span)

    return wrapper


def _infer(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin(ROOT)
        span.inference = next(rec._inferences)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)

    return wrapper


def _request(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, message):
        span = rec.begin("transport.request")
        session = message.meta.get("session")
        if session is not None:
            rec._inflight[session] = span
        try:
            return fn(self, message)
        finally:
            rec._inflight.pop(session, None)
            rec.end(span)

    return wrapper


def _handle(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(self, request):
        parent = rec.current() or rec._inflight.get(request.meta.get("session"))
        span = rec.begin("engine.handle", parent)
        span.label = request.kind
        if request.kind == "linear":
            rec._linear[span] = request.meta.get("layer")
        try:
            return fn(self, request)
        finally:
            rec._linear.pop(span, None)
            rec._tls.batch = ()
            rec.end(span)

    return wrapper


def _execute(rec: Recorder, fn, name: str):
    """Executor seam: one span per (possibly merged) layer call."""

    @functools.wraps(fn)
    def wrapper(self, entry, layer, batch_inputs, *args, **kwargs):
        span = rec.begin(name)
        span.label = layer.name
        span.value = len(batch_inputs)
        # The batch leader's thread runs the call; the other members are
        # the oldest in-flight handles waiting on the same layer.
        others = [
            handle for handle, waiting_on in list(rec._linear.items())
            if waiting_on == layer.name and handle is not span.parent
        ]
        span.also = tuple(others[: len(batch_inputs) - 1])
        rec._tls.batch = span.also
        try:
            return fn(self, entry, layer, batch_inputs, *args, **kwargs)
        finally:
            rec.end(span)

    return wrapper


def _blind(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.begin("protocol.blind")
        # Blinding covers the batch the executor call just returned.
        span.also = getattr(rec._tls, "batch", ())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(span)

    return wrapper


def _result_bytes(_args, result):
    return len(result)


def _blob_bytes(args, _result):
    return len(args[0])


@contextmanager
def installed(rec: Recorder):
    """Install every layer-boundary wrapper; restore the originals on exit."""
    from repro.bfv import serialize
    from repro.bfv.ntt_batch import RnsNttEngine
    from repro.bfv.scheme import BfvScheme
    from repro.protocol import gazelle
    from repro.scheduling.plan import ConvPlan, FcPlan
    from repro.serving import engine, session, shards, transport, wire

    undo = []

    def patch(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def patch_function(module, attr, make):
        """Replace a module-level function wherever ``repro`` bound it."""
        original = getattr(module, attr)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if name == "repro" or name.startswith("repro."):
                for key, bound in list(vars(mod).items()):
                    if bound is original:
                        patch(mod, key, wrapper)

    def patch_methods(cls, names, span_name, value=None):
        for name in names:
            patch(cls, name, _timed(rec, getattr(cls, name), span_name, value))

    patch(session.ClientSession, "infer", _infer(rec, session.ClientSession.infer))
    patch_methods(BfvScheme, ["encrypt"], "session.encrypt")
    patch_methods(BfvScheme, ["decrypt"], "session.decrypt")
    patch_function(gazelle, "gc_postprocess",
                   lambda fn: _timed(rec, fn, "session.gc"))

    for attr, name, value in (
        ("serialize_ciphertext", "serialize.ct_encode", _result_bytes),
        ("deserialize_ciphertext", "serialize.ct_decode", _blob_bytes),
        ("serialize_galois_keys", "serialize.galois_encode", _result_bytes),
        ("deserialize_galois_keys", "serialize.galois_decode", _blob_bytes),
    ):
        patch_function(
            serialize, attr,
            lambda fn, name=name, value=value: _timed(rec, fn, name, value),
        )
    patch_function(wire, "encode_message",
                   lambda fn: _timed(rec, fn, "wire.encode", _result_bytes))
    patch_function(wire, "decode_message",
                   lambda fn: _timed(rec, fn, "wire.decode", _blob_bytes))

    for cls in (transport.LoopbackTransport, transport.SocketTransport):
        patch(cls, "request", _request(rec, cls.request))
    patch(engine.ServingEngine, "handle", _handle(rec, engine.ServingEngine.handle))
    patch(engine.LocalExecutor, "execute",
          _execute(rec, engine.LocalExecutor.execute, "plan.execute"))
    patch(shards.ShardExecutor, "execute",
          _execute(rec, shards.ShardExecutor.execute, "shards.execute"))
    patch_function(gazelle, "blind_ciphertext_rows", lambda fn: _blind(rec, fn))

    patch_methods(ConvPlan, ["execute_batch"], "plan.conv")
    patch_methods(FcPlan, ["execute_batch"], "plan.fc")
    patch_methods(BfvScheme, ["hoist", "hoist_group", "hoist_batch"], "scheme.hoist")
    patch_methods(
        BfvScheme,
        ["rotate_rows", "rotate_rows_hoisted", "rotate_rows_group",
         "rotate_rows_batch", "rotate_columns", "apply_galois"],
        "scheme.rotate",
    )
    patch_methods(
        BfvScheme,
        ["mul_plain", "mul_plain_accumulate", "mul_plain_accumulate_stacked",
         "mul_plain_accumulate_grouped"],
        "scheme.mul",
    )
    patch_methods(BfvScheme, ["add"], "scheme.add")
    patch_methods(RnsNttEngine, ["forward"], "ntt.forward")
    patch_methods(RnsNttEngine, ["inverse"], "ntt.inverse")
    patch_methods(
        RnsNttEngine,
        ["pointwise", "pointwise_accumulate", "pointwise_accumulate_grouped"],
        "ntt.pointwise",
    )
    try:
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# -- analysis -------------------------------------------------------------


def _covered(span: Span, children: list[Span]) -> float:
    """Length of ``span``'s interval that ``children`` cover (union)."""
    total, reach = 0.0, span.start
    for child in sorted(children, key=lambda c: c.start):
        lo, hi = max(child.start, reach), min(child.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class Analysis:
    """Per-name totals over the spans of one timed window.

    All times are seconds, already weighted by how many inferences each
    span serves; divide by ``inferences`` for a per-inference figure.
    """

    def __init__(self, spans: list[Span], start: float, end: float):
        self.spans = [
            s for s in spans if s.end is not None and s.start >= start and s.end <= end
        ]
        self.children: dict[Span, list[Span]] = defaultdict(list)
        for span in self.spans:
            for parent in (span.parent, *span.also):
                if parent is not None:
                    self.children[parent].append(span)
        self._weights: dict[Span, int] = {}
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        #: Self time per Fig 7 kernel: everywhere, and under a plan only.
        self.kernel_s: dict[str, float] = defaultdict(float)
        self.plan_kernel_s: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0
        self.tree_self_s = 0.0
        self.inferences = 0
        for span in self.spans:
            weight = self.weight(span)
            own = span.end - span.start - _covered(span, self.children[span])
            self.self_s[span.name] += weight * own
            self.total_s[span.name] += weight * (span.end - span.start)
            self.calls[span.name] += 1
            self.values[span.name] += span.value
            kernel, in_plan = self._kernel(span)
            self.kernel_s[kernel] += weight * own
            if in_plan:
                self.plan_kernel_s[kernel] += weight * own
            if span.name == ROOT:
                self.wall_s += span.end - span.start
                self.inferences += 1
            elif span.inference is not None:
                self.tree_self_s += weight * own

    def weight(self, span: Span) -> int:
        """How many inferences reach this span (1 for a root or an orphan)."""
        weight = self._weights.get(span)
        if weight is None:
            parents = [p for p in (span.parent, *span.also) if p is not None]
            weight = sum(self.weight(p) for p in parents) or 1
            self._weights[span] = weight
        return weight

    @staticmethod
    def _kernel(span: Span) -> tuple[str, bool]:
        """Kernel a span's self time belongs to, and whether a plan encloses it.

        A pointwise product belongs to the operator that issued it (the
        key-switch MAC to Hoist/Rotate, the weight MAC to Mult).
        """
        kernel, in_plan, node = None, False, span
        while node is not None:
            if kernel is None and node.name in _KERNEL_OF:
                kernel = _KERNEL_OF[node.name]
            in_plan = in_plan or node.name in _PLAN_SPANS
            node = node.parent
        return kernel or "Other", in_plan

    def uncovered_s(self, name: str, child_name: str) -> float:
        """Time in ``name`` spans that no ``child_name`` child covers."""
        return sum(
            span.end - span.start - _covered(
                span, [c for c in self.children[span] if c.name == child_name]
            )
            for span in self.spans if span.name == name
        )

    def durations(self, name: str) -> dict[tuple, list[float]]:
        """Call durations of ``name`` spans, keyed by (label, value)."""
        out: dict[tuple, list[float]] = defaultdict(list)
        for span in self.spans:
            if span.name == name:
                out[(span.label, span.value)].append(span.end - span.start)
        return out

    @property
    def reconciliation_pct(self) -> float:
        """Share of inference wall time no stage accounts for."""
        if not self.wall_s:
            return 0.0
        return 100.0 * abs(self.tree_self_s - self.wall_s) / self.wall_s

    # -- printed tables ----------------------------------------------------

    def stage_table(self) -> str:
        n = max(1, self.inferences)
        wall = self.wall_s / n
        lines = [
            f"waterfall: {self.inferences} inferences, "
            f"{wall * 1e3:.3f} ms wall each (self time per inference)",
            f"  {'stage':<26}{'calls':>9}{'self ms':>11}{'total ms':>11}{'share %':>9}",
        ]
        for name in sorted(self.self_s, key=self.self_s.get, reverse=True):
            own = self.self_s[name] / n
            lines.append(
                f"  {name:<26}{self.calls[name] / n:>9.1f}{own * 1e3:>11.3f}"
                f"{self.total_s[name] / n * 1e3:>11.3f}"
                f"{100 * own / wall if wall else 0:>9.1f}"
            )
        lines.append(
            f"  stages sum to {self.tree_self_s / n * 1e3:.3f} ms of "
            f"{wall * 1e3:.3f} ms wall: reconciliation "
            f"{self.reconciliation_pct:.2f} % (unattributed client glue)"
        )
        return "\n".join(lines)

    def fig7_table(self) -> str:
        total = sum(self.plan_kernel_s.values())
        lines = [
            "kernel profile of the served linear layers (self time under plan.*)",
            f"  {'kernel':<10}{'measured %':>12}{'paper Fig 7 %':>15}",
        ]
        for row, paper in PAPER_FIG7.items():
            own = sum(self.plan_kernel_s[kernel] for kernel in _FIG7_ROWS[row])
            share = 100 * own / total if total else 0.0
            lines.append(f"  {row:<10}{share:>12.1f}{paper:>15.1f}")
        return "\n".join(lines)


def write_chrome_trace(spans: list[Span], path: Path) -> None:
    """Write spans as Chrome ``trace_event`` complete events."""
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": span.start * 1e6,
            "dur": (span.end - span.start) * 1e6,
            "pid": span.pid,
            "tid": span.tid,
            "args": {
                "inference": span.inference,
                "label": span.label,
                "value": span.value,
                "parent": None if span.parent is None else span.parent.name,
            },
        }
        for span in spans if span.end is not None
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))
