"""End-to-end request-tracing suite.

Covers the observability contracts the serving stack now carries:

* **Off-by-default free** -- a disabled :class:`Tracer` hands out the
  shared :data:`NOOP_SPAN`, touches no locks and accumulates no state;
  an engine without a tracer serves trace-stamping clients unchanged
  (the wire backward-compat path).
* **One request, one stitched tree** -- front-end root (``request``),
  engine child (``handle``), per-stage children (admission /
  deserialize / execute / blind / serialize), and -- under a
  :class:`ShardExecutor` -- per-shard ``shard_task`` envelopes with the
  worker-side spans re-anchored underneath, every parent link resolving
  inside the trace.
* **Attribution adds up exactly** -- each ``execute`` span's HE op
  delta equals the sum of its workers' ``worker.compute`` op counts,
  per op, per layer (the same exactly-once accounting the chaos suite
  pins for the metrics fold).
* **Faults stay visible** -- a SIGKILLed worker's requeued attempt
  shows up as a ``shard_requeue`` sibling of the completed
  ``shard_task`` span instead of silently stretching it.
* **Exports are valid** -- Chrome ``trace_event`` JSON (complete ``X``
  events, per-worker ``tid`` lanes), bounded trace-file ring retention,
  structured span log lines, and the ``/healthz`` + Prometheus text
  endpoints on both TCP front ends.
"""

from __future__ import annotations

import io
import json
import logging
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    AsyncGateway,
    ClientSession,
    LoopbackTransport,
    MetricsRegistry,
    ModelRegistry,
    ServingEngine,
    ShardExecutor,
    ShardPool,
    SocketTransport,
    Tracer,
    WorkerFaults,
    configure_logging,
    demo_image,
    demo_network,
    demo_weights,
)
from repro.bfv.counters import HE_OP_FIELDS
from repro.serving.tracing import NOOP_SPAN
from repro.serving.wire import TRACE_META_KEY, Message

SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def params() -> BfvParameters:
    return BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def registry(params):
    registry = ModelRegistry()
    registry.register(
        "demo", demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    return registry


@pytest.fixture(scope="module")
def artifact_dir(params, tmp_path_factory):
    from repro.artifacts import save_artifact, update_manifest

    entry = ModelRegistry().register(
        "demo", demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    directory = tmp_path_factory.mktemp("tracing-zoo")
    save_artifact(entry, directory / "demo.rpa")
    update_manifest(directory, entry, "demo.rpa")
    return directory


@pytest.fixture(scope="module")
def expected(params):
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    return runner.run(demo_image(0))


def _infer(engine, params, transport=None, trace=True):
    """One serial traced inference; returns (logits, session)."""
    transport = LoopbackTransport(engine) if transport is None else transport
    session = ClientSession(
        demo_network(), params, transport, seed=7, trace_requests=trace
    )
    session.connect("demo")
    logits = session.infer(demo_image(0)).logits
    session.close()
    return logits, session


def _spans_by_name(spans):
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    return by_name


def _assert_tree_complete(spans):
    """Every parent link resolves in-trace; exactly one root."""
    ids = {span["span_id"] for span in spans}
    roots = [span for span in spans if not span["parent_id"]]
    assert len(roots) == 1, f"expected one root, got {[r['name'] for r in roots]}"
    for span in spans:
        if span["parent_id"]:
            assert span["parent_id"] in ids, (
                f"{span['name']} parent {span['parent_id']} not in trace"
            )
        assert span["end_s"] >= span["start_s"]
    return roots[0]


class TestDisabledAndCompat:
    def test_disabled_tracer_is_stateless(self):
        tracer = Tracer(enabled=False)
        meta: dict = {}
        assert tracer.accept("request", meta) is NOOP_SPAN
        assert meta == {}, "disabled accept must not rewrite request meta"
        assert tracer.server_span("handle", {TRACE_META_KEY: {"trace_id": "x"}}) \
            is NOOP_SPAN
        assert tracer.span("child") is NOOP_SPAN
        assert tracer.begin("detached", NOOP_SPAN) is NOOP_SPAN
        assert tracer.current() is None
        assert tracer.spans_total == 0
        assert tracer.trace_ids() == []

    def test_noop_span_interface(self):
        with NOOP_SPAN as span:
            assert span.set(anything=1) is NOOP_SPAN
        assert NOOP_SPAN.finish() is NOOP_SPAN
        assert not NOOP_SPAN
        assert NOOP_SPAN.trace_id is None and NOOP_SPAN.context is None

    def test_engine_without_tracer_serves_tracing_clients(
        self, registry, params, expected
    ):
        """Wire backward-compat: trace meta is ignored by untraced peers."""
        engine = ServingEngine(registry, max_batch=1, seed=1234)
        logits, session = _infer(engine, params, trace=True)
        assert np.array_equal(logits, expected)
        assert session.trace_ids == [], "untraced engine must echo nothing"

    def test_untraced_client_against_traced_loopback_engine(
        self, registry, params, expected
    ):
        """No front end + no client context = untraced request (no root)."""
        tracer = Tracer(enabled=True)
        engine = ServingEngine(registry, max_batch=1, seed=1234, tracer=tracer)
        logits, _session = _infer(engine, params, trace=False)
        assert np.array_equal(logits, expected)
        assert tracer.trace_ids() == []
        assert tracer.spans_total == 0


class TestLoopbackTraces:
    STAGES = ("admission", "deserialize", "execute", "blind", "serialize")

    def test_linear_round_span_tree(self, registry, params, expected):
        from repro.serving import AdmissionController

        tracer = Tracer(enabled=True)
        engine = ServingEngine(
            registry, max_batch=1, seed=1234, tracer=tracer,
            admission=AdmissionController(),
        )
        logits, session = _infer(engine, params)
        assert np.array_equal(logits, expected)
        assert set(session.trace_ids) == set(tracer.trace_ids())
        linear = [
            trace_id for trace_id in tracer.trace_ids()
            if "execute" in _spans_by_name(tracer.spans_of(trace_id))
        ]
        assert len(linear) == 3, "demo CNN runs three traced linear rounds"
        for trace_id in linear:
            spans = tracer.spans_of(trace_id)
            root = _assert_tree_complete(spans)
            assert root["name"] == "handle", "loopback root is the engine span"
            by_name = _spans_by_name(spans)
            for stage in self.STAGES:
                assert stage in by_name, f"missing {stage} span"
            for span in by_name["execute"]:
                assert span["start_s"] >= root["start_s"] - 1e-6
                assert span["end_s"] <= root["end_s"] + 1e-6

    def test_execute_spans_carry_he_ops(self, registry, params):
        tracer = Tracer(enabled=True)
        engine = ServingEngine(registry, max_batch=1, seed=1234, tracer=tracer)
        _infer(engine, params)
        executes = [
            span
            for trace_id in tracer.trace_ids()
            for span in tracer.spans_of(trace_id)
            if span["name"] == "execute"
        ]
        assert executes
        for span in executes:
            ops = span["attrs"]["he_ops"]
            assert set(ops) == set(HE_OP_FIELDS)
            assert ops["he_mult"] > 0 and ops["modmuls"] > 0
            assert "layer" in span["attrs"]

    def test_stage_latencies_fold_into_metrics(self, registry, params):
        metrics = MetricsRegistry()
        tracer = Tracer(enabled=True, metrics=metrics)
        engine = ServingEngine(
            registry, max_batch=1, seed=1234, metrics=metrics, tracer=tracer
        )
        _infer(engine, params)
        stages = metrics.snapshot()["stages"]
        for stage in ("handle", "execute", "serialize"):
            assert stages[stage]["count"] > 0
            assert stages[stage]["p50_ms"] >= 0.0


class TestFrontEndRoots:
    def test_gateway_adopts_client_trace_ids(self, registry, params, expected):
        tracer = Tracer(enabled=True)
        engine = ServingEngine(registry, max_batch=1, seed=1234, tracer=tracer)
        server = AsyncGateway(engine, port=0, executor_threads=2)
        with server:
            with SocketTransport(server.host, server.port) as transport:
                logits, session = _infer(engine, params, transport=transport)
        assert np.array_equal(logits, expected)
        assert session.trace_ids
        assert set(session.trace_ids) <= set(tracer.trace_ids())
        spans = tracer.spans_of(session.trace_ids[0])
        root = _assert_tree_complete(spans)
        assert root["name"] == "request"
        by_name = _spans_by_name(spans)
        assert by_name["handle"][0]["parent_id"] == root["span_id"]

    def test_gateway_mints_roots_for_untraced_clients(
        self, registry, params, expected
    ):
        """Server-side tracing needs no client cooperation."""
        tracer = Tracer(enabled=True)
        engine = ServingEngine(registry, max_batch=1, seed=1234, tracer=tracer)
        server = AsyncGateway(engine, port=0, executor_threads=2)
        with server:
            with SocketTransport(server.host, server.port) as transport:
                logits, session = _infer(
                    engine, params, transport=transport, trace=False
                )
        assert np.array_equal(logits, expected)
        assert session.trace_ids, "front end mints + echoes ids unprompted"
        spans = tracer.spans_of(session.trace_ids[0])
        root = _assert_tree_complete(spans)
        assert root["name"] == "request"

    def test_every_reply_to_a_traced_request_names_its_trace(self, registry):
        """Replies the engine did not build still echo the trace id.

        An unknown request kind is answered by the engine's catch-all and
        a raising engine by the gateway's ``internal error`` reply;
        neither path stamps the id itself, so the gateway does.
        """

        class RaisingEngine:
            tracer = Tracer(enabled=True)

            def handle(self, request):
                raise RuntimeError("boom")

        traced = ServingEngine(
            registry, max_batch=1, seed=1234, tracer=Tracer(enabled=True)
        )
        for engine, reason in ((traced, "unknown"), (RaisingEngine(), "boom")):
            with AsyncGateway(engine, port=0, executor_threads=1) as server:
                with SocketTransport(server.host, server.port) as transport:
                    reply = transport.request(Message("no-such-kind", {}))
            assert reply.kind == "error" and reason in reply.meta["reason"]
            trace_id = reply.meta[TRACE_META_KEY]["trace_id"]
            assert trace_id in engine.tracer.trace_ids()


class TestShardedTraces:
    def test_worker_spans_stitched_with_exact_he_ops(
        self, artifact_dir, registry, params, expected
    ):
        from repro.artifacts import load_zoo

        tracer = Tracer(enabled=True)
        with ShardPool(artifact_dir, workers=2) as pool:
            engine = ServingEngine(
                load_zoo(artifact_dir), max_batch=1, seed=1234,
                executor=ShardExecutor(pool), tracer=tracer,
            )
            logits, _session = _infer(engine, params)
        assert np.array_equal(logits, expected)
        checked = 0
        for trace_id in tracer.trace_ids():
            spans = tracer.spans_of(trace_id)
            by_name = _spans_by_name(spans)
            if "execute" not in by_name:
                continue
            _assert_tree_complete(spans)
            tasks = by_name.get("shard_task", [])
            computes = by_name.get("worker.compute", [])
            assert tasks and computes, "sharded rounds must carry worker spans"
            task_ids = {span["span_id"] for span in tasks}
            execute_ids = {span["span_id"] for span in by_name["execute"]}
            for task in tasks:
                assert task["parent_id"] in execute_ids
                assert isinstance(task["attrs"]["worker"], int)
            for compute in computes:
                assert compute["parent_id"] in task_ids
                assert compute["attrs"]["noise_headroom_bits"] > 0
            # Exactly-once attribution: each execute span's op delta is
            # the sum of its workers' compute deltas, per op.
            for execute in by_name["execute"]:
                mine = {
                    compute["span_id"]: compute
                    for compute in computes
                    if compute["parent_id"] in {
                        task["span_id"] for task in tasks
                        if task["parent_id"] == execute["span_id"]
                    }
                }
                summed = {field: 0 for field in HE_OP_FIELDS}
                for compute in mine.values():
                    for field, value in compute["attrs"]["he_ops"].items():
                        summed[field] += value
                assert summed == execute["attrs"]["he_ops"], (
                    "worker.compute op counts do not sum to the execute "
                    "span's delta"
                )
            # Anchoring: worker spans stay inside their task envelope.
            for compute in computes:
                task = next(
                    t for t in tasks if t["span_id"] == compute["parent_id"]
                )
                assert compute["start_s"] >= task["start_s"] - 1e-9
                assert compute["end_s"] <= task["end_s"] + 1e-9
            checked += 1
        assert checked == 3, "all three linear rounds run sharded"

    def test_sigkill_retry_appears_as_requeue_sibling(
        self, artifact_dir, registry, params, expected
    ):
        """The chaos contract, now visible: a crashed attempt is a span."""
        from repro.artifacts import load_zoo

        tracer = Tracer(enabled=True)
        plan = WorkerFaults(crash_worker=0, crash_on_task=1)
        with ShardPool(
            artifact_dir, workers=2, respawn_backoff_s=0.05, fault_plan=plan
        ) as pool:
            engine = ServingEngine(
                load_zoo(artifact_dir), max_batch=1, seed=1234,
                executor=ShardExecutor(pool), tracer=tracer,
            )
            logits, _session = _infer(engine, params)
        assert np.array_equal(logits, expected)
        requeues = []
        for trace_id in tracer.trace_ids():
            spans = tracer.spans_of(trace_id)
            by_name = _spans_by_name(spans)
            if "execute" in by_name:
                _assert_tree_complete(spans)
            requeues.extend(by_name.get("shard_requeue", []))
            for requeue in by_name.get("shard_requeue", []):
                siblings = [
                    span for span in by_name.get("shard_task", [])
                    if span["parent_id"] == requeue["parent_id"]
                    and span["attrs"].get("task") == requeue["attrs"]["task"]
                ]
                assert siblings, "requeue span without its completed sibling"
                assert siblings[0]["attrs"]["attempts"] >= 1
        assert requeues, "the SIGKILLed attempt must surface as a span"


class TestExportAndRetention:
    def test_chrome_trace_export_is_valid(self, registry, params):
        tracer = Tracer(enabled=True)
        engine = ServingEngine(registry, max_batch=1, seed=1234, tracer=tracer)
        _infer(engine, params)
        payload = tracer.chrome_trace(tracer.trace_ids()[-1])
        events = payload["traceEvents"]
        assert events and payload["displayTimeUnit"] == "ms"
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] >= 1
            assert "span_id" in event["args"]
        json.dumps(payload)  # must be JSON-serializable as-is

    def test_trace_dir_ring_retention(self, tmp_path):
        tracer = Tracer(trace_dir=tmp_path / "traces", max_trace_files=3)
        for index in range(7):
            tracer.accept("request", {}, index=index).finish()
        files = sorted((tmp_path / "traces").glob("trace-*.json"))
        assert len(files) == 3
        kept = [
            json.loads(path.read_text())["traceEvents"][0]["args"]["index"]
            for path in files
        ]
        assert kept == [4, 5, 6], "retention must prune oldest-first"

    def test_in_memory_trace_ring(self):
        tracer = Tracer(max_traces=2)
        for index in range(3):
            tracer.accept("request", {}, index=index).finish()
        assert len(tracer.trace_ids()) == 2
        assert tracer.dropped_traces == 1
        assert tracer.traces_total == 3


class TestIngestAnchoring:
    def test_worker_offsets_center_inside_envelope(self):
        tracer = Tracer(enabled=True)
        root = tracer.accept("request", {})
        start = tracer._clock()
        # 10ms of worker time inside a 50ms envelope: centered => +20ms.
        tracer.ingest(
            root.trace_id, root.span_id,
            [{"name": "worker.compute", "off_s": 0.0, "dur_s": 0.010}],
            start, start + 0.050, worker=0,
        )
        root.finish()
        spans = _spans_by_name(tracer.spans_of(root.trace_id))
        compute = spans["worker.compute"][0]
        anchored = compute["start_s"] - (start - tracer._epoch)
        assert anchored == pytest.approx(0.020, abs=1e-9)
        assert compute["attrs"]["worker"] == 0

    def test_skewed_offsets_clamp_to_envelope(self):
        """A worker bundle longer than the envelope can't escape it."""
        tracer = Tracer(enabled=True)
        root = tracer.accept("request", {})
        start = tracer._clock()
        tracer.ingest(
            root.trace_id, root.span_id,
            [{"name": "worker.compute", "off_s": -5.0, "dur_s": 99.0}],
            start, start + 0.010,
        )
        root.finish()
        compute = _spans_by_name(tracer.spans_of(root.trace_id))[
            "worker.compute"
        ][0]
        assert compute["start_s"] >= start - tracer._epoch - 1e-9
        assert compute["end_s"] <= start + 0.010 - tracer._epoch + 1e-9

    def test_malformed_worker_spans_are_dropped(self):
        tracer = Tracer(enabled=True)
        root = tracer.accept("request", {})
        tracer.ingest(
            root.trace_id, root.span_id,
            [{"name": "worker.compute", "dur_s": "nope"}],
            0.0, 1.0,
        )
        root.finish()
        assert _spans_by_name(tracer.spans_of(root.trace_id)).keys() == {
            "request"
        }


class TestLoggingAndHttp:
    def test_configure_logging_emits_parseable_json(self):
        stream = io.StringIO()
        configure_logging("debug", json_lines=True, stream=stream)
        try:
            tracer = Tracer(enabled=True, log_spans=True)
            tracer.accept("request", {}, kind="linear").finish()
            lines = [
                json.loads(line)
                for line in stream.getvalue().splitlines() if line
            ]
            assert lines, "span completion must produce a log line"
            record = lines[-1]
            assert record["level"] == "info"
            assert record["logger"] == "repro.serving.trace"
            assert record["span"]["name"] == "request"
            assert record["span"]["attrs"]["kind"] == "linear"
            assert record["ts"] >= 0.0
        finally:
            configure_logging("info", json_lines=False)

    def test_plain_logging_does_not_duplicate_handlers(self):
        root = configure_logging("info")
        once = len(root.handlers)
        configure_logging("warning")
        assert len(logging.getLogger("repro").handlers) == once
        assert logging.getLogger("repro").level == logging.WARNING
        configure_logging("info")

    def test_healthz_and_prometheus_endpoints(self, registry, params):
        metrics = MetricsRegistry()
        tracer = Tracer(enabled=True, metrics=metrics)
        engine = ServingEngine(
            registry, max_batch=1, seed=1234, metrics=metrics, tracer=tracer
        )
        with AsyncGateway(engine, port=0, executor_threads=2) as server:
            with SocketTransport(server.host, server.port) as transport:
                _infer(engine, params, transport=transport)
            base = f"http://{server.host}:{server.port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=5) as rsp:
                assert rsp.status == 200
                health = json.loads(rsp.read())
            assert health["status"] == "ok"
            assert health["models"] == ["demo"]
            with urllib.request.urlopen(f"{base}/metrics", timeout=5) as rsp:
                snapshot = json.loads(rsp.read())
            assert snapshot["requests"]["count"] > 0
            url = f"{base}/metrics?format=prometheus"
            with urllib.request.urlopen(url, timeout=5) as rsp:
                assert rsp.headers["Content-Type"].startswith("text/plain")
                text = rsp.read().decode()
            assert "repro_requests_total" in text
            assert 'repro_stage_seconds{stage="execute"' in text
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"{base}/nope", timeout=5)
            assert err.value.code == 404
