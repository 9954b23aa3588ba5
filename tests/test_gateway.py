"""Tests for the asyncio serving gateway and its satellite layers.

Covers the event-driven front end (`repro.serving.gateway`), the session
state machine and idle TTL, admission control (token buckets, queue
bounds, BUSY retries), the metrics surface (HTTP scrape + wire message),
frame-size caps, and TrafficLog isolation under concurrent batched
rounds.  Small ring (n=256, security off) keeps live-HE end-to-end runs
fast.
"""

from __future__ import annotations

import logging
import socket
import struct
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    AdmissionController,
    AsyncGateway,
    ClientSession,
    LocalExecutor,
    LoopbackTransport,
    Message,
    MetricsRegistry,
    ModelRegistry,
    ServingEngine,
    ServingError,
    SessionState,
    SocketTransport,
    TokenBucket,
    demo_image,
    demo_network,
    demo_weights,
)
from repro.serving.faults import ConnectionFaults
from repro.serving.wire import (
    decode_message,
    encode_message,
    recv_frame,
    send_frame,
)

GATEWAY_SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def params() -> BfvParameters:
    return BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def registry(params) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register(
        "demo",
        demo_network(),
        demo_weights(),
        params,
        schedule=GATEWAY_SCHEDULE,
        rescale_bits=DEMO_RESCALE_BITS,
    )
    return registry


@pytest.fixture(scope="module")
def plaintext_logits():
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    return lambda image: runner.run(image)


def _client(params, transport, seed=7, **kwargs) -> ClientSession:
    return ClientSession(demo_network(), params, transport, seed=seed, **kwargs)


class TestGatewayEndToEnd:
    def test_matches_plaintext_over_gateway(
        self, registry, params, plaintext_logits
    ):
        engine = ServingEngine(registry, max_batch=1, seed=11)
        with AsyncGateway(engine, executor_threads=2) as gateway:
            with SocketTransport(gateway.host, gateway.port) as transport:
                session = _client(params, transport, track_noise=True)
                session.connect("demo")
                image = demo_image(3)
                result = session.infer(image)
                session.close()
        assert np.array_equal(result.logits, plaintext_logits(image))
        assert result.rounds == 3
        assert result.min_noise_budget > 0
        assert result.busy_retries == 0

    def test_concurrent_batched_sessions_bit_identical(
        self, registry, params, plaintext_logits
    ):
        """Connections multiplex on the loop yet still meet in the batcher."""
        clients = 4
        metrics = MetricsRegistry()
        engine = ServingEngine(
            registry, max_batch=clients, seed=12, metrics=metrics
        )
        with AsyncGateway(engine, executor_threads=clients * 2) as gateway:
            transports = [
                SocketTransport(gateway.host, gateway.port)
                for _ in range(clients)
            ]
            sessions = []
            for i, transport in enumerate(transports):
                session = _client(params, transport, seed=30 + i)
                session.connect("demo")
                sessions.append(session)
            images = [demo_image(200 + i) for i in range(clients)]
            results = [None] * clients
            errors = []

            def run(i):
                try:
                    results[i] = sessions[i].infer(images[i])
                except BaseException as exc:  # surfaces in the main thread
                    errors.append(exc)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            for transport in transports:
                transport.close()
        assert not errors
        for i in range(clients):
            assert np.array_equal(
                results[i].logits, plaintext_logits(images[i])
            ), i
        # The batcher reported its fills into the metrics registry.
        fill = metrics.snapshot()["batch_fill"]
        assert fill["requests"] == clients * 3  # 3 linear rounds each
        assert fill["batches"] >= 3

    def test_session_survives_reconnect(
        self, registry, params, plaintext_logits
    ):
        """Session state lives on the engine, not the connection."""
        engine = ServingEngine(registry, max_batch=1, seed=13)
        with AsyncGateway(engine, executor_threads=2) as gateway:
            first = SocketTransport(gateway.host, gateway.port)
            session = _client(params, first)
            session.connect("demo")
            image = demo_image(5)
            before = session.infer(image)
            session_id = session.session_id
            first.close()  # client vanishes without close()
            second = SocketTransport(gateway.host, gateway.port)
            session.transport = second
            after = session.infer(image)
            assert session.session_id == session_id
            session.close()
            second.close()
        assert np.array_equal(before.logits, plaintext_logits(image))
        assert np.array_equal(after.logits, before.logits)

    def test_connection_cut_recovers_through_gateway(
        self, registry, params, plaintext_logits
    ):
        """PR 6 fault injection recovers through the async front end."""
        engine = ServingEngine(registry, max_batch=1, seed=14)
        faults = ConnectionFaults(cut_on_recv=3)
        with AsyncGateway(engine, executor_threads=2) as gateway:
            with SocketTransport(
                gateway.host, gateway.port, socket_factory=faults.connect,
                backoff_base_s=0.01, retry_jitter_seed=0,
            ) as transport:
                session = _client(params, transport)
                session.connect("demo")
                image = demo_image(6)
                result = session.infer(image)
                session.close()
        assert faults.fired == ["cut_on_recv:3"]
        assert result.transport_retries >= 1
        assert np.array_equal(result.logits, plaintext_logits(image))


class TestSessionStateMachine:
    def test_lifecycle_transitions(self, registry, params):
        engine = ServingEngine(registry, max_batch=1, seed=15)
        transport = LoopbackTransport(engine)
        session = _client(params, transport)
        # Drive the handshake by hand to observe the intermediate state.
        from repro.bfv.serialize import params_to_dict, serialize_galois_keys

        hello = transport.request(
            Message("hello", {"model": "demo", "params": params_to_dict(params)})
        )
        sid = hello.meta["session"]
        assert engine._sessions[sid].state is SessionState.AWAIT_KEYS
        linear = transport.request(Message("linear", {"session": sid, "layer": "conv1"}))
        assert linear.kind == "error" and "Galois" in linear.meta["reason"]
        steps = [int(s) for s in hello.meta["rotation_steps"]]
        galois = session.scheme.generate_galois_keys(session.secret, steps)
        blob = serialize_galois_keys(galois, params)
        reply = transport.request(
            Message("galois_keys", {"session": sid}, [blob])
        )
        assert reply.kind == "keys_ok"
        assert engine._sessions[sid].state is SessionState.READY
        # Re-upload is idempotent (transport replay safety), state holds.
        reply = transport.request(
            Message("galois_keys", {"session": sid}, [blob])
        )
        assert reply.kind == "keys_ok"
        assert engine._sessions[sid].state is SessionState.READY
        assert transport.request(Message("close", {"session": sid})).kind == "close_ok"
        assert sid not in engine._sessions


class _RecordingExecutor(LocalExecutor):
    """LocalExecutor that records key release calls (TTL reclamation)."""

    def __init__(self):
        self.prepared: list[str] = []
        self.released: list[str] = []

    def prepare_keys(self, entry, key_id, blob, keys):
        self.prepared.append(key_id)
        return keys

    def release_keys(self, key_id):
        self.released.append(key_id)


class TestSessionTtl:
    def test_idle_sessions_reclaimed_and_rehandshake(
        self, registry, params, plaintext_logits
    ):
        executor = _RecordingExecutor()
        engine = ServingEngine(
            registry, max_batch=1, seed=16, executor=executor,
            session_ttl_s=30.0,
        )
        transport = LoopbackTransport(engine)
        session = _client(params, transport)
        session.connect("demo")
        sid = session.session_id
        assert executor.prepared == [sid]
        # Backdate the session past the TTL and sweep.
        engine._sessions[sid].last_used -= 60.0
        evicted = engine.evict_idle_sessions()
        assert evicted == [sid]
        # Memory is reclaimed: keys released, traffic log gone.
        assert executor.released == [sid]
        assert sid not in engine._sessions
        with pytest.raises(KeyError):
            engine.session_traffic(sid)
        # The client's next round fails with "unknown session" ...
        with pytest.raises(ServingError, match="unknown session"):
            session.infer(demo_image(0))
        # ... and a clean re-handshake restores service.
        session.connect("demo")
        assert session.session_id != sid
        image = demo_image(7)
        assert np.array_equal(
            session.infer(image).logits, plaintext_logits(image)
        )

    def test_lazy_sweep_on_request_path(self, registry, params):
        engine = ServingEngine(
            registry, max_batch=1, seed=17, session_ttl_s=30.0
        )
        transport = LoopbackTransport(engine)
        stale = _client(params, transport, seed=1)
        stale.connect("demo")
        engine._sessions[stale.session_id].last_used -= 60.0
        engine._last_sweep -= 60.0  # the sweep rate limiter
        fresh = _client(params, transport, seed=2)
        fresh.connect("demo")  # any request triggers the lazy sweep
        assert stale.session_id not in engine._sessions
        assert fresh.session_id in engine._sessions


class _DenyFirstAdmission(AdmissionController):
    """Deterministic backpressure: refuse the first ``denials`` rounds."""

    def __init__(self, denials: int):
        super().__init__()
        self.denials = denials

    def try_admit(self, tenant):
        if self.denials > 0:
            self.denials -= 1
            return 0.01
        return super().try_admit(tenant)


class TestBackpressure:
    def test_busy_retry_completes_bit_identical(
        self, registry, params, plaintext_logits
    ):
        """A client hitting a full queue gets BUSY, retries, completes."""
        admission = _DenyFirstAdmission(denials=2)
        engine = ServingEngine(
            registry, max_batch=1, seed=18, admission=admission
        )
        with AsyncGateway(engine, executor_threads=2) as gateway:
            with SocketTransport(gateway.host, gateway.port) as transport:
                session = _client(params, transport)
                session.connect("demo")
                image = demo_image(8)
                result = session.infer(image)
                session.close()
        assert result.busy_retries == 2
        assert np.array_equal(result.logits, plaintext_logits(image))

    def test_busy_retries_exhausted_raises(self, registry, params):
        admission = _DenyFirstAdmission(denials=1000)
        engine = ServingEngine(
            registry, max_batch=1, seed=19, admission=admission
        )
        transport = LoopbackTransport(engine)
        session = _client(params, transport, busy_retry_limit=3)
        session.connect("demo")
        with pytest.raises(ServingError, match="busy"):
            session.infer(demo_image(0))

    def test_queue_depth_bound(self, registry, params):
        """try_admit holds a slot; the bound refuses the excess round."""
        admission = AdmissionController(max_queue_depth=2)
        assert admission.try_admit("acme") is None
        assert admission.try_admit("other") is None
        wait = admission.try_admit("acme")
        assert wait is not None and wait > 0
        assert admission.rejections["queue"] == 1
        admission.release()
        assert admission.try_admit("acme") is None

    def test_token_bucket_rate_limits_per_tenant(self):
        clock = [0.0]
        admission = AdmissionController(
            rate_per_tenant=10.0, burst=2.0, clock=lambda: clock[0]
        )
        # The burst admits two rounds; the third must wait ~1/rate.
        assert admission.try_admit("acme") is None
        assert admission.try_admit("acme") is None
        wait = admission.try_admit("acme")
        assert wait == pytest.approx(0.1, abs=0.02)
        assert admission.rejections["rate"] == 1
        # Another tenant has its own bucket.
        assert admission.try_admit("other") is None
        # Tokens accrue with the (injected) clock.
        clock[0] += 0.2
        assert admission.try_admit("acme") is None

    def test_token_bucket_refill_capped_at_burst(self):
        clock = [0.0]
        bucket = TokenBucket(rate_per_s=5.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock[0] += 100.0  # long idle must not bank more than the burst
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0

    def test_gateway_sheds_load_in_event_loop(self, registry, params):
        """At queue_limit, linear rounds are refused at the gateway."""
        engine = ServingEngine(registry, max_batch=1, seed=21)
        gateway = AsyncGateway(engine, executor_threads=2, queue_limit=1)
        # Force the shed path deterministically: pretend a round is stuck.
        gateway._inflight = 1
        with gateway:
            with SocketTransport(gateway.host, gateway.port) as transport:
                session = _client(params, transport)
                session.connect("demo")  # control plane is never shed
                reply = transport.request(
                    Message(
                        "linear",
                        {"session": session.session_id, "layer": "conv1"},
                    )
                )
                assert reply.kind == "busy"
                assert reply.meta["retry_after_s"] > 0
            gateway._inflight = 0
        assert gateway.busy_rejections == 1


class TestTrafficIsolation:
    def test_concurrent_interleaved_rounds_tally_per_session(
        self, registry, params
    ):
        """Two sessions racing one layer batch each see only their own counts.

        The serial baseline runs the *identical* clients (same seeds,
        same images) one at a time against a fresh engine; a client's
        uploaded bytes are a deterministic function of (seed, image), so
        any cross-session leakage in the concurrent tally -- a byte or an
        event landing on the wrong session's log -- breaks the exact
        per-session equality below.
        """
        seeds, images = [50, 51], [demo_image(60), demo_image(61)]
        serial_engine = ServingEngine(registry, max_batch=1, seed=22)
        serial_transport = LoopbackTransport(serial_engine)
        expected = []
        for seed, image in zip(seeds, images):
            session = _client(params, serial_transport, seed=seed)
            session.connect("demo")
            session.infer(image)
            expected.append(serial_engine.session_traffic(session.session_id))

        engine = ServingEngine(registry, max_batch=2, seed=22)
        transport = LoopbackTransport(engine)
        sessions = []
        for seed in seeds:
            session = _client(params, transport, seed=seed)
            session.connect("demo")
            sessions.append(session)
        barrier = threading.Barrier(2)
        errors = []

        def run(session, image):
            try:
                barrier.wait(timeout=5)
                session.infer(image)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(session, image))
            for session, image in zip(sessions, images)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        def label_counts(traffic):
            counts: dict[str, int] = {}
            for _direction, label, _nbytes in traffic.events:
                counts[label] = counts.get(label, 0) + 1
            return counts

        for session, reference in zip(sessions, expected):
            traffic = engine.session_traffic(session.session_id)
            assert traffic.rounds == reference.rounds == 3
            assert label_counts(traffic) == label_counts(reference)
            # Uploaded bytes are deterministic per (seed, image): exact.
            assert traffic.client_to_cloud_bytes == reference.client_to_cloud_bytes
            # Downloads involve the engine's blinding RNG, whose draw
            # order is interleaving-dependent; the mask block itself is
            # fixed-size, so only ciphertext encodings may wiggle.
            assert traffic.cloud_to_client_bytes > 0


class TestMetricsSurface:
    def test_http_scrape_after_inference(
        self, registry, params, plaintext_logits
    ):
        metrics = MetricsRegistry()
        engine = ServingEngine(registry, max_batch=1, seed=23, metrics=metrics)
        with AsyncGateway(engine, executor_threads=2) as gateway:
            with SocketTransport(gateway.host, gateway.port) as transport:
                session = _client(params, transport)
                session.connect("demo")
                image = demo_image(9)
                result = session.infer(image)
                session.close()
            url = f"http://{gateway.host}:{gateway.port}/metrics"
            with urllib.request.urlopen(url, timeout=5) as response:
                assert response.status == 200
                import json

                snapshot = json.loads(response.read().decode())
        assert np.array_equal(result.logits, plaintext_logits(image))
        assert snapshot["requests"]["count"] >= 6  # hello+keys+3 linear+close
        assert snapshot["requests"]["by_kind"]["linear"] == 3
        assert set(snapshot["layers"]) == {"conv1", "fc1", "fc2"}
        for series in snapshot["layers"].values():
            assert series["count"] == 1
            assert series["p95_ms"] >= series["p50_ms"] > 0
        assert snapshot["he_ops"]["he_rotate"] > 0
        assert snapshot["gauges"]["noise_headroom_bits"]["demo"] > 0
        assert snapshot["gauges"]["gateway_connections"] >= 0

    def test_http_unknown_path_is_404(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=24)
        with AsyncGateway(engine, executor_threads=1) as gateway:
            request = urllib.request.Request(
                f"http://{gateway.host}:{gateway.port}/nope"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 404

    def test_wire_metrics_message(self, registry, params):
        metrics = MetricsRegistry()
        engine = ServingEngine(registry, max_batch=1, seed=25, metrics=metrics)
        transport = LoopbackTransport(engine)
        session = _client(params, transport)
        session.connect("demo")
        reply = transport.request(Message("metrics"))
        assert reply.kind == "metrics_ok"
        snapshot = reply.meta["metrics"]
        assert snapshot["requests"]["by_kind"]["hello"] == 1
        assert snapshot["gauges"]["sessions"] == 1

    def test_metrics_disabled_is_an_error_reply(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=26)
        reply = LoopbackTransport(engine).request(Message("metrics"))
        assert reply.kind == "error"

    def test_requests_per_second_windowed(self):
        metrics = MetricsRegistry()
        for _ in range(10):
            metrics.record_request("linear", 0.001, "linear_ok")
        assert metrics.requests_per_second() > 0
        snapshot = metrics.snapshot()
        assert snapshot["requests"]["ok"] == 10
        assert snapshot["requests"]["busy"] == 0


class TestFrameCaps:
    def _oversized_probe(self, host, port, claim=1 << 24):
        """Claim a huge frame; return whether the peer closed on us."""
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(struct.pack("<I", claim))
            sock.settimeout(5)
            try:
                return sock.recv(1) == b""
            except (ConnectionResetError, TimeoutError):
                return True

    def test_gateway_rejects_oversized_claim_before_allocation(
        self, registry
    ):
        engine = ServingEngine(registry, max_batch=1, seed=27)
        with AsyncGateway(
            engine, executor_threads=1, max_frame_bytes=1 << 16
        ) as gateway:
            assert self._oversized_probe(gateway.host, gateway.port)

    def test_recv_frame_cap_is_checked_before_body_read(self):
        from repro.serving.wire import recv_frame

        left, right = socket.socketpair()
        try:
            # A 1 MiB claim with *no body at all*: with the cap enforced
            # from the prefix, recv_frame must raise without blocking on
            # the (absent) body bytes.
            left.sendall(struct.pack("<I", 1 << 20))
            right.settimeout(2)
            with pytest.raises(ValueError, match="exceeds cap"):
                recv_frame(right, max_frame_bytes=1 << 16)
        finally:
            left.close()
            right.close()

    def test_cap_default_still_serves_large_frames(self, registry, params):
        """The configurable cap must not break normal key-upload frames."""
        engine = ServingEngine(registry, max_batch=1, seed=29)
        with AsyncGateway(engine, executor_threads=1) as gateway:
            with SocketTransport(gateway.host, gateway.port) as transport:
                session = _client(params, transport)
                session.connect("demo")  # the Galois key blob is the big one
                session.close()


class TestGatewayLifecycle:
    def test_stop_drains_in_flight_requests(self):
        """A round already executing when stop() arrives gets its reply."""
        started = threading.Event()

        class SlowEngine:
            def handle(self, request):
                started.set()
                time.sleep(0.4)
                return Message("slow_ok", {"echo": request.kind})

        gateway = AsyncGateway(SlowEngine(), executor_threads=2).start()
        replies = []

        def drive():
            with SocketTransport(gateway.host, gateway.port) as transport:
                replies.append(transport.request(Message("ping", {})))

        client = threading.Thread(target=drive)
        client.start()
        assert started.wait(5), "request never reached the engine"
        stop_start = time.monotonic()
        gateway.stop()
        stopped_after = time.monotonic() - stop_start
        client.join(timeout=5)
        assert replies and replies[0].kind == "slow_ok"
        assert stopped_after >= 0.2

    def test_stop_unblocks_idle_connections(self, registry):
        """stop() must not hang while a client sits connected and silent."""
        metrics = MetricsRegistry()
        engine = ServingEngine(registry, max_batch=1, seed=31, metrics=metrics)
        gateway = AsyncGateway(engine, executor_threads=1).start()
        idle = socket.create_connection((gateway.host, gateway.port))
        # Readiness event, not a fixed sleep: the connection only matters
        # to stop() once the loop owns it -- which the gateway_connections
        # gauge, read over that very connection, reports.
        send_frame(idle, encode_message(Message("metrics")))
        snapshot = decode_message(recv_frame(idle)).meta["metrics"]
        assert snapshot["gauges"]["gateway_connections"] == 1
        start = time.monotonic()
        gateway.stop()
        assert time.monotonic() - start < 5
        idle.close()

    def test_bad_frame_gets_error_reply_and_keeps_the_connection(
        self, registry
    ):
        engine = ServingEngine(
            registry, max_batch=1, seed=33, metrics=MetricsRegistry()
        )
        with AsyncGateway(engine, executor_threads=1) as gateway:
            with socket.create_connection((gateway.host, gateway.port)) as sock:
                send_frame(sock, b"not a message frame")
                reply = decode_message(recv_frame(sock))
                assert reply.kind == "error"
                assert "bad frame" in reply.meta["reason"]
                # A frame that fails to decode does not desync the
                # stream: the next well-formed one is served.
                send_frame(sock, encode_message(Message("metrics")))
                assert decode_message(recv_frame(sock)).kind == "metrics_ok"

    def test_mistyped_frame_header_gets_error_reply_and_keeps_the_connection(
        self, registry, caplog, rewrite_header
    ):
        """A frame header with a mistyped field is a ``bad frame`` like any
        other malformed frame: no exception escapes the connection handler."""
        engine = ServingEngine(
            registry, max_batch=1, seed=35, metrics=MetricsRegistry()
        )
        with caplog.at_level(logging.WARNING), AsyncGateway(engine, executor_threads=1) as gateway:
            with socket.create_connection((gateway.host, gateway.port)) as sock:
                for edit, field in (({"meta": 5}, "meta"), ({"blob_lengths": 3}, "blob_lengths")):
                    frame = encode_message(Message("metrics"))
                    send_frame(sock, rewrite_header(frame, lambda h: h.update(edit)))
                    reply = decode_message(recv_frame(sock))
                    assert reply.kind == "error"
                    assert f"bad frame: frame header '{field}'" in reply.meta["reason"]
                send_frame(sock, encode_message(Message("metrics")))
                assert decode_message(recv_frame(sock)).kind == "metrics_ok"
        assert not [record for record in caplog.records if record.exc_info]

    @pytest.mark.parametrize("bad", [[1, 2], "params", 7, None], ids=repr)
    def test_hello_params_not_an_object_is_refused(self, registry, bad, caplog):
        """A ``hello`` whose ``params`` is no object gets an error reply
        naming the field, at the engine and through the gateway, without
        an engine exception (logged with a traceback) and without losing
        the connection."""
        hello = Message("hello", {"model": "demo", "params": bad})
        engine = ServingEngine(registry, max_batch=1, seed=34, metrics=MetricsRegistry())
        reply = engine.handle(hello)
        assert reply.kind == "error" and "'params'" in reply.meta["reason"]
        with caplog.at_level(logging.WARNING), AsyncGateway(engine, executor_threads=1) as gateway:
            with socket.create_connection((gateway.host, gateway.port)) as sock:
                send_frame(sock, encode_message(hello))
                reply = decode_message(recv_frame(sock))
                assert reply.kind == "error"
                assert "'params' must be an object" in reply.meta["reason"]
                send_frame(sock, encode_message(Message("metrics")))
                assert decode_message(recv_frame(sock)).kind == "metrics_ok"
        assert not [record for record in caplog.records if record.exc_info]

    def test_stop_is_idempotent(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=32)
        gateway = AsyncGateway(engine, executor_threads=1).start()
        gateway.stop()
        gateway.stop()
