"""Tests for the multi-client serving runtime (repro.serving).

Covers the wire format, the parameter handshake, loopback and socket
transports, and the core serving guarantee: concurrent sessions -- with
cross-client batching on -- return logits bit-identical to direct
in-process :class:`GazelleProtocol` runs.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bfv import BfvParameters, BfvScheme
from repro.bfv.counters import counting
from repro.bfv.keys import GaloisKeys
from repro.bfv.serialize import params_to_dict, serialize_galois_keys
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.protocol import GazelleProtocol
from repro.scheduling import ConvPlan, FcPlan, encrypt_channels, pack_fc_input
from repro.scheduling.conv2d import _infer_width
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    Message,
    ModelRegistry,
    ServingEngine,
    ServingError,
    decode_message,
    demo_image,
    demo_network,
    demo_weights,
    encode_message,
)

SERVE_SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def serve_params() -> BfvParameters:
    return BfvParameters.create(
        n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def registry(serve_params) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register(
        "demo",
        demo_network(),
        demo_weights(),
        serve_params,
        schedule=SERVE_SCHEDULE,
        rescale_bits=DEMO_RESCALE_BITS,
    )
    return registry


@pytest.fixture(scope="module")
def plaintext_logits():
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    return lambda image: runner.run(image)


class TestWireFormat:
    def test_message_roundtrip(self):
        msg = Message("linear", {"session": "s1", "layer": "conv1"}, [b"abc", b"", b"xy"])
        restored = decode_message(encode_message(msg))
        assert restored.kind == msg.kind
        assert restored.meta == msg.meta
        assert restored.blobs == msg.blobs

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            decode_message(b"definitely not a frame")

    def test_rejects_truncated_blob(self):
        payload = encode_message(Message("x", {}, [b"0123456789"]))
        with pytest.raises(ValueError, match="truncated"):
            decode_message(payload[:-3])

    def test_rejects_trailing_bytes(self):
        payload = encode_message(Message("x", {}))
        with pytest.raises(ValueError, match="trailing"):
            decode_message(payload + b"!!")


class TestHandshake:
    def test_unknown_model_rejected(self, registry, serve_params):
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine)
        )
        with pytest.raises(ServingError, match="no model"):
            session.connect("nope")

    def test_mismatched_params_rejected(self, registry):
        engine = ServingEngine(registry, max_batch=1)
        other = BfvParameters.create(
            n=2048, plain_bits=17, coeff_bits=100, a_dcmp_bits=16,
            require_security=False,
        )
        session = ClientSession(demo_network(), other, LoopbackTransport(engine))
        with pytest.raises(ServingError, match="parameter mismatch"):
            session.connect("demo")

    def test_linear_before_keys_rejected(self, registry, serve_params):
        engine = ServingEngine(registry, max_batch=1)
        transport = LoopbackTransport(engine)
        reply = transport.request(
            Message(
                "hello",
                {
                    "model": "demo",
                    "params": __import__(
                        "repro.bfv.serialize", fromlist=["params_to_dict"]
                    ).params_to_dict(serve_params),
                },
            )
        )
        assert reply.kind == "hello_ok"
        linear = transport.request(
            Message("linear", {"session": reply.meta["session"], "layer": "conv1"})
        )
        assert linear.kind == "error"
        assert "Galois" in linear.meta["reason"]

    def test_handshake_reports_plan_facts(self, registry, serve_params):
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine)
        )
        session.connect("demo")
        entry = registry.get("demo")
        assert session.rescale_bits == DEMO_RESCALE_BITS
        assert set(session._layer_meta) == {"conv1", "fc1", "fc2"}
        assert session._layer_meta["conv1"]["grid_w"] == entry.plans["conv1"].grid_w


class _BlobCountingTransport(LoopbackTransport):
    """A loopback that tallies request plus reply blob bytes per kind."""

    def __init__(self, engine):
        super().__init__(engine)
        self.blob_bytes = {}

    def request(self, message: Message) -> Message:
        reply = super().request(message)
        moved = sum(len(blob) for blob in message.blobs + reply.blobs)
        self.blob_bytes[message.kind] = self.blob_bytes.get(message.kind, 0) + moved
        return reply


class TestMalformedUploads:
    """Bad blobs come back as an ``error`` reply, never as an exception
    out of :meth:`ServingEngine.handle`."""

    VERSION_1 = "serialization format version 1 (64-bit residues) is not read"

    @staticmethod
    def hello(transport, params):
        reply = transport.request(
            Message("hello", {"model": "demo", "params": params_to_dict(params)})
        )
        assert reply.kind == "hello_ok"
        return reply.meta["session"]

    def test_key_header_params_not_an_object(
        self, registry, serve_params, rewrite_header
    ):
        transport = LoopbackTransport(ServingEngine(registry, max_batch=1))
        session_id = self.hello(transport, serve_params)
        blob = rewrite_header(
            serialize_galois_keys(GaloisKeys(), serve_params),
            lambda header: header.update(params=[1]),
        )
        reply = transport.request(
            Message("galois_keys", {"session": session_id}, [blob])
        )
        assert reply.kind == "error"
        assert "header 'params' is not an object" in reply.meta["reason"]

    def test_version_1_blobs_refused_by_name(
        self, registry, serve_params, version1_wire
    ):
        engine = ServingEngine(registry, max_batch=1)
        transport = LoopbackTransport(engine)
        keys_blob = version1_wire.galois_keys(GaloisKeys(), serve_params)
        reply = transport.request(
            Message(
                "galois_keys",
                {"session": self.hello(transport, serve_params)},
                [keys_blob],
            )
        )
        assert reply.kind == "error" and self.VERSION_1 in reply.meta["reason"]

        session = ClientSession(demo_network(), serve_params, transport, seed=7)
        session.connect("demo")
        ct = session.scheme.encrypt_values(np.arange(4), session.public)
        ct_blob = version1_wire.ciphertext(ct, serve_params)
        reply = transport.request(
            Message(
                "linear",
                {"session": session.session_id, "layer": "conv1"},
                [ct_blob] * registry.get("demo").plans["conv1"].ci,
            )
        )
        assert reply.kind == "error" and self.VERSION_1 in reply.meta["reason"]


class _TamperingTransport(LoopbackTransport):
    """A loopback that rewrites the ``linear_ok`` reply of one layer."""

    def __init__(self, engine, layer, tamper):
        super().__init__(engine)
        self.layer, self.tamper = layer, tamper

    def request(self, message: Message) -> Message:
        reply = super().request(message)
        if reply.kind == "linear_ok" and reply.meta["layer"] == self.layer:
            reply = self.tamper(reply)
        return reply


class TestClientReplyChecks:
    """The client refuses a ``linear_ok`` reply that does not fit the
    layer's output layout instead of unmasking with it: a mis-shaped mask
    would broadcast and return wrong logits with no error."""

    @staticmethod
    def infer_through(registry, params, tamper):
        engine = ServingEngine(registry, max_batch=1)
        transport = _TamperingTransport(engine, "conv1", tamper)
        session = ClientSession(demo_network(), params, transport, seed=8)
        session.connect("demo")
        return session.infer(demo_image(1))

    def test_mis_shaped_mask_is_refused(self, registry, serve_params):
        def shrink_mask(reply):
            meta = {**reply.meta, "mask_shape": [4, 1, 1]}
            return Message("linear_ok", meta, [*reply.blobs[:-1], bytes(16)])

        refused = r"conv1: mask shape \[4, 1, 1\], expected \[4, 6, 6\]"
        with pytest.raises(ValueError, match=refused):
            self.infer_through(registry, serve_params, shrink_mask)

    def test_missing_ciphertext_is_refused(self, registry, serve_params):
        def drop_one(reply):
            blobs = [*reply.blobs[:-2], reply.blobs[-1]]
            return Message("linear_ok", reply.meta, blobs)

        refused = r"conv1: expected 4 output row\(s\), got 3"
        with pytest.raises(ValueError, match=refused):
            self.infer_through(registry, serve_params, drop_one)


class TestLoopbackInference:
    def test_matches_direct_protocol(self, registry, serve_params, plaintext_logits):
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine),
            seed=3, track_noise=True,
        )
        session.connect("demo")
        image = demo_image(1)
        result = session.infer(image)
        direct = GazelleProtocol(
            demo_network(), demo_weights(), serve_params,
            schedule=SERVE_SCHEDULE, rescale_bits=DEMO_RESCALE_BITS, seed=9,
        ).run(image)
        assert np.array_equal(result.logits, direct.logits)
        assert np.array_equal(result.logits, plaintext_logits(image))
        assert result.min_noise_budget > 0
        assert result.rounds == 3

    def test_traffic_tallied_per_session(self, registry, serve_params):
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine), seed=4
        )
        session.connect("demo")
        session.infer(demo_image(0))
        traffic = engine.session_traffic(session.session_id)
        assert traffic.rounds == 3
        assert traffic.client_to_cloud_bytes > 0
        assert traffic.cloud_to_client_bytes > 0
        labels = [label for _dir, label, _n in traffic.events]
        assert "galois_keys" in labels and "conv1" in labels and "fc2+mask" in labels

    def test_resident_key_bytes_are_the_uint32_stacks(self, registry, serve_params):
        """A session's uploaded keys hold exactly ``2 k l_ct n * 4`` bytes per
        Galois element, with no int64 copy beside them -- after the upload
        and after inferences (rotations stream the stacks, cache nothing)."""
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine), seed=6
        )
        session.connect("demo")
        keys = engine._sessions[session.session_id].galois_keys
        params = serve_params
        per_element = 2 * params.coeff_basis.count * params.l_ct * params.n * 4
        for _ in range(2):
            assert keys.nbytes == len(keys.keys) * per_element
            owners = {}
            for key in keys.keys.values():
                arrays = [v for v in vars(key).values() if isinstance(v, np.ndarray)]
                assert [a.dtype for a in arrays] == [np.uint32]
                owner = arrays[0]
                while owner.base is not None:
                    owner = owner.base
                owners[id(owner)] = owner
            assert all(owner.dtype == np.uint32 for owner in owners.values())
            assert sum(owner.nbytes for owner in owners.values()) == keys.nbytes
            session.infer(demo_image(0))

    def test_one_inference_moves_at_most_600_kb(self, registry, serve_params):
        """The session tally is the blob bytes that crossed: a key upload
        no bigger than the resident stacks plus 1 KB, then one inference
        (9 ciphertexts and the masks) within 600 KB."""
        engine = ServingEngine(registry, max_batch=1)
        transport = _BlobCountingTransport(engine)
        session = ClientSession(demo_network(), serve_params, transport, seed=5)
        session.connect("demo")
        traffic = engine.session_traffic(session.session_id)
        keys = engine._sessions[session.session_id].galois_keys
        assert traffic.total_bytes == transport.blob_bytes["galois_keys"]
        assert traffic.total_bytes <= keys.nbytes + 1024
        session.infer(demo_image(0))
        assert traffic.total_bytes == sum(transport.blob_bytes.values())
        assert traffic.total_bytes - transport.blob_bytes["galois_keys"] <= 600_000

    def test_concurrent_batched_sessions_bit_identical(
        self, registry, serve_params, plaintext_logits
    ):
        """Cross-client batching preserves every request's own output."""
        clients = 4
        engine = ServingEngine(registry, max_batch=clients)
        transport = LoopbackTransport(engine)
        sessions = []
        for i in range(clients):
            session = ClientSession(
                demo_network(), serve_params, transport, seed=20 + i
            )
            session.connect("demo")
            sessions.append(session)
        images = [demo_image(100 + i) for i in range(clients)]
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
        assert not errors
        direct = GazelleProtocol(
            demo_network(), demo_weights(), serve_params,
            schedule=SERVE_SCHEDULE, rescale_bits=DEMO_RESCALE_BITS, seed=77,
        )
        for i in range(clients):
            assert np.array_equal(results[i].logits, direct.run(images[i]).logits), i
            assert np.array_equal(results[i].logits, plaintext_logits(images[i])), i

    def test_reregistered_model_not_served_stale_plans(self, serve_params):
        """New sessions after a re-register must use the new weights, even
        with batching on (the per-layer batcher is entry-bound)."""
        from repro.nn.plaintext import PlaintextRunner

        registry = ModelRegistry()
        registry.register(
            "m", demo_network(), demo_weights(seed=0), serve_params,
            schedule=SERVE_SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
        )
        engine = ServingEngine(registry, max_batch=2)
        transport = LoopbackTransport(engine)
        old = ClientSession(demo_network(), serve_params, transport, seed=1)
        old.connect("m")
        image = demo_image(0)
        old_logits = old.infer(image).logits

        registry.register(
            "m", demo_network(), demo_weights(seed=5), serve_params,
            schedule=SERVE_SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
        )
        new = ClientSession(demo_network(), serve_params, transport, seed=2)
        new.connect("m")
        expected_new = PlaintextRunner(
            demo_network(), demo_weights(seed=5), rescale_bits=DEMO_RESCALE_BITS
        ).run(image)
        assert np.array_equal(new.infer(image).logits, expected_new)
        # The pre-existing session keeps the entry it handshook with.
        assert np.array_equal(old.infer(image).logits, old_logits)

    def test_session_table_is_bounded(self, registry, serve_params):
        """Clients that vanish without close() must not leak key material."""
        engine = ServingEngine(registry, max_batch=1, max_sessions=2)
        transport = LoopbackTransport(engine)
        sessions = []
        for i in range(4):
            session = ClientSession(
                demo_network(), serve_params, transport, seed=40 + i
            )
            session.connect("demo")
            sessions.append(session)
        assert len(engine._sessions) == 2
        with pytest.raises(ServingError, match="unknown session"):
            sessions[0].infer(demo_image(0))

    def test_close_frees_session(self, registry, serve_params):
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine)
        )
        session.connect("demo")
        sid = session.session_id
        session.close()
        with pytest.raises(KeyError):
            engine.session_traffic(sid)


class _GatedCondition(threading.Condition):
    """A batcher condition whose waits hold until ``count`` requests are
    queued, so a leader cannot act before every submitter has appended.

    Once open it records the queue's arrival order and stays open.
    """

    def __init__(self, batcher, count: int):
        super().__init__()
        self._batcher = batcher
        self._count = count
        self.order = None
        #: Set by the first wait: the leader is waiting for followers.
        self.entered = threading.Event()

    def _open(self) -> bool:
        if self.order is None and len(self._batcher._pending) >= self._count:
            self.order = [item.cts for item in self._batcher._pending]
        return self.order is not None

    def wait(self, timeout=None):
        self.entered.set()
        if self._open():
            return super().wait(timeout)
        while not self._open():
            super().wait()
        return True


class TestLayerBatcher:
    """``_LayerBatcher`` keeps its contract: at most ``max_batch`` per
    generation, in arrival order, and the first request left over leads
    the next generation."""

    @staticmethod
    def _batcher(max_batch):
        from repro.serving.engine import _LayerBatcher

        generations = []

        def execute(items):
            generations.append([item.cts for item in items])
            return [f"out-{item.cts}" for item in items]

        return _LayerBatcher(execute, max_batch), generations

    @staticmethod
    def _submit_all(batcher, tags, started):
        """One submitter thread per tag, the first alone until ``started``;
        returns each tag's output."""
        outputs = {}

        def submit(tag):
            outputs[tag] = batcher.submit(tag, None)

        threads = [threading.Thread(target=submit, args=(tag,)) for tag in tags]
        threads[0].start()
        assert started.wait(5), "the first submitter never led"
        for thread in threads[1:]:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        return outputs

    def test_generation_never_exceeds_max_batch(self):
        batcher, generations = self._batcher(max_batch=2)
        gate = batcher._cond = _GatedCondition(batcher, count=3)
        outputs = self._submit_all(batcher, ["a", "b", "c"], gate.entered)
        assert gate.order[0] == "a"
        assert generations == [gate.order[:2], gate.order[2:]], (
            "a generation took more than max_batch requests, or the one "
            "left over was not served next"
        )
        assert outputs == {tag: f"out-{tag}" for tag in "abc"}

    def test_max_batch_one_runs_concurrent_requests_alone(self):
        """Two submitters with ``max_batch=1``: two generations of one,
        the second running while the first is still executing."""
        from repro.serving.engine import _LayerBatcher

        first_running, second_ran = threading.Event(), threading.Event()
        overlapped = []
        generations = []

        def execute(items):
            generations.append([item.cts for item in items])
            if items[0].cts == "a":
                first_running.set()
                overlapped.append(second_ran.wait(5))
            else:
                second_ran.set()
            return [f"out-{item.cts}" for item in items]

        batcher = _LayerBatcher(execute, max_batch=1)
        outputs = self._submit_all(batcher, ["a", "b"], first_running)
        assert generations == [["a"], ["b"]]
        assert overlapped == [True], "the second request waited on the first"
        assert outputs == {"a": "out-a", "b": "out-b"}

    def test_concurrent_submitters_stress(self):
        """More submitters than cores under a short switch interval: every
        request runs in exactly one generation of at most ``max_batch``
        and gets its own output back."""
        import sys

        batcher, generations = self._batcher(max_batch=3)
        submitters, rounds = 8, 25
        outputs = {}
        errors = []

        def submit(worker):
            try:
                for index in range(rounds):
                    tag = (worker, index)
                    outputs[tag] = batcher.submit(tag, None)
            except BaseException as exc:  # surfaces in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=submit, args=(worker,))
                for worker in range(submitters)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        tags = [(w, i) for w in range(submitters) for i in range(rounds)]
        assert outputs == {tag: f"out-{tag}" for tag in tags}
        assert sorted(tag for gen in generations for tag in gen) == tags
        assert max(len(gen) for gen in generations) <= 3

    def test_every_round_goes_through_a_batcher(self, registry, serve_params):
        """``max_batch=1`` is a batcher of one, not a bypass."""
        engine = ServingEngine(registry, max_batch=1)
        session = ClientSession(
            demo_network(), serve_params, LoopbackTransport(engine), seed=5
        )
        session.connect("demo")
        session.infer(demo_image(2))
        assert sorted(layer for _entry, layer in engine._batchers) == [
            "conv1", "fc1", "fc2"
        ]


def _assert_same_residues(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.c0.data, b.c0.data)
        assert np.array_equal(a.c1.data, b.c1.data)


class TestBatchedPrimitives:
    """Bit-exactness of the stacked (k, B, n) execution paths."""

    @pytest.fixture(scope="class")
    def small(self):
        params = BfvParameters.create(
            n=256, plain_bits=18, coeff_bits=90, a_dcmp_bits=16,
            require_security=False,
        )
        return params, BfvScheme(params, seed=42)

    def _clients(self, params, server, steps, count=3):
        clients = []
        for i in range(count):
            scheme = BfvScheme(params, seed=i)
            secret, public = scheme.keygen()
            keys = scheme.generate_galois_keys(secret, steps)
            clients.append((secret, public, keys))
        return clients

    def test_rotate_rows_batch_matches_serial(self, small):
        params, server = small
        clients = self._clients(params, server, [1, 5])
        values = np.arange(params.row_size)
        for step in [1, 5]:
            cts = [
                server.encrypt(server.encoder.encode_row(values * (i + 1)), pub)
                for i, (_s, pub, _k) in enumerate(clients)
            ]
            batch = server.rotate_rows_batch(
                cts, step, [keys for _s, _p, keys in clients]
            )
            for i, (secret, _pub, keys) in enumerate(clients):
                serial = server.rotate_rows(cts[i], step, keys)
                assert np.array_equal(
                    server.decrypt_values(batch[i], secret, signed=False),
                    server.decrypt_values(serial, secret, signed=False),
                )

    def test_hoist_batch_matches_hoist(self, small):
        params, server = small
        clients = self._clients(params, server, [2])
        cts = [
            server.encrypt_values(np.arange(16) + i, pub)
            for i, (_s, pub, _k) in enumerate(clients)
        ]
        batch = server.hoist_batch(cts)
        for i, ct in enumerate(cts):
            single = server.hoist(ct)
            assert np.array_equal(batch[i].digit_stack(), single.digit_stack())

    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_conv_plan_execute_batch(self, small, schedule):
        params, server = small
        rng = np.random.default_rng(0)
        weights = rng.integers(-4, 5, (3, 2, 3, 3))
        plan = ConvPlan.compile(server, weights, schedule)
        clients = self._clients(params, server, plan.rotation_steps)
        grid_w = _infer_width(params.row_size)
        inputs = []
        for _secret, public, _keys in clients:
            grids = np.zeros((2, grid_w, grid_w), dtype=np.int64)
            grids[:, :6, :6] = rng.integers(0, 8, (2, 6, 6))
            inputs.append(encrypt_channels(server, grids, public))
        key_sets = [keys for _s, _p, keys in clients]
        with counting() as delta:
            batch = plan.execute_batch(inputs, key_sets)
        batch_ops = delta().he_ops()
        with counting() as delta:
            serials = [plan.execute(cts, keys) for cts, keys in zip(inputs, key_sets)]
        assert delta().he_ops() == batch_ops
        for i, (secret, _public, keys) in enumerate(clients):
            for got, want in zip(batch[i], serials[i]):
                assert np.array_equal(
                    server.decrypt_values(got, secret, signed=False),
                    server.decrypt_values(want, secret, signed=False),
                )
            # Residue level: a member's ciphertext bytes do not depend on
            # what shares its batch.
            _assert_same_residues(batch[i], serials[i])
            _assert_same_residues(
                batch[i], plan.execute_batch([inputs[i]], [keys])[0]
            )

    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_fc_plan_execute_batch(self, small, schedule):
        params, server = small
        rng = np.random.default_rng(1)
        weights = rng.integers(-4, 5, (8, 32))
        plan = FcPlan.compile(server, weights, schedule)
        clients = self._clients(params, server, plan.rotation_steps)
        cts, xs = [], []
        for _secret, public, _keys in clients:
            x = rng.integers(0, 8, 32)
            xs.append(x)
            packed = pack_fc_input(x, params.row_size)
            cts.append(server.encrypt(server.encoder.encode_row(packed), public))
        key_sets = [keys for _s, _p, keys in clients]
        with counting() as delta:
            batch = [out for [out] in plan.execute_batch([[ct] for ct in cts], key_sets)]
        batch_ops = delta().he_ops()
        with counting() as delta:
            serials = [plan.execute(ct, keys) for ct, keys in zip(cts, key_sets)]
        assert delta().he_ops() == batch_ops
        for i, (secret, _public, keys) in enumerate(clients):
            decoded = server.decrypt_values(batch[i], secret, signed=False)
            serial = server.decrypt_values(serials[i], secret, signed=False)
            assert np.array_equal(decoded, serial)
            assert np.array_equal(
                decoded[: len(weights)],
                (weights @ xs[i]) % params.plain_modulus,
            )
            _assert_same_residues([batch[i]], [serials[i]])
            _assert_same_residues(
                [batch[i]], plan.execute_batch([[cts[i]]], [keys])[0]
            )
