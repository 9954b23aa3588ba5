"""The engine's authenticated admin control plane (``repro admin``).

Every action is driven as the wire message ``repro admin`` sends
(:func:`~repro.serving.wire.admin_message`) through a
:class:`LoopbackTransport`, so these tests pin what an operator sees:
refusal without a configured token and with a wrong one, an unknown
action, ``status`` (including its per-tenant session count),
``evict-session`` and ``drain-tenant`` (keys released, the evicted
client's next round fails with "unknown session"), ``drain-worker`` on a
server with no shard pool, and per-tenant quotas enforced through the
engine.  The pool's own drain verbs are covered in ``test_shards.py``.
"""

from __future__ import annotations

import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.serving import (
    DEMO_RESCALE_BITS,
    AdmissionController,
    ClientSession,
    LocalExecutor,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    ServingError,
    admin_message,
    demo_image,
    demo_network,
    demo_weights,
)

TOKEN = "hunter2"


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
        "demo", demo_network(), demo_weights(), params,
        schedule=Schedule.INPUT_ALIGNED, rescale_bits=DEMO_RESCALE_BITS,
    )
    return registry


class _RecordingExecutor(LocalExecutor):
    """LocalExecutor that records which sessions' keys were released."""

    def __init__(self):
        self.released: list[str] = []

    def release_keys(self, key_id):
        self.released.append(key_id)


def _admin(transport, action, token=TOKEN, **meta):
    return transport.request(admin_message(action, token, **meta))


def _connect(params, transport, tenant="default", seed=0, **kwargs):
    session = ClientSession(
        demo_network(), params, transport, seed=seed, tenant=tenant, **kwargs
    )
    session.connect("demo")
    return session


class TestAdminAuthentication:
    def test_refused_when_no_token_is_configured(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=41)
        reply = _admin(LoopbackTransport(engine), "status")
        assert reply.kind == "error"
        assert "not enabled" in reply.meta["reason"]

    def test_refused_with_a_wrong_token(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=42, admin_token=TOKEN)
        reply = _admin(LoopbackTransport(engine), "status", token="guess")
        assert reply.kind == "error"
        assert "invalid token" in reply.meta["reason"]

    def test_unknown_action_is_refused(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=43, admin_token=TOKEN)
        reply = _admin(LoopbackTransport(engine), "self-destruct")
        assert reply.kind == "error"
        assert "unknown action 'self-destruct'" in reply.meta["reason"]


class TestAdminActions:
    def test_status_counts_sessions_per_tenant(self, registry, params):
        engine = ServingEngine(registry, max_batch=1, seed=44, admin_token=TOKEN)
        transport = LoopbackTransport(engine)
        for seed, tenant in enumerate(("acme", "acme", "other")):
            _connect(params, transport, tenant=tenant, seed=seed)
        reply = _admin(transport, "status")
        assert reply.kind == "admin_ok"
        status = reply.meta["result"]
        assert status["tenants"] == {"acme": 2, "other": 1}
        assert status["sessions"] == 3
        assert status["zoo"]["models"] == ["demo"]

    def test_evict_session_releases_keys_and_forgets_the_session(
        self, registry, params
    ):
        executor = _RecordingExecutor()
        engine = ServingEngine(
            registry, max_batch=1, seed=45, executor=executor, admin_token=TOKEN
        )
        transport = LoopbackTransport(engine)
        victim = _connect(params, transport, seed=1)
        bystander = _connect(params, transport, seed=2)
        sid = victim.session_id
        reply = _admin(transport, "evict-session", session=sid)
        assert reply.kind == "admin_ok"
        assert reply.meta["result"] == {"session": sid, "evicted": True}
        assert executor.released == [sid]
        assert set(engine._sessions) == {bystander.session_id}
        with pytest.raises(ServingError, match="unknown session"):
            victim.infer(demo_image(0))
        again = _admin(transport, "evict-session", session=sid)
        assert again.meta["result"] == {"session": sid, "evicted": False}
        assert executor.released == [sid]

    def test_drain_tenant_evicts_only_that_tenant(self, registry, params):
        executor = _RecordingExecutor()
        engine = ServingEngine(
            registry, max_batch=1, seed=46, executor=executor, admin_token=TOKEN
        )
        transport = LoopbackTransport(engine)
        acme = [
            _connect(params, transport, tenant="acme", seed=seed)
            for seed in (3, 4)
        ]
        other = _connect(params, transport, tenant="other", seed=5)
        reply = _admin(transport, "drain-tenant", tenant="acme")
        assert reply.kind == "admin_ok"
        drained = sorted(session.session_id for session in acme)
        assert reply.meta["result"] == {"tenant": "acme", "evicted": drained}
        assert sorted(executor.released) == drained
        assert set(engine._sessions) == {other.session_id}
        status = _admin(transport, "status").meta["result"]
        assert status["tenants"] == {"other": 1}

    def test_drain_worker_without_a_pool_is_an_error(self, registry):
        engine = ServingEngine(registry, max_batch=1, seed=47, admin_token=TOKEN)
        reply = _admin(LoopbackTransport(engine), "drain-worker", worker=0)
        assert reply.kind == "error"
        assert "no shard pool" in reply.meta["reason"]


class TestTenantQuotas:
    def test_each_tenant_spends_its_own_bucket(self, registry, params):
        """Burst 1 and a frozen clock: a tenant's second round is ``busy``,
        another tenant's first round is still admitted."""
        admission = AdmissionController(
            rate_per_tenant=1000.0, burst=1.0, clock=lambda: 0.0
        )
        engine = ServingEngine(registry, max_batch=1, seed=48, admission=admission)
        transport = LoopbackTransport(engine)
        tenant_a = _connect(
            params, transport, tenant="a", seed=6, busy_retry_limit=0
        )
        tenant_b = _connect(
            params, transport, tenant="b", seed=7, busy_retry_limit=0
        )
        conv1 = demo_network().layers[0]
        image = demo_image(1)
        tenant_a._linear_round(conv1, image)
        with pytest.raises(ServingError, match="busy"):
            tenant_a._linear_round(conv1, image)
        tenant_b._linear_round(conv1, image)
        assert admission.rejections == {"queue": 0, "rate": 1}
        assert admission.queue_depth == 0
