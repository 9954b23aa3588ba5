"""Chaos suite: injected faults must not change what is computed.

Every test here kills, stalls, cuts, or corrupts something mid-protocol
(via :mod:`repro.serving.faults`) and then asserts the two recovery
invariants of the serving stack:

* **bit-identical logits** -- retries, replays, respawned workers and
  local degradation all re-execute deterministic plan math, so the
  client decrypts exactly what a fault-free run produces;
* **exact op-counter accounting** -- a task's HE op delta is folded
  exactly once no matter how many attempts ran, so the coordinator's
  counters match the fault-free :class:`GazelleProtocol` reference
  (except where the *protocol itself* legitimately re-executes a round,
  e.g. a reply lost after the server already served it -- those tests
  assert logits only and say so).

Faults are counted, not random (see ``faults.py``), so each test names
one exact failure point and the suite is deterministic.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.bfv.counters import counting
from repro.core.noise_model import Schedule
from repro.protocol import GazelleProtocol
from repro.serving import (
    DEMO_RESCALE_BITS,
    AsyncGateway,
    ClientSession,
    ConnectionFaults,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    ShardExecutor,
    ShardPool,
    SocketTransport,
    WorkerFaults,
    demo_image,
    demo_network,
    demo_weights,
)

SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def params() -> BfvParameters:
    return BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def artifact_dir(params, tmp_path_factory):
    from repro.artifacts import save_artifact, update_manifest

    entry = ModelRegistry().register(
        "demo", demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    directory = tmp_path_factory.mktemp("faults-zoo")
    save_artifact(entry, directory / "demo.rpa")
    update_manifest(directory, entry, "demo.rpa")
    return directory


@pytest.fixture(scope="module")
def registry(artifact_dir):
    from repro.artifacts import load_zoo

    return load_zoo(artifact_dir)


@pytest.fixture(scope="module")
def reference(params):
    """The fault-free ground truth: reference logits + HE op counters."""
    image = demo_image(0)
    protocol = GazelleProtocol(
        demo_network(), demo_weights(), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS, seed=97,
    )
    with counting() as delta:
        result = protocol.run(image)
    d = delta()
    return SimpleNamespace(
        image=image,
        logits=result.logits,
        counters=(
            d.he_mult, d.he_add, d.he_rotate, d.ntt, d.modmuls, d.butterflies
        ),
    )


def _infer_counted(registry, params, image, executor=None, transport=None,
                   **engine_kwargs):
    """One serial inference with op counting; returns (result, counters, engine)."""
    engine = ServingEngine(registry, max_batch=1, executor=executor,
                           **engine_kwargs)
    transport = LoopbackTransport(engine) if transport is None else transport
    # track_noise matches the reference protocol's own noise accounting,
    # so the op-counter comparison is apples-to-apples.
    session = ClientSession(
        demo_network(), params, transport, seed=7, track_noise=True
    )
    session.connect("demo")
    with counting() as delta:
        result = session.infer(image)
    d = delta()
    counters = (
        d.he_mult, d.he_add, d.he_rotate, d.ntt, d.modmuls, d.butterflies
    )
    return result, counters, engine


class TestWorkerFaults:
    """Shard-worker faults: the supervised pool absorbs them."""

    def test_sigkill_mid_task_recovers_bit_identically(
        self, artifact_dir, registry, params, reference
    ):
        """The flagship chaos case: SIGKILL the only worker mid-task.

        The supervisor must requeue the claimed task, respawn the worker
        (replaying the session's Galois keys into it), and complete the
        inference with logits and op counters identical to the fault-free
        run -- and *without* touching the engine's local fallback.
        """
        plan = WorkerFaults(crash_worker=0, crash_on_task=1)
        with ShardPool(
            artifact_dir, workers=1, respawn_backoff_s=0.05, fault_plan=plan
        ) as pool:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.degraded_calls == 0
            assert pool.respawns_total >= 1
            assert pool.retries_total >= 1

    def test_sigkill_one_of_two_workers_requeues_onto_sibling(
        self, artifact_dir, registry, params, reference
    ):
        """SIGKILL one of two workers mid-task; the sibling serves on.

        The corpse's claimed task requeues onto the sibling, whose
        channel the dead incarnation never touched, and the inference
        completes with logits and op counters identical to the
        fault-free run.
        """
        plan = WorkerFaults(crash_worker=0, crash_on_task=1)
        with ShardPool(
            artifact_dir, workers=2, respawn_backoff_s=0.05, fault_plan=plan
        ) as pool:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.degraded_calls == 0
            assert pool.retries_total >= 1

    def test_stalled_task_is_requeued_onto_sibling(
        self, artifact_dir, registry, params, reference
    ):
        """A hung worker costs a retry on the sibling, nothing else.

        The stalled worker eventually wakes and answers the old attempt;
        that duplicate reply must be dropped without folding its op
        counters a second time -- the exactly-once accounting invariant.
        """
        plan = WorkerFaults(stall_worker=0, stall_on_task=1, stall_s=2.0)
        with ShardPool(
            artifact_dir, workers=2, attempt_timeout_s=0.5, fault_plan=plan
        ) as pool:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.degraded_calls == 0
            assert pool.retries_total >= 1
            assert pool.respawns_total == 0  # stalls never cost a respawn

    def test_permanent_crasher_is_abandoned_survivor_serves(
        self, artifact_dir, registry, params, reference
    ):
        """A worker that crashes in every incarnation gets abandoned.

        Until abandonment every task it eats is requeued onto the
        sibling, so all requests succeed and the accounting still
        matches the fault-free run exactly.
        """
        plan = WorkerFaults(
            crash_worker=0, crash_on_task=1, every_incarnation=True
        )
        with ShardPool(
            artifact_dir, workers=2, max_respawns=1, respawn_backoff_s=0.05,
            fault_plan=plan,
        ) as pool:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.degraded_calls == 0
            assert pool.retries_total >= 1
            # Keep serving: every real task the crasher claims kills it
            # again (pings don't trigger faults), until its slot runs
            # out of respawns.  Every inference along the way must still
            # come out exact, served by requeue onto the survivor.
            deadline = time.monotonic() + 30.0
            while (
                pool.available_workers() > 1 and time.monotonic() < deadline
            ):
                result, counters, _engine = _infer_counted(
                    registry, params, reference.image,
                    executor=ShardExecutor(pool),
                )
                assert np.array_equal(result.logits, reference.logits)
                assert counters == reference.counters
            assert pool.available_workers() == 1

    def test_pool_collapse_degrades_to_local_execution(
        self, artifact_dir, registry, params, reference
    ):
        """Every slot abandoned -> the engine serves locally, not an error.

        The worker dies at claim time (before executing anything), so no
        worker-side ops are ever folded and the locally-executed rounds
        reproduce the reference accounting exactly.
        """
        plan = WorkerFaults(
            crash_worker=0, crash_on_task=1, every_incarnation=True
        )
        with ShardPool(
            artifact_dir, workers=1, max_respawns=0, max_attempts=2,
            respawn_backoff_s=0.05, fault_plan=plan,
        ) as pool:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.backend_failures == 3  # one per linear round
            assert engine.degraded_calls == 3
            assert pool.available_workers() == 0

    def test_request_deadline_miss_degrades_to_local(
        self, artifact_dir, registry, params, reference
    ):
        """A stalled pool misses the per-request deadline; local serves.

        The worker's own deadline check refuses the expired task when it
        finally wakes, so nothing is double-executed worker-side and the
        counters still match the reference exactly.
        """
        plan = WorkerFaults(stall_worker=0, stall_on_task=1, stall_s=5.0)
        with ShardPool(artifact_dir, workers=1, fault_plan=plan) as pool:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
                request_deadline_s=0.6,
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.degraded_calls >= 1
            assert engine.degraded_calls == engine.backend_failures


class TestConnectionFaults:
    """Client-transport faults: reconnect + bit-identical replay."""

    def _run_over_socket(self, registry, params, image, faults,
                         retry_kwargs=None):
        engine = ServingEngine(registry, max_batch=1)
        with AsyncGateway(engine, port=0, executor_threads=2) as server:
            transport = SocketTransport(
                server.host, server.port, timeout=30.0,
                backoff_base_s=0.01, retry_jitter_seed=0,
                socket_factory=faults.connect, **(retry_kwargs or {}),
            )
            session = ClientSession(
                demo_network(), params, transport, seed=7, track_noise=True
            )
            session.connect("demo")
            with counting() as delta:
                result = session.infer(image)
            d = delta()
            session.close()
            transport.close()
        counters = (
            d.he_mult, d.he_add, d.he_rotate, d.ntt, d.modmuls, d.butterflies
        )
        return result, counters

    def test_dropped_request_is_replayed_bit_identically(
        self, registry, params, reference
    ):
        """Frame 3 (the first ``linear`` request) dies on send.

        The server never saw the round, so the replay is the *only*
        execution: logits and op counters both match the fault-free run.
        """
        faults = ConnectionFaults(drop_on_send=3, seed=7)
        result, counters = self._run_over_socket(
            registry, params, reference.image, faults
        )
        assert np.array_equal(result.logits, reference.logits)
        assert counters == reference.counters
        assert result.transport_retries >= 1
        assert any(f.startswith("drop_on_send") for f in faults.fired)

    def test_truncated_request_is_replayed_bit_identically(
        self, registry, params, reference
    ):
        """Frame 3 is cut off half-way through send.

        The server reads a partial frame and drops the connection; it
        never executed the round, so counters match exactly too.
        """
        faults = ConnectionFaults(truncate_on_send=3, seed=7)
        result, counters = self._run_over_socket(
            registry, params, reference.image, faults
        )
        assert np.array_equal(result.logits, reference.logits)
        assert counters == reference.counters
        assert result.transport_retries >= 1

    def test_cut_reply_is_retried(self, registry, params, reference):
        """The link dies while reading the reply to the first round.

        The server already *served* the round, so the protocol-level
        replay legitimately executes it twice -- logits are still
        bit-identical (each reply is self-consistent: blinded outputs
        plus the matching mask), but op counters intentionally differ
        from the fault-free run here.
        """
        faults = ConnectionFaults(cut_on_recv=3, seed=7)
        result, _counters = self._run_over_socket(
            registry, params, reference.image, faults
        )
        assert np.array_equal(result.logits, reference.logits)
        assert result.transport_retries >= 1
        assert any(f.startswith("cut_on_recv") for f in faults.fired)

    def test_corrupted_reply_is_detected_and_retried(
        self, registry, params, reference
    ):
        """A flipped byte in a reply frame must be *detected*, not used.

        Frame validation rejects the corrupted reply (ValueError), the
        transport replays the round, and the logits come out
        bit-identical -- never silently wrong.
        """
        faults = ConnectionFaults(corrupt_reply_to=3, seed=7)
        result, _counters = self._run_over_socket(
            registry, params, reference.image, faults
        )
        assert np.array_equal(result.logits, reference.logits)
        assert result.transport_retries >= 1
        assert any(f.startswith("corrupt_reply") for f in faults.fired)

    def test_retries_exhausted_surfaces_connection_error(
        self, registry, params
    ):
        """With retries disabled, a dropped frame is a clean hard error."""
        faults = ConnectionFaults(drop_on_send=1, seed=7)
        engine = ServingEngine(registry, max_batch=1)
        with AsyncGateway(engine, port=0, executor_threads=2) as server:
            transport = SocketTransport(
                server.host, server.port, max_retries=0,
                socket_factory=faults.connect,
            )
            session = ClientSession(demo_network(), params, transport, seed=7)
            with pytest.raises(ConnectionError, match="after 1 attempt"):
                session.connect("demo")
            transport.close()


class TestRemoteWorkerFaults:
    """Chaos on the coordinator->remote-worker link: reconnect + replay."""

    def test_cut_connection_mid_result_recovers_bit_identically(
        self, artifact_dir, registry, params, reference, shard_worker_fleet
    ):
        """The link dies while the first task's result frame is read.

        The worker already executed the task, but its reply never
        landed: the coordinator marks the connection dead, requeues the
        task, reconnects (replaying the session's Galois keys), and the
        retry re-executes.  Only the accepted reply's counter delta is
        folded, so the accounting still matches the fault-free run
        exactly -- the exactly-once invariant under connection loss.
        """
        # Coordinator-side frames read per connection: 1 shard_ready,
        # then claimed + result per task => the 3rd read is task 1's
        # result frame.
        faults = ConnectionFaults(cut_on_recv=3, seed=7)
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            with ShardPool(
                None, workers=0,
                remote_endpoints=[servers[0].endpoint],
                remote_socket_factory=faults.connect,
                respawn_backoff_s=0.05,
            ) as pool:
                result, counters, engine = _infer_counted(
                    registry, params, reference.image,
                    executor=ShardExecutor(pool),
                )
                assert np.array_equal(result.logits, reference.logits)
                assert counters == reference.counters
                assert engine.degraded_calls == 0
                assert pool.retries_total >= 1
                assert any(f.startswith("cut_on_recv") for f in faults.fired)

    def test_corrupted_remote_frame_poisons_connection_and_recovers(
        self, artifact_dir, registry, params, reference, shard_worker_fleet
    ):
        """A flipped byte in a worker reply must reconnect, not decode.

        Stream framing cannot be trusted past a corrupt frame, so the
        collector treats it like a death: requeue + reconnect.  Logits
        and counters still come out exact.
        """
        # Coordinator-side frames sent: hello(1), keys(2), task(3) --
        # corrupting the reply to frame 3 hits task 1's claimed frame.
        faults = ConnectionFaults(corrupt_reply_to=3, seed=7)
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            with ShardPool(
                None, workers=0,
                remote_endpoints=[servers[0].endpoint],
                remote_socket_factory=faults.connect,
                respawn_backoff_s=0.05,
            ) as pool:
                result, counters, engine = _infer_counted(
                    registry, params, reference.image,
                    executor=ShardExecutor(pool),
                )
                assert np.array_equal(result.logits, reference.logits)
                assert counters == reference.counters
                assert engine.degraded_calls == 0
                assert pool.retries_total >= 1
                assert any(
                    f.startswith("corrupt_reply") for f in faults.fired
                )

    def test_remote_fleet_collapse_degrades_to_local_execution(
        self, artifact_dir, registry, params, reference, shard_worker_fleet
    ):
        """Every remote worker gone -> the engine serves locally.

        The fleet stops after startup; with zero respawn budget the only
        slot is abandoned on the first detected loss and the pool fails
        fast, so the engine degrades every linear round to in-process
        execution with exact reference accounting.
        """
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            pool = ShardPool(
                None, workers=0,
                remote_endpoints=[servers[0].endpoint],
                max_respawns=0, max_attempts=2, respawn_backoff_s=0.05,
            ).start()
        # Fleet is stopped here; the pool only finds out via the link.
        try:
            result, counters, engine = _infer_counted(
                registry, params, reference.image,
                executor=ShardExecutor(pool),
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.backend_failures == 3  # one per linear round
            assert engine.degraded_calls == 3
            assert pool.available_workers() == 0
        finally:
            pool.stop()


class TestGracefulShutdown:
    """SIGTERM ordering: the server drains in-flight work, then the pool."""

    def test_server_drains_inflight_sharded_request_before_pool_stop(
        self, artifact_dir, registry, params
    ):
        """Stop server-then-pool while a sharded round is in flight.

        This is exactly the CLI's SIGTERM sequence: ``server.stop()``
        must hold the teardown until the in-flight request got its
        reply *from the pool* (degraded_calls stays 0 -- the pool was
        still alive to serve it), and only then does ``pool.stop()``
        run.  The stall fault keeps the round in flight long enough for
        the stop to genuinely race it.
        """
        plan = WorkerFaults(stall_worker=0, stall_on_task=1, stall_s=1.5)
        pool = ShardPool(artifact_dir, workers=1, fault_plan=plan).start()
        engine = ServingEngine(
            registry, max_batch=1, executor=ShardExecutor(pool)
        )
        server = AsyncGateway(engine, port=0, executor_threads=2).start()
        transport = SocketTransport(server.host, server.port, timeout=60.0)
        session = ClientSession(demo_network(), params, transport, seed=7)
        session.connect("demo")
        # The gateway deregisters a round before it writes the reply, so
        # nothing of connect() is in flight once it returned.
        assert server._inflight == 0
        conv1 = demo_network().layers[0]
        outcome: dict = {}

        def run_round():
            try:
                outcome["result"] = session._linear_round(
                    conv1, demo_image(0)
                )
            except BaseException as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=run_round)
        thread.start()
        # Wait until the round is in flight on the worker (which is
        # stalling on it) -- so it is registered in-flight server-side
        # too -- then stop in the CLI's order.
        with pool._changed:
            pool._changed.wait_for(
                lambda: pool._inflight_locked(pool._slots[0]), timeout=5.0
            )
        assert server._inflight >= 1, "round never went in-flight"
        server.stop()
        pool.stop()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert "error" not in outcome, outcome.get("error")
        masked, mask = outcome["result"]
        assert masked.shape == mask.shape
        assert engine.degraded_calls == 0  # the pool served it, pre-stop
        transport.close()


class TestUpgradeChaos:
    """Faults injected *into* a rolling upgrade: the swap must stay safe.

    A rolling upgrade is the one moment the pool deliberately takes a
    worker down, so it is exactly where an unplanned failure is most
    likely to be mishandled (double-spawns, lost requeues, a quorum
    dip).  Each test here breaks one phase of the upgrade -- the drain,
    the freshly-swapped worker, the key re-broadcast -- and asserts the
    same two invariants as every other chaos case: bit-identical logits
    and exact op-counter accounting.
    """

    def test_sigkill_mid_drain_recovers_bit_identically(
        self, artifact_dir, registry, params, reference
    ):
        """The draining worker is SIGKILLed while its task is in flight.

        A stall fault parks the first round on worker 0; the upgrade
        starts draining that slot and then the worker is killed outright
        mid-drain.  The supervisor's death path requeues the round onto
        the sibling, the drain observes in-flight reach zero, and the
        upgrade completes its swap as planned -- the client never sees
        an error and the accounting is exact (the killed attempt's delta
        was never folded).
        """
        plan = WorkerFaults(stall_worker=0, stall_on_task=1, stall_s=3.0)
        with ShardPool(
            artifact_dir, workers=2, fault_plan=plan, respawn_backoff_s=0.05
        ) as pool:
            engine = ServingEngine(
                registry, max_batch=1, executor=ShardExecutor(pool)
            )
            session = ClientSession(
                demo_network(), params, LoopbackTransport(engine),
                seed=7, track_noise=True,
            )
            session.connect("demo")
            slot0 = pool._slots[0]
            outcome: dict = {}

            def run_inference():
                try:
                    with counting() as delta:
                        outcome["result"] = session.infer(reference.image)
                    d = delta()
                    outcome["counters"] = (
                        d.he_mult, d.he_add, d.he_rotate,
                        d.ntt, d.modmuls, d.butterflies,
                    )
                except BaseException as exc:  # surfaced by the assert below
                    outcome["error"] = exc

            infer_thread = threading.Thread(target=run_inference)
            infer_thread.start()
            # Wait until the stalled round is in flight on worker 0, so
            # the upgrade's drain phase genuinely has something to wait
            # out.
            with pool._changed:
                reached = pool._changed.wait_for(
                    lambda: pool._inflight_locked(slot0), timeout=10.0
                )
            assert reached, "round never reached worker 0"

            upgrade_outcome: dict = {}

            def run_upgrade():
                try:
                    upgrade_outcome.update(pool.rolling_upgrade())
                except BaseException as exc:
                    upgrade_outcome["error"] = exc

            upgrade_thread = threading.Thread(target=run_upgrade)
            upgrade_thread.start()
            # The kill lands mid-drain: slot 0 is flagged draining but
            # its stalled task has not finished.
            with pool._changed:
                pool._changed.wait_for(lambda: slot0.draining, timeout=10.0)
            assert slot0.draining, "upgrade never started draining slot 0"
            process = slot0.process
            assert process is not None
            os.kill(process.pid, signal.SIGKILL)

            infer_thread.join(timeout=120.0)
            upgrade_thread.join(timeout=120.0)
            assert not infer_thread.is_alive()
            assert not upgrade_thread.is_alive()
            assert "error" not in outcome, outcome.get("error")
            assert "error" not in upgrade_outcome, upgrade_outcome.get("error")
            assert upgrade_outcome["upgraded"] == [0, 1]
            assert np.array_equal(
                outcome["result"].logits, reference.logits
            )
            assert outcome["counters"] == reference.counters
            assert engine.degraded_calls == 0
            assert pool.upgrades_total == 1
            assert pool.available_workers() == 2  # quorum never violated

    def test_fresh_worker_crash_on_first_task_recovers(
        self, artifact_dir, registry, params, reference
    ):
        """The freshly-swapped worker dies the moment it claims work.

        No task is dispatched before the upgrade, so the crash fault
        (``every_incarnation``) can only ever fire on the *post-swap*
        incarnation's first claimed task.  The supervisor handles it as
        a normal death -- requeue onto the sibling, backoff respawn --
        and the round still comes out bit-identical with exact
        counters.
        """
        plan = WorkerFaults(
            crash_worker=0, crash_on_task=1, every_incarnation=True
        )
        with ShardPool(
            artifact_dir, workers=2, fault_plan=plan, respawn_backoff_s=0.05
        ) as pool:
            summary = pool.rolling_upgrade()
            assert summary["upgraded"] == [0, 1]
            assert pool.upgrades_total == 1
            result, counters, engine = _infer_counted(
                registry, params, reference.image, executor=ShardExecutor(pool)
            )
            assert np.array_equal(result.logits, reference.logits)
            assert counters == reference.counters
            assert engine.degraded_calls == 0
            # The post-swap worker really did crash and was re-supervised.
            assert pool._slots[0].deaths >= 1
            assert pool.available_workers() == 2

    def test_remote_cut_during_key_rebroadcast_recovers(
        self, artifact_dir, registry, params, reference, shard_worker_fleet
    ):
        """The coordinator link dies while replaying Galois keys.

        A remote slot upgrades by reconnecting; the reconnect replays
        every live key blob before the slot rejoins dispatch.  Cutting
        the link on exactly that replay frame fails the reconnect
        mid-re-broadcast -- the pool treats it as a death, backs off,
        reconnects again (replaying the keys in full), and the upgrade's
        rejoin wait succeeds.  Coordinator-side frames sent: hello(1),
        keys(2), 3 tasks (3-5), then the upgrade reconnect's hello(6)
        and key re-broadcast(7) -- the injected cut.
        """
        faults = ConnectionFaults(drop_on_send=7, seed=7)
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            with ShardPool(
                None, workers=0,
                remote_endpoints=[servers[0].endpoint],
                remote_socket_factory=faults.connect,
                respawn_backoff_s=0.05,
            ) as pool:
                engine = ServingEngine(
                    registry, max_batch=1, executor=ShardExecutor(pool)
                )
                session = ClientSession(
                    demo_network(), params, LoopbackTransport(engine),
                    seed=7, track_noise=True,
                )
                session.connect("demo")
                with counting() as delta:
                    before = session.infer(reference.image)
                d = delta()
                counters_before = (
                    d.he_mult, d.he_add, d.he_rotate,
                    d.ntt, d.modmuls, d.butterflies,
                )
                summary = pool.rolling_upgrade()
                assert summary["upgraded"] == [0]
                assert any(
                    f.startswith("drop_on_send") for f in faults.fired
                ), "the key re-broadcast cut never fired"
                with counting() as delta:
                    after = session.infer(reference.image)
                d = delta()
                counters_after = (
                    d.he_mult, d.he_add, d.he_rotate,
                    d.ntt, d.modmuls, d.butterflies,
                )
                assert np.array_equal(before.logits, reference.logits)
                assert np.array_equal(after.logits, reference.logits)
                assert counters_before == reference.counters
                assert counters_after == reference.counters
                assert engine.degraded_calls == 0
                assert pool.upgrades_total == 1


class TestEnvHooks:
    """REPRO_FAULT_* parsing: the CI seam for unmodified binaries."""

    def test_no_hooks_means_no_plan(self):
        assert WorkerFaults.from_env({}) is None
        assert ConnectionFaults.from_env({}) is None

    def test_worker_hooks_parse(self):
        plan = WorkerFaults.from_env(
            {
                "REPRO_FAULT_WORKER_CRASH": "0:2",
                "REPRO_FAULT_TASK_STALL": "1:3:2.5",
                "REPRO_FAULT_STARTUP_CRASH": "1",
                "REPRO_FAULT_EVERY_INCARNATION": "1",
            }
        )
        assert plan == WorkerFaults(
            crash_worker=0, crash_on_task=2,
            stall_worker=1, stall_on_task=3, stall_s=2.5,
            startup_crash_worker=1, every_incarnation=True,
        )

    def test_connection_hooks_parse(self):
        plan = ConnectionFaults.from_env(
            {"REPRO_FAULT_CONN_DROP": "3", "REPRO_FAULT_SEED": "9"}
        )
        assert plan.drop_on_send == 3
        assert plan.cut_on_recv == 0

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            WorkerFaults.from_env({"REPRO_FAULT_WORKER_CRASH": "0"})

    def test_crash_fires_only_in_first_incarnation_by_default(self):
        plan = WorkerFaults(crash_worker=0, crash_on_task=1)
        assert plan._applies(0)
        assert not plan._applies(1)
        assert WorkerFaults(
            crash_worker=0, every_incarnation=True
        )._applies(3)
