"""Tests for the multi-process sharded execution backend (repro.serving.shards).

The conformance suite (``test_conformance.py``) pins sharded logits and
op counters against every other execution path; this file covers the
pool mechanics themselves: readiness, key broadcast/drop, row
splitting, error propagation, drains, and shutdown.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    Message,
    ModelRegistry,
    ServingEngine,
    ShardError,
    ShardExecutor,
    ShardPool,
    demo_image,
    demo_network,
    demo_weights,
    encode_message,
)

SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def shard_params() -> BfvParameters:
    return BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def artifact_dir(shard_params, tmp_path_factory):
    """A one-model artifact zoo both the registry and the pools load."""
    from repro.artifacts import save_artifact, update_manifest

    entry = ModelRegistry().register(
        "demo", demo_network(), demo_weights(), shard_params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )
    directory = tmp_path_factory.mktemp("shard-zoo")
    save_artifact(entry, directory / "demo.rpa")
    update_manifest(directory, entry, "demo.rpa")
    return directory


@pytest.fixture(scope="module")
def registry(artifact_dir):
    from repro.artifacts import load_zoo

    return load_zoo(artifact_dir)


@pytest.fixture(scope="module")
def pool(artifact_dir):
    with ShardPool(artifact_dir, workers=2) as pool:
        yield pool


@pytest.fixture(scope="module")
def plaintext_logits():
    runner = PlaintextRunner(
        demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
    )
    return lambda image: runner.run(image)


class TestPoolLifecycle:
    def test_workers_report_ready_with_models(self, pool):
        assert pool.alive_workers() == 2
        assert pool.model_names == ["demo"]
        reply = pool.ping(1)[0]
        assert reply.meta["status"] == "ok"
        assert reply.meta["models"] == ["demo"]
        # Workers are real separate processes, not threads.
        import os

        assert reply.meta["pid"] != os.getpid()

    def test_missing_artifact_dir_fails_startup(self, tmp_path):
        with pytest.raises(ShardError, match="failed"):
            ShardPool(tmp_path / "nowhere", workers=1, start_timeout_s=30).start()

    def test_stop_terminates_workers(self, artifact_dir):
        pool = ShardPool(artifact_dir, workers=1).start()
        assert pool.alive_workers() == 1
        pool.stop()
        assert pool.alive_workers() == 0
        with pytest.raises(ShardError, match="not running"):
            pool.execute([Message("ping", {})])

    def test_dead_worker_is_respawned_and_pool_keeps_serving(self, artifact_dir):
        """Supervision: a SIGKILLed worker is respawned, requests survive.

        The monitor thread must notice the corpse, fork a replacement
        incarnation from the same artifact dir, and keep the pool
        serving -- the request issued right after the kill lands on the
        survivor or the respawn, never on an error.
        """
        import os
        import signal

        pool = ShardPool(
            artifact_dir, workers=2, respawn_backoff_s=0.05,
        ).start()
        try:
            victim = pool._slots[0].process
            os.kill(victim.pid, signal.SIGKILL)
            # The pool answers even while one worker is down ...
            assert pool.ping(1)[0].meta["status"] == "ok"
            # ... and the supervisor restores full strength: the respawned
            # slot's readiness notifies the pool condition.
            with pool._changed:
                assert pool._changed.wait_for(
                    lambda: pool.respawns_total >= 1
                    and all(slot.ready for slot in pool._slots),
                    timeout=15.0,
                )
            assert pool.alive_workers() == 2
            assert pool.available_workers() == 2
            replies = pool.ping(4)
            assert all(r.meta["status"] == "ok" for r in replies)
            incarnations = {
                (r.meta["worker"], r.meta["incarnation"]) for r in replies
            }
            assert any(inc > 0 for _w, inc in incarnations)
        finally:
            pool.stop()

    def test_worker_death_during_startup_raises_fast_without_leaks(
        self, artifact_dir
    ):
        """Satellite: a pre-readiness death aborts start() immediately.

        Without early dead-sentinel detection, start() would sit out the
        full start_timeout_s and could leave the live sibling running
        after the raise.
        """
        import time

        from repro.serving import WorkerFaults

        pool = ShardPool(
            artifact_dir, workers=2, start_timeout_s=60.0,
            fault_plan=WorkerFaults(startup_crash_worker=0),
        )
        start = time.monotonic()
        with pytest.raises(ShardError, match="died during startup"):
            pool.start()
        assert time.monotonic() - start < 30  # never waits out the timeout
        assert pool.alive_workers() == 0  # the sibling was cleaned up too

    def test_worker_error_propagates_without_killing_worker(self, pool):
        with pytest.raises(ShardError, match="no model"):
            pool.execute(
                [
                    Message(
                        "task",
                        {
                            "model": "nope", "layer": "conv1",
                            "key_ids": [], "cts_per_request": [],
                        },
                    )
                ]
            )
        # The worker survived the bad task and still answers.
        assert pool.ping(1)[0].meta["status"] == "ok"


class TestDrainAndResume:
    """The admin drain verbs, alone and across a rolling upgrade."""

    def test_drained_worker_gets_no_dispatch_until_resumed(self, pool):
        try:
            outcome = pool.drain_worker(0)
            assert outcome == {"worker": 0, "draining": True, "inflight": 0}
            assert pool.draining_workers() == [0]
            # Least-loaded dispatch would spread two pings over both
            # workers; the drained one is skipped.
            assert [r.meta["worker"] for r in pool.ping(2)] == [1, 1]
        finally:
            assert pool.resume_worker(0) == {"worker": 0, "draining": False}
        assert pool.draining_workers() == []
        assert sorted(r.meta["worker"] for r in pool.ping(2)) == [0, 1]

    def test_admin_drain_survives_a_rolling_upgrade(self, artifact_dir):
        """A drained slot is swapped onto the new zoo and stays drained.

        Planned swaps are not deaths: neither ``deaths`` nor
        ``respawns_total`` moves.
        """
        with ShardPool(artifact_dir, workers=2) as pool:
            pool.drain_worker(1)
            before = [slot.incarnation for slot in pool._slots]
            summary = pool.rolling_upgrade()
            assert summary["upgraded"] == [0, 1]
            assert pool.draining_workers() == [1]
            assert [slot.incarnation for slot in pool._slots] == [
                incarnation + 1 for incarnation in before
            ]
            assert pool.upgrading_slots == 0
            assert pool.respawns_total == 0
            assert [slot.deaths for slot in pool._slots] == [0, 0]
            assert [
                (r.meta["worker"], r.meta["incarnation"]) for r in pool.ping(2)
            ] == [(0, 1), (0, 1)]
            pool.resume_worker(1)
            assert sorted(
                (r.meta["worker"], r.meta["incarnation"]) for r in pool.ping(2)
            ) == [(0, 1), (1, 1)]


class TestShardedServing:
    def test_sharded_logits_match_plaintext(
        self, registry, shard_params, pool, plaintext_logits
    ):
        engine = ServingEngine(
            registry, max_batch=1, executor=ShardExecutor(pool)
        )
        session = ClientSession(
            demo_network(), shard_params, LoopbackTransport(engine), seed=3
        )
        session.connect("demo")
        for seed in (0, 1):
            image = demo_image(seed)
            assert np.array_equal(
                session.infer(image).logits, plaintext_logits(image)
            )
        session.close()

    def test_concurrent_batched_sharded_sessions(
        self, registry, shard_params, pool, plaintext_logits
    ):
        """Cross-client batching + row-splitting across 2 workers."""
        clients = 4
        engine = ServingEngine(
            registry, max_batch=clients, executor=ShardExecutor(pool),
        )
        transport = LoopbackTransport(engine)
        sessions = []
        for i in range(clients):
            session = ClientSession(
                demo_network(), shard_params, transport, seed=20 + i
            )
            session.connect("demo")
            sessions.append(session)
        images = [demo_image(100 + i) for i in range(clients)]
        results = [None] * clients
        errors = []

        def run(i):
            try:
                results[i] = sessions[i].infer(images[i])
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        for i in range(clients):
            assert np.array_equal(
                results[i].logits, plaintext_logits(images[i])
            ), i

    def test_session_close_drops_worker_key_cache(self, registry, shard_params, artifact_dir):
        with ShardPool(artifact_dir, workers=1) as pool:
            engine = ServingEngine(
                registry, max_batch=1, executor=ShardExecutor(pool)
            )
            session = ClientSession(
                demo_network(), shard_params, LoopbackTransport(engine), seed=9
            )
            session.connect("demo")
            session.infer(demo_image(0))
            # Key ids on the wire are scoped per executor+upload; the
            # session id is embedded in the middle.
            marker = f":{session.session_id}:"
            cached = pool.ping(1)[0].meta["cached_keys"]
            assert any(marker in key_id for key_id in cached), cached
            session.close()
            # Key frames ride the worker's task FIFO, so the drop_keys
            # frame is queued ahead of this ping and applied before it.
            cached = pool.ping(1)[0].meta["cached_keys"]
            assert not any(marker in key_id for key_id in cached), cached

    def test_worker_key_cache_holds_the_uint32_stacks(self, registry, shard_params, pool):
        """A worker's resident keys for a session: ``2 k l_ct n * 4`` bytes
        per Galois element, the same count as the engine's own copy."""
        engine = ServingEngine(registry, max_batch=1, executor=ShardExecutor(pool))
        session = ClientSession(
            demo_network(), shard_params, LoopbackTransport(engine), seed=12
        )
        session.connect("demo")
        state = engine._sessions[session.session_id]
        keys, key_id = state.fallback_keys, state.galois_keys.key_id
        per_element = (
            2 * shard_params.coeff_basis.count * shard_params.l_ct * shard_params.n * 4
        )
        assert keys.nbytes == len(keys.keys) * per_element
        for reply in pool.ping(2):
            assert reply.meta["cached_keys"][key_id] == keys.nbytes
        session.close()

    def test_mismatched_registry_rejected(self, shard_params, pool):
        """A model the workers did not load must be rejected at key upload."""
        registry = ModelRegistry()
        registry.register(
            "other", demo_network(), demo_weights(seed=5), shard_params,
            schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
        )
        engine = ServingEngine(
            registry, max_batch=1, executor=ShardExecutor(pool)
        )
        session = ClientSession(
            demo_network(), shard_params, LoopbackTransport(engine), seed=11
        )
        from repro.serving import ServingError

        with pytest.raises(ServingError, match="artifact"):
            session.connect("other")


class TestProtocolParity:
    """Forked and remote workers run one loop: same frames in, same out.

    One scripted frame sequence -- key upload, ping, a real layer task,
    an unknown kind, key drop, then a task naming the dropped key -- is
    driven straight through a forked worker's channel and through a
    :class:`ShardWorkerServer` connection; the reply streams must agree
    in everything but process identity.
    """

    #: Reply meta that names the process rather than the protocol (error
    #: reasons carry a ``worker N: `` prefix, stripped the same way).
    IDENTITY = {"worker", "incarnation", "pid"}

    @pytest.fixture(scope="class")
    def script(self, registry, shard_params):
        """The request frames, built once against the shared zoo."""
        from repro.bfv import BfvScheme
        from repro.bfv.serialize import serialize_ciphertext, serialize_galois_keys
        from repro.protocol.gazelle import pad_and_grid_conv_input
        from repro.scheduling.layouts import pack_image

        entry = registry.get("demo")
        layer = demo_network().layers[0]
        client = BfvScheme(shard_params, seed=3)
        secret, public = client.keygen()
        keys = client.generate_galois_keys(secret, entry.rotation_steps)
        grids, _w = pad_and_grid_conv_input(
            layer, demo_image(1), entry.plans[layer.name].grid_w
        )
        blobs = [
            serialize_ciphertext(
                client.encrypt(client.encoder.encode_row(pack_image(grid)), public),
                shard_params,
            )
            for grid in grids
        ]

        def task(task_id):
            return Message(
                "task",
                {
                    "task": task_id, "attempt": 1, "model": "demo",
                    "layer": layer.name, "key_ids": ["k"],
                    "cts_per_request": [len(blobs)],
                },
                list(blobs),
            )

        return [
            Message(
                "keys", {"key_id": "k", "model": "demo"},
                [serialize_galois_keys(keys, shard_params)],
            ),
            Message("ping", {"task": "p0", "attempt": 0}),
            task("t0"),
            Message("bogus", {"task": "u0", "attempt": 2}),
            Message("drop_keys", {"key_id": "k"}),
            task("t1"),
        ]

    def _transcript(self, channel, script):
        """Replies to ``script`` over ``channel``, process identity removed."""
        from repro.bfv.counters import GLOBAL_COUNTERS

        before = GLOBAL_COUNTERS.he_ops()
        try:
            for message in script:
                if message.kind in ("keys", "drop_keys"):
                    # As the pool does it: encoded once, sent in-band.
                    channel.send_encoded(encode_message(message))
                else:
                    channel.send(message)
            # shard_ready, then claimed + result per non-key frame.
            frames = []
            for _ in range(1 + 2 * 4):
                received = channel.recv()
                assert received is not None, "channel closed mid-script"
                frames.append(received[0])
        finally:
            channel.stop()
            channel.retire(5.0)
        # A worker's ops reach the coordinator's counters only through
        # result frames -- also when it runs inside this process.
        assert GLOBAL_COUNTERS.he_ops() == before
        transcript = []
        for frame in frames:
            meta = {k: v for k, v in frame.meta.items() if k not in self.IDENTITY}
            if "reason" in meta:
                meta["reason"] = meta["reason"].split(": ", 1)[1]
            transcript.append((frame.kind, meta, frame.blobs))
        return transcript

    def test_fork_and_remote_workers_answer_identically(
        self, artifact_dir, script, shard_worker_fleet
    ):
        import multiprocessing
        import socket

        from repro.serving.shards import _Channel

        worker_args = (0, 0, str(artifact_dir), True, None)
        ctx = multiprocessing.get_context("fork")
        reference = self._transcript(_Channel.fork(ctx, worker_args), script)
        with shard_worker_fleet(artifact_dir, count=1) as servers:
            remote = self._transcript(
                _Channel.connect(
                    servers[0].endpoint, socket.create_connection, 10.0
                ),
                script,
            )
        kinds = [kind for kind, _meta, _blobs in reference]
        assert kinds == ["shard_ready"] + ["claimed", "result"] * 4
        results = [meta for kind, meta, _blobs in reference if kind == "result"]
        assert [m["status"] for m in results] == ["ok", "ok", "error", "error"]
        assert [m["attempt"] for m in results] == [0, 1, 2, 1]
        assert results[1]["outputs_per_request"] == [
            demo_network().layers[0].co
        ]
        assert results[1]["counters"]["he_mult"] > 0
        assert "unknown shard request" in results[2]["reason"]
        assert "not on this worker" in results[3]["reason"]
        assert remote == reference


class TestIpcAccounting:
    def test_byte_tallies_lose_no_increment_under_contention(
        self, artifact_dir, monkeypatch
    ):
        """``ipc_stats`` equals an independent per-channel byte count.

        Dispatch threads and one collector per worker all add to the same
        tallies; with more threads than cores and a tiny switch interval
        an unlocked ``+=`` drops increments.  The spies below count per
        channel and per direction, so each of their counters has a single
        writer at a time and is exact.
        """
        import sys

        from repro.serving.shards import _Channel

        channels = []
        real_init, real_send, real_recv = (
            _Channel.__init__, _Channel.send, _Channel.recv,
        )

        def spy_init(self, *args):
            self.sent = self.received = 0
            channels.append(self)
            real_init(self, *args)

        def spy_send(self, message):
            frame_bytes = real_send(self, message)
            self.sent += frame_bytes
            return frame_bytes

        def spy_recv(self):
            received = real_recv(self)
            if received is not None and received[0].kind != "shard_ready":
                self.received += received[1]
            return received

        monkeypatch.setattr(_Channel, "__init__", spy_init)
        monkeypatch.setattr(_Channel, "send", spy_send)
        monkeypatch.setattr(_Channel, "recv", spy_recv)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ShardPool(artifact_dir, workers=2) as pool:
                threads = [
                    threading.Thread(
                        target=lambda: [pool.ping(2) for _ in range(50)]
                    )
                    for _ in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                stats = pool.ipc_stats()
        finally:
            sys.setswitchinterval(interval)
        assert stats["tasks"] == 4 * 50 * 2
        assert stats["pickled_bytes"] == sum(
            channel.sent + channel.received for channel in channels
        )


class TestChannelsArgument:
    def test_shm_runs_the_fork_channel_and_unknown_kinds_fail(
        self, artifact_dir
    ):
        """``channels="shm"`` (the benchmark's call) is the queue channel.

        Its frames are pickled whole, so ``pickled_bytes`` grows and no
        slab tally exists; any kind besides ``"queue"`` and ``"shm"`` is
        still rejected up front.
        """
        with ShardPool(artifact_dir, workers=1, channels="shm") as pool:
            assert pool.ping()[0].meta["status"] == "ok"
            stats = pool.ipc_stats()
        assert stats["pickled_bytes"] > 0
        assert "slab_bytes" not in stats
        with pytest.raises(ValueError, match="bogus"):
            ShardPool(artifact_dir, workers=1, channels="bogus")


@pytest.fixture(scope="module")
def conv_task(registry, shard_params):
    """A real first-layer task under key id ``"k"``: ``(key blob, make)``,
    where ``make()`` builds a fresh copy of the task message."""
    from repro.bfv import BfvScheme
    from repro.bfv.serialize import serialize_ciphertext, serialize_galois_keys
    from repro.protocol.gazelle import pad_and_grid_conv_input
    from repro.scheduling.layouts import pack_image

    entry = registry.get("demo")
    layer = demo_network().layers[0]
    client = BfvScheme(shard_params, seed=5)
    secret, public = client.keygen()
    keys = client.generate_galois_keys(secret, entry.rotation_steps)
    grids, _w = pad_and_grid_conv_input(
        layer, demo_image(2), entry.plans[layer.name].grid_w
    )
    blobs = [
        serialize_ciphertext(
            client.encrypt(client.encoder.encode_row(pack_image(grid)), public),
            shard_params,
        )
        for grid in grids
    ]
    meta = {
        "task": "t", "model": "demo", "layer": layer.name, "key_ids": ["k"],
        "cts_per_request": [len(blobs)],
    }
    return (
        serialize_galois_keys(keys, shard_params),
        lambda: Message("task", dict(meta), list(blobs)),
    )


class TestBackpressure:
    def test_a_stalled_worker_blocks_neither_dispatch_nor_key_broadcast(
        self, artifact_dir, registry, conv_task
    ):
        """Sends never wait on the worker.

        The only worker stalls inside its first task while more than a
        socket buffer of tasks is queued behind it from several threads;
        a key broadcast and ``ipc_stats`` (which takes the pool lock that
        dispatch holds while sending) still return at once, and every
        task completes bit-identically once the stall ends.
        """
        from repro.bfv.serialize import deserialize_galois_keys
        from repro.serving import WorkerFaults
        from repro.serving.shards import _run_task

        key_blob, make_task = conv_task
        params = registry.get("demo").params
        reference = _run_task(
            registry, {"k": deserialize_galois_keys(key_blob, params)},
            make_task(),
        )
        per_thread = -(-(1 << 20) // (4 * len(encode_message(make_task()))))
        replies, errors = [], []

        def run(count):
            try:
                replies.extend(pool.execute([make_task() for _ in range(count)]))
            except BaseException as exc:
                errors.append(exc)

        def returns_within(seconds, fn):
            # On a helper thread, so a send that blocks fails the test
            # rather than hanging it.
            done = threading.Event()
            threading.Thread(
                target=lambda: (fn(), done.set()), daemon=True
            ).start()
            return done.wait(seconds)

        def wait_until(predicate):
            with pool._changed:
                pool._changed.wait_for(predicate)

        with ShardPool(
            artifact_dir, workers=1, attempt_timeout_s=30.0,
            fault_plan=WorkerFaults(stall_worker=0, stall_on_task=1, stall_s=3.0),
        ) as pool:
            pool.broadcast_keys("k", "demo", key_blob)
            threads = [threading.Thread(target=run, args=(1,))]
            threads[0].start()
            # The worker has claimed its first task: it stalls from now on.
            assert returns_within(30.0, lambda: wait_until(
                lambda: any(p.claimed_at for p in pool._pending.values())
            ))
            threads += [
                threading.Thread(target=run, args=(per_thread,)) for _ in range(4)
            ]
            for thread in threads[1:]:
                thread.start()
            assert returns_within(2.0, lambda: wait_until(
                lambda: len(pool._pending) == 1 + 4 * per_thread
            )), "dispatch blocked behind the stalled worker"
            assert returns_within(
                0.5, lambda: pool.broadcast_keys("k2", "demo", key_blob)
            )
            assert returns_within(0.5, pool.ipc_stats)
            for thread in threads:
                thread.join(timeout=120.0)
        assert not errors
        assert len(replies) == 1 + 4 * per_thread
        for reply in replies:
            assert reply.meta["outputs_per_request"] == (
                reference.meta["outputs_per_request"]
            )
            assert reply.blobs == reference.blobs


class TestCoordinatorDeath:
    def test_forked_workers_exit_when_the_coordinator_is_sigkilled(
        self, artifact_dir
    ):
        """No orphans: a SIGKILLed coordinator's workers read EOF and exit.

        Each worker's exit is waited on as an event (a pidfd turns
        readable when the process terminates; a zombie counts), not
        slept on.
        """
        import contextlib
        import os
        import select
        import signal
        import subprocess
        import sys
        import time
        from pathlib import Path

        if not hasattr(os, "pidfd_open"):
            pytest.skip("needs os.pidfd_open (Linux)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        script = (
            "import sys, time\n"
            "from repro.serving import ShardPool\n"
            "pool = ShardPool(sys.argv[1], workers=2).start()\n"
            "print(*(slot.process.pid for slot in pool._slots), flush=True)\n"
            "time.sleep(600)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        pidfds = []
        with subprocess.Popen(
            [sys.executable, "-c", script, str(artifact_dir)],
            stdout=subprocess.PIPE, env=env,
        ) as coordinator:
            try:
                pids = [int(pid) for pid in coordinator.stdout.readline().split()]
                assert len(pids) == 2, pids
                pidfds = [os.pidfd_open(pid) for pid in pids]
                coordinator.kill()
                deadline = time.monotonic() + 10.0
                for fd in pidfds:
                    ready, _, _ = select.select(
                        [fd], [], [], max(0.0, deadline - time.monotonic())
                    )
                    assert ready, "a shard worker outlived its coordinator"
            finally:
                coordinator.kill()
                for fd in pidfds:  # reap what a failing run left behind
                    with contextlib.suppress(OSError):
                        signal.pidfd_send_signal(fd, signal.SIGKILL)
                    os.close(fd)
