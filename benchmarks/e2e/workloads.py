"""The four private-inference workloads and the closed-loop driver.

Every workload serves the demo ``ServeCNN`` at n=2048 and differs in
which layers of the stack do work (see ``WORKLOADS`` and the README).
A workload is built from public ``repro`` API only; :class:`Stack` owns
everything it starts and ``close()`` stops it.
"""

from __future__ import annotations

import multiprocessing
from multiprocessing import resource_tracker
import os
import resource
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.artifacts import load_zoo, save_artifact, update_manifest
from repro.bfv import BfvParameters
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv.ntt_batch import get_engine
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
    demo_image,
    demo_network,
    demo_weights,
)

#: Scratch space for artifacts and worker span files; inside the checkout.
OUT_DIR = Path(__file__).resolve().parent / "out"

MODEL = "demo"
ENGINE_SEED = 20260925
WARMUP_INFERENCES = 5
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_KB_PER_MB = 1024


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    schedule: Schedule
    clients: int
    max_batch: int
    tcp: bool = False
    sharded: bool = False
    #: NTT / HE_Rotate / HE_Mult per inference, where the counters are
    #: exact (one thread); ``None`` where threads make them approximate.
    pinned_ops: tuple[int, int, int] | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serial_ia",
            "one client, loopback, Sched-IA: only client crypto, codec and "
            "HE kernels on the path; key-switch-bound",
            Schedule.INPUT_ALIGNED, clients=1, max_batch=1,
            pinned_ops=(224, 41, 70),
        ),
        Workload(
            "serial_pa",
            "same stack, Sched-PA: the same plan/scheme/NTT layers used "
            "NTT-bound (2176 NTTs per inference against 224)",
            Schedule.PARTIAL_ALIGNED, clients=1, max_batch=1,
            pinned_ops=(2176, 65, 70),
        ),
        Workload(
            "tcp_batched",
            "two clients over a real socket through AsyncGateway, "
            "max_batch=2: front end, framing and batcher wait on the path",
            Schedule.INPUT_ALIGNED, clients=2, max_batch=2, tcp=True,
        ),
        Workload(
            "shard_shm",
            "two clients, loopback, one shm shard worker from a saved "
            "artifact: fabric cost, each process on its own core",
            Schedule.INPUT_ALIGNED, clients=2, max_batch=2, sharded=True,
        ),
    )
}


class HostReference:
    """A fixed numpy kernel timed between rounds: how fast the host runs now.

    This VM moves for minutes at a time between a faster and a slower
    state, about 8 % apart, whatever the benchmark runs; a run lands in
    one or the other, so ten runs of one commit spread by those 8 %.
    This kernel (int64 multiply and reduce over 0.5 MB operands, nothing
    of ``repro`` in it) slows by the same share in the same seconds, to
    within 1.5 %.  A window's timings, and a set-up's from its warm-up
    rounds, are scaled by ``NOMINAL_S`` over the kernel's typical time in
    that window: they read as milliseconds on a host where the kernel
    takes ``NOMINAL_S``.
    """

    NOMINAL_S = 2.0e-3
    _MODULUS = (1 << 50) - 27
    _ROUNDS = 6

    def __init__(self):
        rng = np.random.default_rng(2048)
        self._a = rng.integers(0, 1 << 25, size=(32, 2048), dtype=np.int64)
        self._b = rng.integers(0, 1 << 25, size=(32, 2048), dtype=np.int64)

    def time_s(self) -> float:
        start = time.perf_counter()
        for _ in range(self._ROUNDS):
            c = (self._a * self._b) % self._MODULUS
            c += self._a
        return time.perf_counter() - start

    @classmethod
    def factor(cls, times_s: list[float]) -> float:
        """Scale from time measured next to ``times_s`` to nominal host speed.

        The kernel's typical time is the mean without the top and bottom
        tenth: an inference lasts long enough to average over bursts of
        interference that a median of 2 ms samples steps over, and a mean
        would let one preempted sample move a whole segment.
        """
        if not times_s:
            return 1.0
        ordered = sorted(times_s)
        cut = len(ordered) // 10
        return cls.NOMINAL_S / statistics.fmean(ordered[cut:len(ordered) - cut])


HOST_REFERENCE = HostReference()


def bench_params() -> BfvParameters:
    return BfvParameters.create(
        n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


def ntt_path() -> str:
    params = bench_params()
    engine = get_engine(params.n, params.coeff_basis.primes)
    return "native" if engine.uses_native_kernel else "numpy"


@dataclass
class Inference:
    client: int
    image_index: int
    latency_s: float
    logits: np.ndarray | None
    busy_retries: int = 0
    error: str | None = None


@dataclass
class Window:
    """One closed-loop phase: what was sent, and what it cost."""

    start: float
    end: float
    inferences: list[Inference]
    #: Increase of every :meth:`Stack.counters` entry over the phase.
    counts: dict[str, float] = field(default_factory=dict)
    #: One line per inference that failed; filled in by the :class:`Oracle`.
    failures: list[str] = field(default_factory=list)
    #: :class:`HostReference` times, one per round, taken between rounds.
    reference_s: list[float] = field(default_factory=list)

    @property
    def host_factor(self) -> float:
        """Scale from a time measured in this window to nominal host speed."""
        return HostReference.factor(self.reference_s)

    @property
    def wall_s(self) -> float:
        """Wall seconds at nominal host speed, the reference kernel's own left out."""
        return (self.end - self.start - sum(self.reference_s)) * self.host_factor

    @property
    def cpu_s(self) -> float:
        """CPU seconds at nominal host speed, the reference kernel's own left out."""
        return (self.counts["cpu_s"] - sum(self.reference_s)) * self.host_factor

    def latencies_ms(self) -> list[float]:
        """``ClientSession.infer`` wall times at nominal host speed."""
        scale = self.host_factor * 1e3
        return [i.latency_s * scale for i in self.inferences if i.error is None]


class Stack:
    """One workload, built and warmed up: engine, front end, sessions."""

    def __init__(self, workload: Workload, seed: int, sharded: bool | None = None,
                 warmup: int = WARMUP_INFERENCES):
        self.workload = workload
        self.seed = seed
        sharded = workload.sharded if sharded is None else sharded
        #: Seconds spent in each part of set-up.
        self.parts: dict[str, float] = {}
        self.pool = self.gateway = self.engine = self._zoo_dir = None
        self.transports, self.sessions = [], []
        self._next_image = [0] * workload.clients
        self._shm_before = set(os.listdir("/dev/shm")) if sharded else None
        started = time.perf_counter()
        try:
            self._build(sharded)
            warm = self.drive(count=warmup)
        except BaseException:
            self.close()
            raise
        #: At nominal host speed, like a window's timings: the warm-up
        #: rounds time the reference kernel.
        self.setup_s = (
            time.perf_counter() - started - sum(warm.reference_s)
        ) * warm.host_factor

    def _timed(self, part: str, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        self.parts[part] = self.parts.get(part, 0.0) + time.perf_counter() - start
        return result

    def _build(self, sharded: bool) -> None:
        workload, params = self.workload, bench_params()
        registry = ModelRegistry()
        entry = self._timed(
            "registry.compile_s", registry.register, MODEL, demo_network(),
            demo_weights(), params, schedule=workload.schedule,
            rescale_bits=DEMO_RESCALE_BITS,
        )
        executor = None
        if sharded:
            OUT_DIR.mkdir(parents=True, exist_ok=True)
            self._zoo_dir = Path(tempfile.mkdtemp(prefix="zoo-", dir=OUT_DIR))

            def save():
                save_artifact(entry, self._zoo_dir / f"{MODEL}.rpa")
                update_manifest(self._zoo_dir, entry, f"{MODEL}.rpa")

            self._timed("artifacts.save_s", save)
            registry = self._timed("artifacts.load_s", load_zoo, self._zoo_dir)
            self.pool = ShardPool(self._zoo_dir, workers=1, channels="shm")
            self._timed("shards.pool_start_s", self.pool.start)
            executor = ShardExecutor(self.pool)
        self.metrics = MetricsRegistry()
        self.engine = ServingEngine(
            registry, max_batch=workload.max_batch, seed=ENGINE_SEED,
            executor=executor, metrics=self.metrics,
        )
        if workload.tcp:
            self.gateway = AsyncGateway(self.engine, port=0)
            self._timed("gateway.start_s", self.gateway.start)
        for client in range(workload.clients):
            if workload.tcp:
                transport = SocketTransport(self.gateway.host, self.gateway.port)
            else:
                transport = LoopbackTransport(self.engine)
            self.transports.append(transport)
            session = ClientSession(
                demo_network(), params, transport,
                seed=self.seed * 1000 + client,
            )
            self.sessions.append(session)
            self._timed("session.connect_s", session.connect, MODEL)

    # -- the closed loop ---------------------------------------------------

    def image(self, client: int, index: int) -> np.ndarray:
        """Client ``client``'s ``index``-th input; a function of the seed."""
        return demo_image(self.seed + client + index * self.workload.clients)

    def worker_pids(self) -> list[int]:
        return [p.pid for p in multiprocessing.active_children()]

    def drive(self, seconds: float | None = None, count: int | None = None) -> Window:
        """Closed loop: a client sends again only after its reply arrived.

        The clients start every inference together (a barrier per round).
        Left free-running, two closed-loop clients fall for seconds at a
        time into either a regime where the batcher merges their layers
        or one where it never does (p50 143 ms against 183 ms on
        ``tcp_batched``), and which one a run sees is chance.

        Runs until ``seconds`` have passed, or ``count`` rounds.
        """
        clients = self.workload.clients
        records: list[list[Inference]] = [[] for _ in range(clients)]
        reference_s: list[float] = []
        start_line = threading.Barrier(clients + 1)
        deadline = float("inf")
        rounds = 0
        go = True

        def next_round() -> None:
            # Every client has its reply and waits here: the stack is idle.
            nonlocal rounds, go
            reference_s.append(HOST_REFERENCE.time_s())
            go = (count is None or rounds < count) and time.perf_counter() < deadline
            rounds += 1

        round_start = threading.Barrier(clients, action=next_round)

        def client_loop(client: int) -> None:
            session = self.sessions[client]
            start_line.wait()
            while True:
                round_start.wait()
                if not go:
                    return
                index = self._next_image[client]
                self._next_image[client] += 1
                image = self.image(client, index)
                start = time.perf_counter()
                try:
                    result = session.infer(image)
                except Exception as exc:  # a failed inference is a data point
                    records[client].append(Inference(
                        client, index, time.perf_counter() - start, None,
                        error=f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                records[client].append(Inference(
                    client, index, time.perf_counter() - start, result.logits,
                    busy_retries=result.busy_retries,
                ))

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"bench-client-{c}")
            for c in range(clients)
        ]
        for thread in threads:
            thread.start()
        before = self.counters()
        start = time.perf_counter()
        if seconds is not None:
            deadline = start + seconds
        start_line.wait()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        after = self.counters()
        return Window(
            start, end, [r for client in records for r in client],
            counts={key: after[key] - before[key] for key in after},
            reference_s=reference_s,
        )

    def counters(self) -> dict[str, float]:
        """Every running total a window reports the increase of."""
        fill = self.metrics.snapshot()["batch_fill"]
        ipc = self.pool.ipc_stats() if self.pool is not None else {}
        ops = GLOBAL_COUNTERS
        return {
            "cpu_s": time.process_time()
            + sum(_proc_cpu_s(pid) for pid in self.worker_pids()),
            "wire_bytes": sum(
                self.engine.session_traffic(s.session_id).total_bytes
                for s in self.sessions
            ),
            "batches": fill["batches"],
            "batched_requests": fill["requests"],
            "degraded_calls": self.engine.degraded_calls,
            "backend_failures": self.engine.backend_failures,
            "pickled_bytes": ipc.get("pickled_bytes", 0),
            "slab_bytes": ipc.get("slab_bytes", 0),
            "tasks": ipc.get("tasks", 0),
            "respawns": 0 if self.pool is None else self.pool.respawns_total,
            "ops.ntt": ops.ntt,
            "ops.he_rotate": ops.he_rotate,
            "ops.he_mult": ops.he_mult,
            "ops.he_add": ops.he_add,
            "ops.int_mults": ops.int_mults,
        }

    def peak_rss_mb(self) -> float:
        """Peak resident set of this process plus its live shard workers."""
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak_kb += sum(_proc_peak_rss_kb(pid) for pid in self.worker_pids())
        return peak_kb / _KB_PER_MB

    # -- teardown ----------------------------------------------------------

    def close(self) -> list[str]:
        """Stop everything this stack started; returns what it leaked."""
        for session in self.sessions:
            try:
                session.close()
            except Exception:  # the server side may already be gone
                pass
        for transport in self.transports:
            if hasattr(transport, "close"):
                transport.close()
        if self.gateway is not None:
            self.gateway.stop()
        if self.pool is not None:
            self.pool.stop()
            _stop_resource_tracker()
        if self._zoo_dir is not None:
            shutil.rmtree(self._zoo_dir, ignore_errors=True)
        self.sessions, self.transports = [], []
        self.gateway = self.pool = self.engine = self._zoo_dir = None
        leaks = []
        workers = multiprocessing.active_children()
        if workers:
            leaks.append(f"{len(workers)} worker process(es) still alive")
            for worker in workers:
                worker.terminate()
                worker.join(timeout=5)
        if self._shm_before is not None:
            segments = set(os.listdir("/dev/shm")) - self._shm_before
            if segments:
                leaks.append(f"/dev/shm segments left behind: {sorted(segments)}")
        return leaks


def _stop_resource_tracker() -> None:
    """Stop the tracker process the pool's shm rings made Python start.

    It would otherwise outlive ``close()`` until this process exits; a
    later pool starts a fresh one.  There is no public call for this.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of a live process, from ``/proc/<pid>/stat``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_kb(pid: int) -> int:
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


class Oracle:
    """Bit-exact expected logits from the plaintext runner."""

    def __init__(self):
        self._runner = PlaintextRunner(
            demo_network(), demo_weights(), rescale_bits=DEMO_RESCALE_BITS
        )

    def failures(self, stack: Stack, window: Window) -> list[str]:
        """One line per inference that raised or returned wrong logits."""
        out = []
        for inf in window.inferences:
            where = f"client {inf.client} inference {inf.image_index}"
            if inf.error is not None:
                out.append(f"{where}: {inf.error}")
            elif not np.array_equal(
                inf.logits, self._runner.run(stack.image(inf.client, inf.image_index))
            ):
                out.append(f"{where}: logits differ from PlaintextRunner")
        return out


def ops_problems(workload: Workload, window: Window) -> list[str]:
    """Pinned HE op counts, on the workloads where the counters are exact."""
    if workload.pinned_ops is None or not window.inferences:
        return []
    n = len(window.inferences)
    got = tuple(
        window.counts[k] / n for k in ("ops.ntt", "ops.he_rotate", "ops.he_mult")
    )
    if got != tuple(float(v) for v in workload.pinned_ops):
        return [
            f"ops per inference (ntt, rotate, mult) = {got}, "
            f"pinned {workload.pinned_ops}"
        ]
    return []


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def end_to_end(windows: list[Window], setup_s: list[float],
               peak_rss_mb: float) -> dict[str, float]:
    """The end-to-end metrics of one untraced run: medians over its windows."""

    def median(of) -> float:
        return statistics.median(of(window) for window in windows)

    def per_inference(key: str):
        return lambda w: w.counts[key] / max(1, len(w.inferences))

    return {
        "setup_s": statistics.median(setup_s),
        "infer_latency_p50_ms": median(lambda w: percentile(w.latencies_ms(), 50)),
        "infer_latency_p90_ms": median(lambda w: percentile(w.latencies_ms(), 90)),
        "throughput_rps":
            median(lambda w: (len(w.inferences) - len(w.failures)) / w.wall_s),
        "cpu_ms_per_inference":
            median(lambda w: w.cpu_s / max(1, len(w.inferences))) * 1e3,
        "wire_bytes_per_inference": median(per_inference("wire_bytes")),
        "peak_rss_mb": peak_rss_mb,
    }
