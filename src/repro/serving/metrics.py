"""Serving observability: one registry, every layer reports into it.

The gateway, the engine, and the batcher all share a single
:class:`MetricsRegistry`.  Each records what only it can see -- the
gateway its queue depth and connection count, the engine per-request and
per-layer latencies, the batcher how full each flushed batch was -- and
``snapshot()`` folds everything into one JSON-safe dict that is served
three ways: over HTTP (``GET /metrics`` on the gateway port), as a wire
``Message("metrics")`` round, and periodically on stdout via
``repro serve --stats-interval``.

Percentiles come from bounded ring buffers (the last ``_RESERVOIR``
observations per series), req/s from a timestamp deque over a sliding
``_WINDOW_S`` window -- both O(1) per observation, so recording is cheap
enough to sit on the request path.  HE-op counters are read straight from
:data:`repro.bfv.counters.GLOBAL_COUNTERS`; they are process-wide
totals, exact when the engine runs serially and a close running tally
under concurrency (the counters are deliberately unlocked).

Noise headroom is *analytic*, not measured: the server never sees a
secret key, so it cannot measure invariant noise.  Instead
:func:`noise_floor_bits` re-derives the Table III worst-case budget
floor for each registered model (same proxy convention as the
conformance suite) -- the number of bits of budget a client is
guaranteed to have left after the deepest layer, i.e. how much margin
the deployment has before decryption failures.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from ..bfv.counters import GLOBAL_COUNTERS
from ..bfv.native import kernel_status

__all__ = [
    "MetricsRegistry",
    "health_payload",
    "noise_floor_bits",
    "prometheus_text",
    "render_http",
]

#: Sliding window (seconds) of the req/s rate.
_WINDOW_S = 60.0
#: Observations kept per latency series for its percentiles.
_RESERVOIR = 512


def noise_floor_bits(entry) -> float:
    """Worst-case Table III noise-budget floor for one registered model.

    Mirrors the conformance suite's ``_table3_min_budget_bound``: the
    analytic minimum over the model's linear layers of the budget left
    after a worst-case evaluation (slot-encoded weight plaintexts with
    coefficients bounded by t: one window of base Wdcmp = t, l_pt = 1).
    Cached on the entry -- the bound is a pure function of (params,
    network, schedule), all frozen after registration.
    """
    cached = getattr(entry, "_noise_floor_bits", None)
    if cached is not None:
        return cached
    from ..core.noise_model import NoiseMode, combine_noise, eta_mult, eta_rotate, fresh_noise
    from ..core.ptune import ModelParams
    from ..nn.layers import ConvLayer

    params = entry.params
    t_bits = params.plain_modulus.bit_length()
    proxy = ModelParams(
        n=params.n, plain_bits=t_bits, coeff_bits=params.coeff_bits,
        w_dcmp_bits=t_bits, a_dcmp_bits=params.a_dcmp_bits,
    )
    v0 = fresh_noise(proxy, NoiseMode.WORST)
    eta_m = eta_mult(proxy, NoiseMode.WORST, l_pt=1)
    eta_a = eta_rotate(proxy, NoiseMode.WORST)
    bounds = []
    for layer in entry.network.linear_layers:
        if isinstance(layer, ConvLayer):
            mult_terms = layer.ci * layer.fw**2
            rot_terms = layer.ci * (layer.fw**2 - 1)
        else:
            mult_terms = layer.ni
            rot_terms = layer.ni - 1
        noise = combine_noise(
            v0, eta_m, eta_a, mult_terms, rot_terms, entry.schedule, NoiseMode.WORST
        )
        bounds.append(params.noise_capacity_bits - math.log2(noise))
    floor = round(min(bounds), 3)
    entry._noise_floor_bits = floor
    return floor


class _Series:
    """Bounded latency series: count/total plus a percentile ring buffer."""

    __slots__ = ("count", "total_s", "samples")

    def __init__(self):
        self.count = 0
        self.total_s = 0.0
        self.samples: deque[float] = deque(maxlen=_RESERVOIR)

    def record(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds
        self.samples.append(seconds)

    def summary(self) -> dict:
        samples = sorted(self.samples)
        out = {"count": self.count}
        if samples:
            def pct(q: float) -> float:
                idx = min(len(samples) - 1, int(round(q * (len(samples) - 1))))
                return round(samples[idx] * 1e3, 3)

            out["p50_ms"] = pct(0.50)
            out["p95_ms"] = pct(0.95)
            out["mean_ms"] = round(self.total_s / self.count * 1e3, 3)
        return out


class MetricsRegistry:
    """Thread-safe sink for serving metrics; ``snapshot()`` is JSON-safe.

    All mutation paths take one short lock; gauges are pull-based
    callables evaluated only at snapshot time, so a gauge can close over
    live server state (queue depth, session count) without the server
    pushing updates.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._started = time.monotonic()
        self._requests = _Series()
        self._by_kind: dict[str, int] = {}
        self._outcomes = {"ok": 0, "error": 0, "busy": 0}
        self._completions: deque[float] = deque()
        self._layers: dict[str, _Series] = {}
        self._batch_fill: dict[int, int] = {}
        self._batch_requests = 0
        self._stages: dict[str, _Series] = {}
        self._gauges: dict[str, object] = {}

    # -- recording -----------------------------------------------------

    def record_request(self, kind: str, seconds: float, reply_kind: str) -> None:
        """One protocol round completed: ``reply_kind`` decides the outcome."""
        if reply_kind == "busy":
            outcome = "busy"
        elif reply_kind == "error":
            outcome = "error"
        else:
            outcome = "ok"
        now = time.monotonic()
        with self._lock:
            self._requests.record(seconds)
            self._by_kind[kind] = self._by_kind.get(kind, 0) + 1
            self._outcomes[outcome] += 1
            self._completions.append(now)
            horizon = now - _WINDOW_S
            while self._completions and self._completions[0] < horizon:
                self._completions.popleft()

    def record_layer(self, layer: str, seconds: float) -> None:
        """One linear layer evaluated (HE compute + masking, per request)."""
        with self._lock:
            series = self._layers.get(layer)
            if series is None:
                series = self._layers[layer] = _Series()
            series.record(seconds)

    def record_batch(self, size: int) -> None:
        """One batch flushed through the executor with ``size`` requests."""
        with self._lock:
            self._batch_fill[size] = self._batch_fill.get(size, 0) + 1
            self._batch_requests += size

    def record_stage(self, stage: str, seconds: float) -> None:
        """One trace span finished: per-stage latency histogram.

        Fed by the :class:`~repro.serving.tracing.Tracer` for every
        span (``handle``, ``batch_wait``, ``execute``, ``worker.compute``,
        ...), so ``/metrics`` can answer "queue-wait vs compute" without
        anyone capturing a trace.
        """
        with self._lock:
            series = self._stages.get(stage)
            if series is None:
                series = self._stages[stage] = _Series()
            series.record(seconds)

    def add_gauge(self, name: str, fn) -> None:
        """Register a pull-based gauge; ``fn()`` runs at snapshot time."""
        with self._lock:
            self._gauges[name] = fn

    # -- reporting -----------------------------------------------------

    def requests_per_second(self) -> float:
        now = time.monotonic()
        with self._lock:
            horizon = now - _WINDOW_S
            while self._completions and self._completions[0] < horizon:
                self._completions.popleft()
            window = min(_WINDOW_S, max(now - self._started, 1e-9))
            return len(self._completions) / window

    def snapshot(self) -> dict:
        """Everything, as one JSON-serialisable dict."""
        rps = self.requests_per_second()
        he = GLOBAL_COUNTERS.snapshot()
        with self._lock:
            fills = dict(self._batch_fill)
            batches = sum(fills.values())
            batch = {
                "histogram": {str(k): v for k, v in sorted(fills.items())},
                "batches": batches,
                "requests": self._batch_requests,
                "mean_fill": round(self._batch_requests / batches, 3) if batches else 0.0,
            }
            out = {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "requests": {
                    **self._requests.summary(),
                    "per_second": round(rps, 3),
                    "window_s": _WINDOW_S,
                    "by_kind": dict(self._by_kind),
                    **{k: v for k, v in self._outcomes.items()},
                },
                "layers": {
                    name: series.summary()
                    for name, series in sorted(self._layers.items())
                },
                "batch_fill": batch,
                "stages": {
                    name: series.summary()
                    for name, series in sorted(self._stages.items())
                },
                "he_ops": {
                    "he_mult": he.he_mult,
                    "he_add": he.he_add,
                    "he_rotate": he.he_rotate,
                    "ntt": he.ntt,
                    "modmuls": he.modmuls,
                    "butterflies": he.butterflies,
                },
                # Silent degradations, by kind (ROADMAP 2c's family; first
                # member: the compiled kernel failed to load).
                "fallbacks": {"native_to_numpy": kernel_status()["fallbacks"]},
                "gauges": {},
            }
            gauges = dict(self._gauges)
        # Gauges run unlocked: they may touch other subsystems' locks.
        for name, fn in sorted(gauges.items()):
            try:
                out["gauges"][name] = fn()
            except Exception as exc:  # pragma: no cover - defensive
                out["gauges"][name] = f"error: {exc}"
        return out


# -- HTTP endpoints -----------------------------------------------------------


def prometheus_text(snapshot: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` in Prometheus text format.

    Version 0.0.4 exposition: ``# TYPE`` lines, one sample per line,
    seconds as the base unit for latencies.  Series summaries map to a
    gauge triple (p50/p95/mean) rather than native histograms -- the
    registry keeps percentile reservoirs, not cumulative buckets.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, samples, help_text: str = "") -> None:
        if help_text:
            lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, value in samples:
            if isinstance(value, bool):
                value = int(value)
            if not isinstance(value, (int, float)):
                continue
            label_s = ""
            if labels:
                inner = ",".join(f'{k}="{v}"' for k, v in labels.items())
                label_s = "{" + inner + "}"
            lines.append(f"{name}{label_s} {value}")

    req = snapshot.get("requests", {})
    emit("repro_uptime_seconds", "gauge",
         [({}, snapshot.get("uptime_s", 0.0))])
    emit("repro_requests_total", "counter",
         [({"outcome": o}, req.get(o, 0)) for o in ("ok", "error", "busy")],
         "Protocol rounds handled, by outcome.")
    emit("repro_requests_by_kind_total", "counter",
         [({"kind": k}, v) for k, v in sorted(req.get("by_kind", {}).items())])
    emit("repro_requests_per_second", "gauge",
         [({}, req.get("per_second", 0.0))])
    latency = [({"q": q}, req[key] / 1e3)
               for q, key in (("0.5", "p50_ms"), ("0.95", "p95_ms"))
               if key in req]
    emit("repro_request_latency_seconds", "gauge", latency,
         "Request latency quantiles over the reservoir window.")

    for section, metric in (("layers", "repro_layer_seconds"),
                            ("stages", "repro_stage_seconds")):
        entries = snapshot.get(section, {})
        samples = []
        counts = []
        for name, summary in sorted(entries.items()):
            counts.append(({section[:-1]: name}, summary.get("count", 0)))
            for q, key in (("0.5", "p50_ms"), ("0.95", "p95_ms")):
                if key in summary:
                    samples.append(({section[:-1]: name, "q": q},
                                    summary[key] / 1e3))
        if counts:
            emit(metric + "_count", "counter", counts)
        if samples:
            emit(metric, "gauge", samples)

    batch = snapshot.get("batch_fill", {})
    emit("repro_batches_total", "counter", [({}, batch.get("batches", 0))])
    emit("repro_batch_mean_fill", "gauge", [({}, batch.get("mean_fill", 0.0))])
    emit("repro_batch_fill_total", "counter",
         [({"size": k}, v)
          for k, v in sorted(batch.get("histogram", {}).items())])

    emit("repro_he_ops_total", "counter",
         [({"op": k}, v) for k, v in sorted(snapshot.get("he_ops", {}).items())],
         "Process-wide HE operation counters.")
    emit("repro_fallback_total", "counter",
         [({"kind": k}, v) for k, v in sorted(snapshot.get("fallbacks", {}).items())],
         "Degraded-path fallbacks taken, by kind.")
    emit("repro_gauge", "gauge",
         [({"name": k}, v) for k, v in sorted(snapshot.get("gauges", {}).items())
          if isinstance(v, (int, float)) and not isinstance(v, bool)])
    return "\n".join(lines) + "\n"


def health_payload(engine) -> dict:
    """Liveness + worker-quorum status for ``GET /healthz``.

    ``status`` is ``"ok"`` while the engine can serve at full strength
    and ``"degraded"`` once the shard pool is below the executor's
    quorum (requests then fall back to local execution).
    """
    kernel = kernel_status()
    payload: dict = {"status": "ok", "ntt_path": kernel["ntt_path"],
                     "ntt_isa": kernel["ntt_isa"], "ntt_lanes": kernel["lanes"]}
    if kernel["ntt_fallback_reason"]:
        payload["ntt_fallback_reason"] = kernel["ntt_fallback_reason"]
    if engine is None:
        return payload
    registry = getattr(engine, "registry", None)
    if registry is not None:
        payload["models"] = sorted(registry.names())
        payload["zoo_generation"] = getattr(registry, "zoo_generation", 0)
    sessions = getattr(engine, "_sessions", None)
    if sessions is not None:
        payload["sessions"] = len(sessions)
    payload["degraded_calls"] = getattr(engine, "degraded_calls", 0)
    payload["backend_failures"] = getattr(engine, "backend_failures", 0)
    executor = getattr(engine, "executor", None)
    pool = getattr(executor, "pool", None)
    if pool is not None:
        available = pool.available_workers()
        quorum = int(getattr(executor, "quorum", 1))
        pool_status = {
            "workers": pool.workers,
            "available_workers": available,
            "quorum": quorum,
            "quorum_ok": available >= quorum,
            "respawns_total": getattr(pool, "respawns_total", 0),
            "retries_total": getattr(pool, "retries_total", 0),
            "upgrading_slots": getattr(pool, "upgrading_slots", 0),
            "upgrades_total": getattr(pool, "upgrades_total", 0),
        }
        payload["pool"] = pool_status
        if not pool_status["quorum_ok"]:
            payload["status"] = "degraded"
    return payload


def render_http(target: str, engine, metrics) -> tuple:
    """Route one HTTP target to ``(status_line, content_type, body_bytes)``.

    The router behind the gateway's ``GET`` handling: ``/metrics``
    (JSON), ``/metrics?format=prometheus`` (text exposition) and
    ``/healthz``.
    """
    import json as _json
    from urllib.parse import parse_qs, urlsplit

    parts = urlsplit(target)
    path = parts.path or "/"
    query = parse_qs(parts.query)
    if path in ("/metrics", "/metrics/"):
        if metrics is None:
            body = _json.dumps({"error": "metrics not enabled"}).encode()
            return "404 Not Found", "application/json", body
        snapshot = metrics.snapshot()
        if query.get("format", [""])[0] == "prometheus":
            return ("200 OK", "text/plain; version=0.0.4; charset=utf-8",
                    prometheus_text(snapshot).encode())
        return "200 OK", "application/json", _json.dumps(snapshot).encode()
    if path in ("/healthz", "/healthz/"):
        payload = health_payload(engine)
        status = "200 OK" if payload["status"] == "ok" \
            else "503 Service Unavailable"
        return status, "application/json", _json.dumps(payload).encode()
    body = _json.dumps({"error": f"no such endpoint {path}"}).encode()
    return "404 Not Found", "application/json", body
