"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``models``
    List the evaluation model zoo with layer counts and MACs.
``tune MODEL``
    Run HE-PTune + Sched-PA on a model and print per-layer parameters.
``speedups [MODEL ...]``
    The Figure 6 comparison (Gazelle vs HE-PTune vs Cheetah).
``accelerate MODEL``
    Full flow: tuning, profiling, limit study, accelerator DSE.
``params N PLAIN_BITS COEFF_BITS``
    Inspect a BFV parameter set (security, digits, noise capacity).
``compile MODEL -o model.rpa``
    Compile a model ahead of time into a ``.rpa`` artifact (offline
    weight encoding paid once; see :mod:`repro.artifacts`).
``serve [--host H] [--port P] [--artifacts DIR] [--workers N]``
    Run the multi-client private-inference server -- compiling the demo
    deployment at startup, or warm-starting a whole artifact directory
    with zero recompute.  ``--workers N`` shards plan execution across
    N forked worker processes memmapping the same artifacts
    (bit-identical logits, multi-core throughput), and
    ``--remote-workers host:port,...`` adds remote ``repro
    shard-worker`` processes to the pool.  The front end is the
    event-driven asyncio gateway; ``--quota-rps``,
    ``--max-queue-depth``, ``--session-ttl-s`` and ``--stats-interval``
    control admission, session lifetime, and observability.  ``GET
    /healthz`` and ``GET /metrics`` (JSON, or Prometheus text with
    ``?format=prometheus``) answer on the serving port; ``--trace`` /
    ``--trace-dir`` turn on end-to-end request tracing, and
    ``--log-level`` / ``--log-json`` shape the structured logs.
``shard-worker --artifacts DIR [--host H] [--port P]``
    Run a standalone remote shard worker: memmaps the artifact
    directory and serves plan-layer tasks to any ``repro serve
    --remote-workers`` coordinator that connects.
``trace DIR [--tree] [--check] [--merge OUT]``
    Inspect the Chrome ``trace_event`` files a ``serve --trace-dir``
    process wrote: per-trace summaries, a span-tree view, validation
    with per-trace HE op totals, and merging for Perfetto.
``infer [--host H] [--port P] [--count K] [--model NAME]``
    Connect to a running server, run private inferences, verify logits.
``admin ACTION [--host H] [--port P] [--token T]``
    Operator control plane against a running server started with
    ``--admin-token``: ``status``, ``reload-zoo`` (swap in a new zoo
    generation and rolling-upgrade the shard pool with zero downtime),
    ``drain-worker``, ``evict-session``, ``drain-tenant``.  The token
    may also come from ``REPRO_ADMIN_TOKEN``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import CheetahFramework
from .bfv import BfvParameters
from .core.baselines import FleetSummary, speedup_report
from .core.ptune import HePTune
from .nn.models import MODEL_BUILDERS, all_models, build_model


def _cmd_models(_args) -> int:
    print(f"{'model':<14}{'convs':>7}{'fcs':>5}{'MACs':>14}")
    for network in all_models():
        print(
            f"{network.name:<14}{len(network.conv_layers):>7}"
            f"{len(network.fc_layers):>5}{network.total_macs:>14,}"
        )
    return 0


def _cmd_tune(args) -> int:
    network = build_model(args.model)
    tuner = HePTune()
    print(f"{'layer':<16}{'n':>7}{'log t':>7}{'log q':>7}{'Adcmp':>7}{'budget':>8}")
    for tuned in tuner.tune_network(network):
        p = tuned.params
        print(
            f"{tuned.layer.name:<16}{p.n:>7}{p.plain_bits:>7}{p.coeff_bits:>7}"
            f"{f'2^{p.a_dcmp_bits}':>7}{tuned.noise.budget_bits:>7.1f}b"
        )
    return 0


def _cmd_speedups(args) -> int:
    names = args.models or list(MODEL_BUILDERS)
    reports = []
    print(f"{'model':<14}{'HE-PTune':>10}{'+Sched-PA':>11}{'combined':>10}")
    for name in names:
        report = speedup_report(build_model(name))
        reports.append(report)
        print(
            f"{name:<14}{report.ptune_speedup:>9.2f}x"
            f"{report.sched_pa_speedup:>10.2f}x{report.cheetah_speedup:>9.2f}x"
        )
    if len(reports) > 1:
        summary = FleetSummary(reports)
        print(f"harmonic mean combined: {summary.combined_harmonic_mean():.2f}x")
    return 0


def _cmd_accelerate(args) -> int:
    framework = CheetahFramework(target_latency_s=args.target_ms / 1000.0)
    result = framework.run(args.model)
    print(result.summary())
    selected = result.selected_design
    print(f"  IO utilization: {selected.io_utilization * 100:.0f}%")
    for kernel, factor in sorted(result.limit.speedups.items(), key=lambda kv: -kv[1]):
        print(f"  {kernel} speedup needed: {factor}x")
    return 0


def _cmd_report(args) -> int:
    from .reporting import write_report

    payload = write_report(args.out, args.models or None)
    print(f"wrote {args.out} with {len(payload)} experiment sections")
    return 0


def _cmd_params(args) -> int:
    params = BfvParameters.create(
        n=args.n,
        plain_bits=args.plain_bits,
        coeff_bits=args.coeff_bits,
        require_security=False,
    )
    print(params.describe())
    print(f"noise capacity: {params.noise_capacity_bits:.1f} bits")
    print(f"slots: {params.slot_count} ({params.row_size} per row)")
    if params.security_level == 0:
        print("WARNING: below 128-bit security")
    return 0


def _demo_schedule(name: str):
    from .core.noise_model import Schedule

    return Schedule.INPUT_ALIGNED if name == "ia" else Schedule.PARTIAL_ALIGNED


def _cmd_compile(args) -> int:
    import time

    from .artifacts import save_artifact, update_manifest
    from .serving import (
        DEMO_RESCALE_BITS,
        ModelRegistry,
        demo_network,
        demo_params,
        demo_weights,
    )

    params = demo_params(n=args.n)
    network = demo_network()
    print(f"compiling model {args.name!r} over {params.describe()} ...")
    start = time.perf_counter()
    entry = ModelRegistry().register(
        args.name,
        network,
        demo_weights(seed=args.seed),
        params,
        schedule=_demo_schedule(args.schedule),
        rescale_bits=DEMO_RESCALE_BITS,
    )
    compile_s = time.perf_counter() - start
    tuned = None
    if args.tune:
        from .core.ptune import HePTune

        tuned = {
            t.layer.name: {
                "n": t.params.n,
                "plain_bits": t.params.plain_bits,
                "coeff_bits": t.params.coeff_bits,
                "w_dcmp_bits": t.params.w_dcmp_bits,
                "a_dcmp_bits": t.params.a_dcmp_bits,
            }
            for t in HePTune().tune_network(network)
        }
    path = save_artifact(entry, args.out, tuned=tuned)
    size = path.stat().st_size
    print(
        f"wrote {path} ({size / 1e6:.2f} MB, "
        f"{len(entry.plans)} compiled plans, "
        f"{len(entry.rotation_steps)} rotation steps) "
        f"in {compile_s:.2f}s"
    )
    if args.manifest:
        manifest = update_manifest(path.parent, entry, path.name, tuned=tuned)
        print(f"updated {manifest}")
    return 0


def _stats_loop(metrics, interval_s: float, stop_event, log=None) -> None:
    """Periodic metrics-snapshot dump behind ``serve --stats-interval``.

    Runs until ``stop_event`` is set; each tick logs one sorted-keys
    JSON object (grep-able, machine-parsable) of the full registry
    snapshot.
    """
    import json
    import logging

    log = log if log is not None else logging.getLogger("repro.serving.cli")
    while not stop_event.wait(interval_s):
        log.info("stats: %s", json.dumps(metrics.snapshot(), sort_keys=True))


def _cmd_serve(args) -> int:
    import logging
    import signal
    import tempfile
    import threading
    from pathlib import Path

    from .serving import (
        DEMO_RESCALE_BITS,
        AdmissionController,
        AsyncGateway,
        MetricsRegistry,
        ModelRegistry,
        ServingEngine,
        configure_logging,
        demo_network,
        demo_params,
        demo_weights,
    )

    configure_logging(args.log_level, args.log_json)
    log = logging.getLogger("repro.serving.cli")
    remote_workers = [
        spec.strip()
        for spec in (args.remote_workers or "").split(",")
        if spec.strip()
    ]
    scratch_dir = None
    if args.artifacts:
        from .artifacts import load_zoo

        artifact_dir = args.artifacts
        registry = load_zoo(artifact_dir)
        for name in registry.names():
            entry = registry.get(name)
            log.info(
                "warm-started model %r from artifacts (%d plans, %s)",
                name, len(entry.plans), entry.params.describe(),
            )
    else:
        params = demo_params(n=args.n)
        registry = ModelRegistry()
        log.info("compiling plans for model 'demo' over %s ...", params.describe())
        entry = registry.register(
            "demo",
            demo_network(),
            demo_weights(),
            params,
            schedule=_demo_schedule(args.schedule),
            rescale_bits=DEMO_RESCALE_BITS,
        )
        artifact_dir = None
        if args.workers > 0:
            # Shard workers warm-start from artifacts (shared weight
            # pages); without --artifacts, stage the compiled demo into
            # a scratch zoo the workers can load.
            from .artifacts import save_artifact, update_manifest

            scratch_dir = tempfile.TemporaryDirectory(prefix="repro-shards-")
            artifact_dir = scratch_dir.name
            save_artifact(entry, Path(artifact_dir) / "demo.rpa")
            update_manifest(artifact_dir, entry, "demo.rpa")

    pool = None
    executor = None
    if args.workers > 0 or remote_workers:
        from .serving import ShardExecutor, ShardPool

        pool = ShardPool(
            artifact_dir if args.workers > 0 else None,
            workers=args.workers,
            max_attempts=args.max_attempts,
            remote_endpoints=remote_workers or None,
        ).start()
        executor = ShardExecutor(pool)
        local = (
            f"{args.workers} local worker process(es) "
            f"memmapping {artifact_dir}"
            if args.workers > 0 else "no local workers"
        )
        remote = (
            f" + {len(remote_workers)} remote worker(s) {remote_workers}"
            if remote_workers else ""
        )
        log.info(
            "shard pool ready: %s%s (models %s, max_attempts=%d)",
            local, remote, pool.model_names, pool.max_attempts,
        )
    metrics = MetricsRegistry()
    admission = AdmissionController(
        rate_per_tenant=args.quota_rps,
        burst=args.quota_burst,
        max_queue_depth=args.max_queue_depth,
    )
    tracer = None
    if args.trace or args.trace_dir:
        from .serving import Tracer

        tracer = Tracer(
            metrics=metrics,
            trace_dir=args.trace_dir or None,
            max_trace_files=args.trace_retention,
            log_spans=args.log_json,
        )
        log.info(
            "request tracing enabled%s",
            f" (trace files -> {args.trace_dir}, "
            f"retention {args.trace_retention})" if args.trace_dir else "",
        )
    admin_token = args.admin_token or os.environ.get("REPRO_ADMIN_TOKEN", "")
    engine = ServingEngine(
        registry,
        max_batch=args.max_batch,
        executor=executor,
        request_deadline_s=args.request_deadline_s or None,
        session_ttl_s=args.session_ttl_s or None,
        metrics=metrics,
        admission=admission,
        tracer=tracer,
        admin_token=admin_token or None,
    )
    if admin_token:
        log.info("admin control plane enabled (repro admin --token ...)")
    max_frame_bytes = (
        int(args.max_frame_mb * (1 << 20)) if args.max_frame_mb else None
    )
    server = AsyncGateway(
        engine,
        host=args.host,
        port=args.port,
        executor_threads=args.threads,
        max_frame_bytes=max_frame_bytes,
    ).start()
    log.info(
        "serving %d model(s) %s on %s:%d "
        "(max_batch=%d, threads=%d, shard_workers=%d, %s)",
        len(registry.names()), registry.names(), server.host, server.port,
        engine.max_batch, args.threads, args.workers, _kernel_banner(),
    )
    log.info(
        "http: curl http://%s:%d/healthz | .../metrics (JSON snapshot) | "
        ".../metrics?format=prometheus (text exposition)",
        server.host, server.port,
    )

    # Graceful shutdown: SIGTERM (fleet orchestrators) and SIGINT both
    # drain in-flight requests through AsyncGateway.stop() instead of
    # killing the event loop mid-reply; the shard pool drains after the
    # front end (in-flight requests may still need workers).
    stop_requested = threading.Event()

    def _request_stop(_signum, _frame):
        stop_requested.set()

    signal.signal(signal.SIGINT, _request_stop)
    signal.signal(signal.SIGTERM, _request_stop)
    if args.stats_interval > 0:
        threading.Thread(
            target=_stats_loop,
            args=(metrics, args.stats_interval, stop_requested, log),
            name="repro-serve-stats", daemon=True,
        ).start()
    log.info("press Ctrl-C (or send SIGTERM) to stop")
    stop_requested.wait()
    log.info("shutting down (draining in-flight requests)")
    server.stop()
    if engine.backend_failures:
        log.warning(
            "backend failures: %d (degraded layer calls served locally: %d)",
            engine.backend_failures, engine.degraded_calls,
        )
    if pool is not None:
        if pool.respawns_total or pool.retries_total:
            log.warning(
                "shard supervision: %d respawn(s), %d task retry(ies)",
                pool.respawns_total, pool.retries_total,
            )
        pool.stop()
    if tracer is not None:
        log.info(
            "tracer: %d trace(s), %d span(s), %d dropped from the ring",
            tracer.traces_total, tracer.spans_total, tracer.dropped_traces,
        )
    if scratch_dir is not None:
        scratch_dir.cleanup()
    return 0


def _kernel_banner() -> str:
    """``ntt_path=`` and ``ntt_isa=`` for a start-up line (the reason on numpy)."""
    from .bfv.native import kernel_status

    status = kernel_status()
    if status["ntt_fallback_reason"]:
        return f"ntt_path=numpy [{status['ntt_fallback_reason']}]"
    return f"ntt_path=native ntt_isa={status['ntt_isa']}"


def _cmd_shard_worker(args) -> int:
    import logging
    import signal
    import threading

    from .serving import ShardWorkerServer, configure_logging

    configure_logging(args.log_level, args.log_json)
    log = logging.getLogger("repro.serving.cli")
    server = ShardWorkerServer(
        args.artifacts, host=args.host, port=args.port
    ).start()
    log.info(
        "shard worker serving models %s on %s (artifacts: %s, %s)",
        server.registry.names(), server.endpoint, args.artifacts,
        _kernel_banner(),
    )
    stop_requested = threading.Event()

    def _request_stop(_signum, _frame):
        stop_requested.set()

    signal.signal(signal.SIGINT, _request_stop)
    signal.signal(signal.SIGTERM, _request_stop)
    log.info("press Ctrl-C (or send SIGTERM) to stop")
    stop_requested.wait()
    log.info("shutting down")
    server.stop()
    return 0


def _cmd_trace(args) -> int:
    import json
    from pathlib import Path

    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 1
    paths = sorted(directory.glob("trace-*.json"))
    if not paths:
        print(f"error: no trace-*.json files under {directory}", file=sys.stderr)
        return 1 if args.check else 0

    def _load(path: Path):
        """Parse one trace file; returns (events, problems)."""
        problems: list[str] = []
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return [], [f"unreadable JSON: {exc}"]
        events = payload.get("traceEvents")
        if not isinstance(events, list) or not events:
            return [], ["empty or missing traceEvents"]
        for index, event in enumerate(events):
            if event.get("ph") != "X":
                problems.append(f"event {index}: ph {event.get('ph')!r} != 'X'")
            for field in ("name", "ts", "dur", "pid", "tid"):
                if field not in event:
                    problems.append(f"event {index}: missing {field!r}")
        return events, problems

    def _he_ops_totals(events):
        """Sum he_ops over leaf compute spans (worker.compute, else execute)."""
        totals: dict[str, int] = {}
        names = {event.get("name") for event in events}
        leaf = "worker.compute" if "worker.compute" in names else "execute"
        for event in events:
            if event.get("name") != leaf:
                continue
            ops = (event.get("args") or {}).get("he_ops") or {}
            for op, count in ops.items():
                totals[op] = totals.get(op, 0) + int(count)
        return leaf, totals

    bad = 0
    print(f"{'file':<40}{'spans':>7}{'dur_ms':>9}  root")
    for path in paths:
        events, problems = _load(path)
        if problems:
            bad += 1
            print(f"{path.name:<40}  INVALID: {problems[0]}")
            continue
        span_ms = max(e["ts"] + e["dur"] for e in events) / 1000.0
        roots = [e for e in events if not (e.get("args") or {}).get("parent_id")]
        root = roots[0]["name"] if roots else "?"
        print(f"{path.name:<40}{len(events):>7}{span_ms:>9.2f}  {root}")
        if args.check:
            leaf, totals = _he_ops_totals(events)
            if totals:
                ops = ", ".join(f"{op}={n}" for op, n in sorted(totals.items()))
                print(f"{'':<40}  {leaf} he_ops: {ops}")
    if args.tree:
        events, problems = _load(paths[-1])
        if not problems:
            print(f"\nspan tree of {paths[-1].name}:")
            by_id = {(e.get("args") or {}).get("span_id"): e for e in events}
            children: dict = {}
            for event in events:
                parent = (event.get("args") or {}).get("parent_id")
                children.setdefault(parent if parent in by_id else None, []).append(event)

            def _walk(parent_id, depth):
                for event in sorted(
                    children.get(parent_id, []), key=lambda e: e["ts"]
                ):
                    print(
                        f"  {'  ' * depth}{event['name']:<{24 - 2 * min(depth, 8)}} "
                        f"{event['dur'] / 1000.0:>9.3f} ms"
                    )
                    _walk((event.get("args") or {}).get("span_id"), depth + 1)

            _walk(None, 0)
    if args.merge:
        merged: list = []
        for path in paths:
            events, problems = _load(path)
            if not problems:
                merged.extend(events)
        Path(args.merge).write_text(
            json.dumps(
                {"traceEvents": merged, "displayTimeUnit": "ms"}, indent=1
            )
        )
        print(f"\nmerged {len(merged)} event(s) from {len(paths)} file(s) "
              f"into {args.merge}")
    if bad:
        print(f"\n{bad}/{len(paths)} trace file(s) invalid", file=sys.stderr)
        return 1 if args.check else 0
    return 0


def _cmd_infer(args) -> int:
    import numpy as np

    from .nn.plaintext import PlaintextRunner
    from .serving import (
        DEMO_RESCALE_BITS,
        ClientSession,
        SocketTransport,
        demo_image,
        demo_network,
        demo_params,
        demo_weights,
    )

    params = demo_params(n=args.n)
    network = demo_network()
    runner = PlaintextRunner(
        network, demo_weights(seed=args.weights_seed), rescale_bits=DEMO_RESCALE_BITS
    )
    from .serving.faults import ConnectionFaults

    conn_faults = ConnectionFaults.from_env()
    if conn_faults is not None:
        print("connection fault injection active (REPRO_FAULT_CONN_*)")
    with SocketTransport(
        args.host, args.port,
        socket_factory=None if conn_faults is None else conn_faults.connect,
    ) as transport:
        session = ClientSession(
            network, params, transport, seed=args.seed,
            track_noise=args.noise, tenant=args.tenant,
        )
        session.connect(args.model)
        print(f"session {session.session_id} connected to {args.host}:{args.port}")
        failures = 0
        for index in range(args.count):
            image = demo_image(args.seed + index)
            result = session.infer(image)
            expected = runner.run(image)
            match = np.array_equal(result.logits, expected)
            failures += 0 if match else 1
            budget = (
                f", min budget {result.min_noise_budget:.1f}b" if args.noise else ""
            )
            print(
                f"inference {index}: logits {result.logits.tolist()} "
                f"(matches plaintext: {match}{budget})"
            )
        session.close()
        if getattr(transport, "retries", 0):
            print(f"transport retries: {transport.retries}")
        if session._busy_retries:
            print(f"busy retries (server backpressure): {session._busy_retries}")
    return 1 if failures else 0


def _cmd_admin(args) -> int:
    import json

    from .serving import admin_message, one_shot_request

    token = args.token or os.environ.get("REPRO_ADMIN_TOKEN", "")
    if not token:
        print(
            "error: no admin token (pass --token or set REPRO_ADMIN_TOKEN)",
            file=sys.stderr,
        )
        return 2
    meta = {}
    if args.action == "reload-zoo":
        if args.directory:
            meta["directory"] = args.directory
        meta["rolling"] = not args.no_rolling
    elif args.action == "drain-worker":
        if args.worker is None:
            print("error: drain-worker requires --worker ID", file=sys.stderr)
            return 2
        meta["worker"] = args.worker
        meta["resume"] = args.resume
        meta["wait_s"] = args.wait_s
    elif args.action == "evict-session":
        if not args.session:
            print("error: evict-session requires --session ID", file=sys.stderr)
            return 2
        meta["session"] = args.session
    elif args.action == "drain-tenant":
        if not args.tenant:
            print("error: drain-tenant requires --tenant NAME", file=sys.stderr)
            return 2
        meta["tenant"] = args.tenant
    try:
        reply = one_shot_request(
            args.host, args.port,
            admin_message(args.action, token, **meta),
            timeout=args.timeout_s,
        )
    except (OSError, ConnectionError) as exc:
        print(f"error: {args.host}:{args.port} unreachable: {exc}", file=sys.stderr)
        return 1
    if reply.kind != "admin_ok":
        print(
            f"error: {reply.meta.get('reason', 'unspecified server error')}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(reply.meta.get("result", {}), indent=2, sort_keys=True))
    return 0


def _add_log_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--log-level", default="info", dest="log_level",
        choices=["debug", "info", "warning", "error"],
        help="verbosity of the 'repro' logger tree (debug logs every "
             "finished span when tracing is on)",
    )
    parser.add_argument(
        "--log-json", action="store_true", dest="log_json",
        help="emit log records as JSON lines (one object per line; span "
             "records carry the full span payload)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Cheetah (HPCA 2021) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the evaluation model zoo")

    tune = sub.add_parser("tune", help="per-layer HE-PTune parameters")
    tune.add_argument("model", choices=sorted(MODEL_BUILDERS))

    speedups = sub.add_parser("speedups", help="Figure 6 comparison")
    speedups.add_argument("models", nargs="*")

    accelerate = sub.add_parser("accelerate", help="full Cheetah flow")
    accelerate.add_argument("model", choices=sorted(MODEL_BUILDERS))
    accelerate.add_argument("--target-ms", type=float, default=100.0)

    report = sub.add_parser("report", help="export experiment results as JSON")
    report.add_argument("--out", default="cheetah_results.json")
    report.add_argument("models", nargs="*")

    params = sub.add_parser("params", help="inspect a BFV parameter set")
    params.add_argument("n", type=int)
    params.add_argument("plain_bits", type=int)
    params.add_argument("coeff_bits", type=int)

    compile_ = sub.add_parser(
        "compile",
        help="compile a model ahead of time into a .rpa artifact",
    )
    compile_.add_argument(
        "model", choices=["demo"],
        help="deployment to compile (the live-HE demo CNN)",
    )
    compile_.add_argument(
        "-o", "--out", default="demo.rpa", help="artifact output path"
    )
    compile_.add_argument(
        "--name", default="demo", help="model name to register the artifact under"
    )
    compile_.add_argument("--n", type=int, default=4096, help="ring dimension")
    compile_.add_argument(
        "--schedule", choices=["ia", "pa"], default="ia",
        help="dot-product schedule to compile the plans with",
    )
    compile_.add_argument(
        "--seed", type=int, default=0, help="synthetic-weight seed"
    )
    compile_.add_argument(
        "--manifest", action="store_true",
        help="also add/refresh the artifact's entry in the directory's "
             "manifest.json (the zoo deployment record)",
    )
    compile_.add_argument(
        "--tune", action="store_true",
        help="stamp HE-PTune per-layer tuned parameters into the artifact",
    )

    serve = sub.add_parser("serve", help="run the private-inference server")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7707)
    serve.add_argument("--n", type=int, default=4096, help="ring dimension")
    serve.add_argument(
        "--schedule", choices=["ia", "pa"], default="ia",
        help="dot-product schedule for the compiled plans",
    )
    serve.add_argument(
        "--artifacts", default=None, metavar="DIR",
        help="warm-start from a directory of compiled .rpa artifacts "
             "instead of compiling at startup",
    )
    serve.add_argument("--max-batch", type=int, default=8, dest="max_batch")
    serve.add_argument(
        "--workers", type=int, default=0,
        help="shard worker processes executing plan layers "
             "(0 = run plans in the server process)",
    )
    serve.add_argument(
        "--remote-workers", default="", dest="remote_workers",
        metavar="HOST:PORT,...",
        help="comma-separated 'repro shard-worker' endpoints to add to "
             "the shard pool (may be combined with local --workers)",
    )
    serve.add_argument(
        "--threads", type=int, default=16,
        help="engine thread budget: the gateway's executor threads "
             "(connections are unbounded)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=3, dest="max_attempts",
        help="attempts per shard task before the engine degrades the "
             "layer call to in-process execution",
    )
    serve.add_argument(
        "--request-deadline-s", type=float, default=0.0,
        dest="request_deadline_s",
        help="soft per-round deadline in seconds (0 = no deadline); a "
             "shard backend that cannot meet it degrades to in-process "
             "execution",
    )
    serve.add_argument(
        "--session-ttl-s", type=float, default=0.0, dest="session_ttl_s",
        help="evict sessions idle longer than this (seconds), reclaiming "
             "their Galois keys and traffic logs (0 = LRU eviction only)",
    )
    serve.add_argument(
        "--quota-rps", type=float, default=0.0, dest="quota_rps",
        help="per-tenant sustained linear-rounds/sec quota (0 = unlimited); "
             "a tenant over quota gets BUSY replies with a retry hint",
    )
    serve.add_argument(
        "--quota-burst", type=float, default=0.0, dest="quota_burst",
        help="per-tenant token-bucket burst capacity (0 = 2x --quota-rps)",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=0, dest="max_queue_depth",
        help="bound on linear rounds in flight across all tenants "
             "(0 = unbounded); excess load gets BUSY replies",
    )
    serve.add_argument(
        "--stats-interval", type=float, default=0.0, dest="stats_interval",
        help="print the metrics snapshot as JSON every N seconds (0 = off)",
    )
    serve.add_argument(
        "--max-frame-mb", type=float, default=0.0, dest="max_frame_mb",
        help="request-frame size cap in MiB, enforced from the length "
             "prefix before any buffering (0 = the 1 GiB wire default)",
    )
    serve.add_argument(
        "--trace", action="store_true",
        help="enable end-to-end request tracing (spans across front end, "
             "batcher, executor, and shard workers; per-stage latency "
             "histograms fold into /metrics)",
    )
    serve.add_argument(
        "--trace-dir", default="", dest="trace_dir", metavar="DIR",
        help="write each finished trace as Chrome trace_event JSON into "
             "DIR (implies --trace; open in Perfetto / chrome://tracing, "
             "or inspect with 'repro trace DIR')",
    )
    serve.add_argument(
        "--trace-retention", type=int, default=64, dest="trace_retention",
        help="trace files kept in --trace-dir before the oldest are "
             "pruned (bounded ring, default 64)",
    )
    serve.add_argument(
        "--admin-token", default="", dest="admin_token",
        help="shared secret enabling the 'repro admin' control plane "
             "(reload-zoo, drain-worker, evict-session, ...); defaults "
             "to $REPRO_ADMIN_TOKEN, empty disables admin entirely",
    )
    _add_log_flags(serve)

    shard_worker = sub.add_parser(
        "shard-worker",
        help="run a standalone remote shard worker serving plan layers",
    )
    shard_worker.add_argument(
        "--artifacts", required=True, metavar="DIR",
        help="directory of compiled .rpa artifacts to memmap (must match "
             "the coordinator's artifact set)",
    )
    shard_worker.add_argument("--host", default="127.0.0.1")
    shard_worker.add_argument(
        "--port", type=int, default=7917,
        help="port to listen on (0 picks a free port)",
    )
    _add_log_flags(shard_worker)

    trace = sub.add_parser(
        "trace",
        help="inspect Chrome trace_event files written by serve --trace-dir",
    )
    trace.add_argument(
        "dir", help="trace directory (the serve process's --trace-dir)"
    )
    trace.add_argument(
        "--tree", action="store_true",
        help="print the span tree of the newest trace",
    )
    trace.add_argument(
        "--check", action="store_true",
        help="validate every file (non-empty, complete 'X' events) and "
             "print leaf he_ops sums; exit 1 on any invalid/missing trace",
    )
    trace.add_argument(
        "--merge", default="", metavar="OUT",
        help="concatenate all valid traces into one trace_event JSON "
             "(per-trace timelines stay disjoint; handy for Perfetto)",
    )

    infer = sub.add_parser("infer", help="run private inference against a server")
    infer.add_argument("--host", default="127.0.0.1")
    infer.add_argument("--port", type=int, default=7707)
    infer.add_argument("--n", type=int, default=4096, help="ring dimension")
    infer.add_argument("--count", type=int, default=1)
    infer.add_argument("--seed", type=int, default=0)
    infer.add_argument(
        "--model", default="demo", help="served model name to connect to"
    )
    infer.add_argument(
        "--weights-seed", type=int, default=0, dest="weights_seed",
        help="synthetic-weight seed of the served model (for the local "
             "plaintext check)",
    )
    infer.add_argument(
        "--noise", action="store_true", help="report the received noise budget"
    )
    infer.add_argument(
        "--tenant", default="default",
        help="tenant label for the server's per-tenant rate limits",
    )

    admin = sub.add_parser(
        "admin",
        help="operator actions against a server started with --admin-token",
    )
    admin.add_argument(
        "action",
        choices=[
            "status", "reload-zoo", "drain-worker", "evict-session",
            "drain-tenant",
        ],
        help="status: health/zoo/pool summary; reload-zoo: swap in the "
             "new zoo generation and rolling-upgrade the shard pool; "
             "drain-worker: take one worker out of dispatch; "
             "evict-session / drain-tenant: force session eviction",
    )
    admin.add_argument("--host", default="127.0.0.1")
    admin.add_argument("--port", type=int, default=7707)
    admin.add_argument(
        "--token", default="",
        help="admin shared secret (defaults to $REPRO_ADMIN_TOKEN)",
    )
    admin.add_argument(
        "--timeout-s", type=float, default=120.0, dest="timeout_s",
        help="reply timeout in seconds (a rolling upgrade drains workers "
             "one at a time, so reload-zoo replies can take a while)",
    )
    admin.add_argument(
        "--directory", default="", metavar="DIR",
        help="reload-zoo: zoo directory to load (default: the directory "
             "the server already serves, re-read for a new generation)",
    )
    admin.add_argument(
        "--no-rolling", action="store_true", dest="no_rolling",
        help="reload-zoo: swap the registry only; skip the shard-pool "
             "rolling upgrade",
    )
    admin.add_argument(
        "--worker", type=int, default=None,
        help="drain-worker: shard worker id",
    )
    admin.add_argument(
        "--resume", action="store_true",
        help="drain-worker: put the worker back into dispatch instead",
    )
    admin.add_argument(
        "--wait-s", type=float, default=30.0, dest="wait_s",
        help="drain-worker: seconds to wait for in-flight tasks",
    )
    admin.add_argument(
        "--session", default="", help="evict-session: session id"
    )
    admin.add_argument(
        "--tenant", default="", help="drain-tenant: tenant name"
    )

    return parser


_COMMANDS = {
    "models": _cmd_models,
    "report": _cmd_report,
    "tune": _cmd_tune,
    "speedups": _cmd_speedups,
    "accelerate": _cmd_accelerate,
    "params": _cmd_params,
    "compile": _cmd_compile,
    "serve": _cmd_serve,
    "shard-worker": _cmd_shard_worker,
    "trace": _cmd_trace,
    "infer": _cmd_infer,
    "admin": _cmd_admin,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
