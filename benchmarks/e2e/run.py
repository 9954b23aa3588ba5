#!/usr/bin/env python3
"""The end-to-end benchmark: one command, every metric by name.

``python benchmarks/e2e/run.py`` runs every workload of ``BENCHMARK.json``
in a fresh subprocess, untraced and then traced, checks every reply
against the plaintext runner, prints every metric with its unit and
writes a stamped result file for ``compare.py``.

``--workload NAME --seed N --seconds S --trace 0|1`` runs one workload
in this process and prints, as the last line of standard output, the
JSON object the benchmark driver reads.  ``--check`` validates
``BENCHMARK.json`` against the names this harness emits; ``--smoke``
runs everything once with tiny counts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC_PATH = REPO / "BENCHMARK.json"

sys.path.insert(0, str(HERE))
if (REPO / "src" / "repro").is_dir():
    sys.path.insert(0, str(REPO / "src"))
try:
    import spans
    import workloads
except ImportError as exc:
    raise SystemExit(f"benchmarks/e2e needs the repro package under src/: {exc}")

END_TO_END = (
    "setup_s",
    "infer_latency_p50_ms",
    "infer_latency_p90_ms",
    "throughput_rps",
    "cpu_ms_per_inference",
    "wire_bytes_per_inference",
    "peak_rss_mb",
)

PER_LAYER = (
    "session.encrypt_ms", "session.decrypt_ms", "session.gc_ms",
    "session.connect_ms", "session.busy_retries",
    "serialize.ct_encode_ms", "serialize.ct_decode_ms", "serialize.ct_calls",
    "serialize.ct_bytes", "serialize.galois_encode_ms",
    "serialize.galois_decode_ms", "serialize.galois_bytes",
    "wire.encode_ms", "wire.decode_ms", "wire.frames",
    "transport.overhead_ms", "gateway.start_s",
    "engine.handle_ms", "engine.wait_ms", "engine.batch_size_mean",
    "engine.degraded_calls", "engine.backend_failures",
    "plan.execute_ms", "plan.conv_ms", "plan.fc_ms",
    "scheme.hoist_ms", "scheme.rotate_ms", "scheme.mul_ms", "scheme.add_ms",
    "protocol.blind_ms",
    "ntt.forward_ms", "ntt.inverse_ms", "ntt.pointwise_ms", "ntt.share",
    "ops.ntt", "ops.he_rotate", "ops.he_mult", "ops.he_add", "ops.int_mults",
    "shards.execute_ms", "shards.overhead_ms", "shards.pickled_bytes_per_task",
    "shards.slab_bytes_per_task", "shards.tasks_per_inference",
    "shards.respawns", "shards.pool_start_s",
    "artifacts.save_s", "artifacts.load_s", "registry.compile_s",
    "trace.reconciliation_pct", "trace.overhead_pct",
)

#: Share of a traced run's ``--seconds`` spent untraced (the control for
#: ``trace.overhead_pct``) and, on a sharded workload, in process (the
#: control for ``shards.overhead_ms``); the rest is traced.
UNTRACED_SHARE = 0.25
IN_PROCESS_SHARE = 0.2

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Timed segments per untraced run.  Each timing metric is the median
#: over the segments, so a stall of the host (seconds long, on this VM)
#: spoils one segment and not the run's p90.
SEGMENTS = 4


# -- one workload, in this process -----------------------------------------


@dataclass
class Measured:
    #: The timed segments; a traced run has one.
    windows: list
    parts: dict
    setup_s: list
    peak_rss_mb: float
    #: One line per leak or count mismatch.
    problems: list

    @property
    def window(self) -> workloads.Window:
        return self.windows[-1]

    @property
    def inferences(self) -> int:
        return sum(len(window.inferences) for window in self.windows)

    @property
    def failures(self) -> list:
        return [line for window in self.windows for line in window.failures]

    @property
    def p50_ms(self) -> float:
        return workloads.percentile(self.window.latencies_ms(), 50)


def measure(workload, seed, oracle, *, seconds=None, count=None, setups=1,
            segments=1, warmup=workloads.WARMUP_INFERENCES,
            sharded=None) -> Measured:
    """Time ``segments`` windows, then set the workload up again for ``setup_s``.

    The windows run on the first set-up: the allocator does not return
    what repeated set-ups free, so peak RSS after them varies by 10 %.
    """
    stack = workloads.Stack(workload, seed, sharded=sharded, warmup=warmup)
    setup_s, windows = [stack.setup_s], []
    try:
        for _ in range(segments):
            window = stack.drive(
                seconds=None if seconds is None else seconds / segments,
                count=count,
            )
            window.failures = oracle.failures(stack, window)
            windows.append(window)
        peak_rss_mb = stack.peak_rss_mb()
    finally:
        problems = stack.close()
    for _ in range(setups - 1):
        again = workloads.Stack(workload, seed, sharded=sharded, warmup=warmup)
        setup_s.append(again.setup_s)
        problems += again.close()
    for window in windows:
        if not window.failures:
            problems += workloads.ops_problems(workload, window)
    return Measured(windows, stack.parts, setup_s, peak_rss_mb, problems)


def run_untraced(workload, seed, oracle, *, seconds=None, count=None,
                 setups=SETUPS, segments=SEGMENTS,
                 warmup=workloads.WARMUP_INFERENCES):
    run = measure(workload, seed, oracle, seconds=seconds, count=count,
                  setups=setups, segments=segments, warmup=warmup)
    return [run], workloads.end_to_end(run.windows, run.setup_s, run.peak_rss_mb)


def run_traced(workload, seed, oracle, *, seconds=None, count=None,
               warmup=workloads.WARMUP_INFERENCES, out_dir=None, control=None):
    """Untraced control, then the same workload with wrappers installed.

    ``control`` is an untraced run already made that serves as the control.
    """
    if seconds is None:
        control_s = local_s = main_s = None
    else:
        control_s = seconds * UNTRACED_SHARE
        local_s = seconds * IN_PROCESS_SHARE if workload.sharded else 0.0
        main_s = seconds - control_s - local_s
    runs = []
    if control is None:
        control = measure(workload, seed, oracle, seconds=control_s,
                          count=count, warmup=warmup)
        runs.append(control)
    recorder = spans.Recorder(workloads.OUT_DIR / f"spans-{os.getpid()}")
    local = None
    with spans.installed(recorder):
        if workload.sharded:
            local = measure(workload, seed, oracle, seconds=local_s,
                            count=count, warmup=warmup, sharded=False)
            runs.append(local)
        run = measure(workload, seed, oracle, seconds=main_s, count=count,
                      warmup=warmup)
        runs.append(run)
        recorder.collect_workers()
    recorder.adopt_orphans()
    if recorder.worker_dir.is_dir():
        recorder.worker_dir.rmdir()
    analysis = spans.Analysis(recorder.spans, run.window.start, run.window.end)
    local_analysis = None if local is None else spans.Analysis(
        recorder.spans, local.window.start, local.window.end
    )
    metrics = per_layer(workload, run, analysis, control, local_analysis,
                        recorder.spans)
    print(analysis.stage_table())
    print(analysis.fig7_table())
    if workload.sharded:
        print(
            f"shards.overhead_ms {metrics['shards.overhead_ms']:.3f} ms per "
            f"layer call over LocalExecutor.execute (same layer, same batch)"
        )
    if out_dir is not None:
        path = Path(out_dir) / f"trace_{workload.name}.json"
        spans.write_chrome_trace(recorder.spans, path)
        print(f"wrote {path}")
    return runs, metrics


def shard_overhead_ms(analysis, local_analysis) -> float:
    """Median ``ShardExecutor.execute`` over median ``LocalExecutor.execute``.

    Calls are matched by (layer, batch size) and the differences weighted
    by how often the sharded run made each kind of call.
    """
    if local_analysis is None:
        return 0.0
    sharded = analysis.durations("shards.execute")
    local = local_analysis.durations("plan.execute")
    calls = extra = 0.0
    for key, durations in sharded.items():
        if key in local:
            calls += len(durations)
            extra += len(durations) * (
                statistics.median(durations) - statistics.median(local[key])
            )
    return extra / calls * 1e3 if calls else 0.0


def per_layer(workload, run, analysis, control, local_analysis, all_spans):
    """The per-layer metrics of one traced window."""
    window, counts = run.window, run.window.counts
    n = max(1, len(window.inferences))

    def total_ms(name):
        return analysis.total_s[name] / n * 1e3

    def self_ms(name):
        return analysis.self_s[name] / n * 1e3

    def kernel_ms(kernel):
        return analysis.kernel_s[kernel] / n * 1e3

    def setup_mean(name, of):
        """Mean of ``of(span)`` over the set-up calls before the window."""
        found = [of(s) for s in all_spans if s.name == name and s.start < window.start]
        return statistics.fmean(found) if found else 0.0

    def span_ms(span):
        return (span.end - span.start) * 1e3

    shard_calls = analysis.calls["shards.execute"]
    tasks = counts["tasks"]
    return {
        "session.encrypt_ms": total_ms("session.encrypt"),
        "session.decrypt_ms": total_ms("session.decrypt"),
        "session.gc_ms": total_ms("session.gc"),
        "session.connect_ms":
            run.parts["session.connect_s"] / workload.clients * 1e3,
        "session.busy_retries": sum(i.busy_retries for i in window.inferences) / n,
        "serialize.ct_encode_ms": total_ms("serialize.ct_encode"),
        "serialize.ct_decode_ms": total_ms("serialize.ct_decode"),
        "serialize.ct_calls": (
            analysis.calls["serialize.ct_encode"]
            + analysis.calls["serialize.ct_decode"]
        ) / n,
        "serialize.ct_bytes": (
            analysis.values["serialize.ct_encode"]
            + analysis.values["serialize.ct_decode"]
        ) / n,
        "serialize.galois_encode_ms": setup_mean("serialize.galois_encode", span_ms),
        "serialize.galois_decode_ms": setup_mean("serialize.galois_decode", span_ms),
        "serialize.galois_bytes":
            setup_mean("serialize.galois_encode", lambda span: span.value),
        "wire.encode_ms": total_ms("wire.encode"),
        "wire.decode_ms": total_ms("wire.decode"),
        "wire.frames": analysis.calls["wire.encode"] / n,
        "transport.overhead_ms":
            analysis.uncovered_s("transport.request", "engine.handle") / n * 1e3,
        "gateway.start_s": run.parts.get("gateway.start_s", 0.0),
        "engine.handle_ms": total_ms("engine.handle"),
        "engine.wait_ms": self_ms("engine.handle"),
        "engine.batch_size_mean":
            counts["batched_requests"] / counts["batches"] if counts["batches"] else 0.0,
        "engine.degraded_calls": counts["degraded_calls"],
        "engine.backend_failures": counts["backend_failures"],
        "plan.execute_ms": total_ms("plan.execute"),
        "plan.conv_ms": total_ms("plan.conv"),
        "plan.fc_ms": total_ms("plan.fc"),
        "scheme.hoist_ms": kernel_ms("Hoist"),
        "scheme.rotate_ms": kernel_ms("Rotate"),
        "scheme.mul_ms": kernel_ms("Mult"),
        "scheme.add_ms": kernel_ms("Add"),
        "protocol.blind_ms": total_ms("protocol.blind"),
        "ntt.forward_ms": self_ms("ntt.forward"),
        "ntt.inverse_ms": self_ms("ntt.inverse"),
        "ntt.pointwise_ms": self_ms("ntt.pointwise"),
        "ntt.share":
            analysis.kernel_s["NTT"] / analysis.wall_s if analysis.wall_s else 0.0,
        **{key: counts[key] / n for key in counts if key.startswith("ops.")},
        "shards.execute_ms":
            analysis.total_s["shards.execute"] / shard_calls * 1e3
            if shard_calls else 0.0,
        "shards.overhead_ms": shard_overhead_ms(analysis, local_analysis),
        "shards.pickled_bytes_per_task":
            counts["pickled_bytes"] / tasks if tasks else 0.0,
        "shards.slab_bytes_per_task": counts["slab_bytes"] / tasks if tasks else 0.0,
        "shards.tasks_per_inference": tasks / n,
        "shards.respawns": counts["respawns"],
        "shards.pool_start_s": run.parts.get("shards.pool_start_s", 0.0),
        "artifacts.save_s": run.parts.get("artifacts.save_s", 0.0),
        "artifacts.load_s": run.parts.get("artifacts.load_s", 0.0),
        "registry.compile_s": run.parts["registry.compile_s"],
        "trace.reconciliation_pct": analysis.reconciliation_pct,
        "trace.overhead_pct":
            100.0 * (run.p50_ms - control.p50_ms) / control.p50_ms
            if control.p50_ms else 0.0,
    }


def units_of(spec) -> dict:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_workload(args, spec) -> int:
    """Driver mode: one workload, one JSON object on the last line."""
    workload = workloads.WORKLOADS[args.workload]
    oracle = workloads.Oracle()
    names = PER_LAYER if args.trace else END_TO_END
    print(
        f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
        f"trace {args.trace} ntt_path {workloads.ntt_path()}"
    )
    if args.trace:
        runs, metrics = run_traced(workload, args.seed, oracle,
                                   seconds=args.seconds, out_dir=args.out)
    else:
        runs, metrics = run_untraced(workload, args.seed, oracle,
                                     seconds=args.seconds)
    report(workload, runs, metrics, names, units_of(spec))
    return 0


def report(workload, runs, metrics, names, units) -> dict:
    """Print every metric by name and the driver's JSON line; returns it."""
    if set(metrics) != set(names):
        raise RuntimeError(
            f"emitted metrics differ from the declared names: "
            f"{sorted(set(metrics) ^ set(names))}"
        )
    attempted = sum(run.inferences for run in runs)
    failures = [line for run in runs for line in run.failures]
    problems = [line for run in runs for line in run.problems]
    for line in failures + problems:
        print(f"FAILED {workload.name}: {line}")
    reference_s = [s for run in runs for w in run.windows for s in w.reference_s]
    if reference_s and names is END_TO_END:
        print(
            f"  host reference kernel: median "
            f"{statistics.median(reference_s) * 1e3:.4f} ms here, nominal "
            f"{workloads.HostReference.NOMINAL_S * 1e3:.4f} ms; the timings "
            f"below are scaled to nominal, segment by segment"
        )
    for name in names:
        print(f"  {name:<32}{metrics[name]:>18.6f} {units[name]}")
    print(
        f"  {'failed_share':<32}{len(failures) / max(1, attempted):>18.6f} "
        f"fraction ({len(failures)} of {attempted} inferences; "
        f"{len(runs[-1].window.latencies_ms())} latency samples per segment)"
    )
    finite = all(math.isfinite(value) for value in metrics.values())
    result = {
        "correct": bool(attempted and finite and not failures and not problems),
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in names
        },
    }
    print(json.dumps(result))
    return result


# -- every workload, each in a fresh subprocess ------------------------------


def write_results(out_dir: Path, seed: int, seconds: float, results: dict) -> None:
    path = out_dir / "results.json"
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(
        {"stamp": host_stamp(seed, seconds), "workloads": results}, indent=1
    ) + "\n")
    print(f"wrote {path}")


def host_stamp(seed: int, seconds: float) -> dict:
    """What two result files must share before their numbers compare."""

    def git(*cmd):
        try:
            done = subprocess.run(["git", *cmd], cwd=REPO, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    status = git("status", "--porcelain")
    return {
        "cpu_count": os.cpu_count(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "ntt_path": workloads.ntt_path(),
        "run_seconds": seconds,
        "seed": seed,
        "commit": git("rev-parse", "HEAD") or "unknown",
        "dirty": None if status is None else bool(status),
        "recorded": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_all(args, spec) -> int:
    """Full mode: ``--repeat`` runs of every workload, untraced and traced."""
    out_dir = Path(args.out) if args.out else workloads.OUT_DIR
    names = [w["name"] for w in spec["workloads"]]
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = {
        name: {"attempted": [], "failed": [], "correct": [],
               "end_to_end": {}, "per_layer": {}}
        for name in names
    }
    broken = 0
    for repeat in range(args.repeat):
        for name in names:
            for trace in traces:
                cmd = [
                    sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(args.seed + repeat),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                    "--out", str(out_dir),
                ]
                done = subprocess.run(cmd, capture_output=True, text=True,
                                      timeout=900)
                sys.stdout.write(done.stdout)
                try:
                    if done.returncode:
                        raise ValueError(f"exit code {done.returncode}")
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                except (ValueError, IndexError) as exc:
                    # A workload that cannot run fails alone.
                    sys.stdout.write(done.stderr)
                    print(f"FAILED {name} trace {trace}: no result ({exc})")
                    results[name]["correct"].append(False)
                    broken += 1
                    continue
                record = results[name]
                record["correct"].append(result["correct"])
                broken += not result["correct"]
                if not trace:
                    record["attempted"].append(result["attempted"])
                    record["failed"].append(result["failed"])
                kind = record["per_layer" if trace else "end_to_end"]
                for metric, entry in result["metrics"].items():
                    kind.setdefault(metric, []).append(entry["value"])
    write_results(out_dir, args.seed, args.seconds, results)
    return 1 if broken else 0


def run_smoke(args, spec) -> int:
    """Every workload once with tiny counts, in this process."""
    oracle = workloads.Oracle()
    units = units_of(spec)
    results, broken = {}, 0
    for name, workload in workloads.WORKLOADS.items():
        tiny = dict(count=2, warmup=1)
        runs, e2e = run_untraced(workload, args.seed, oracle, setups=1,
                                 segments=1, **tiny)
        print(f"workload {name} (smoke) end_to_end")
        first = report(workload, runs, e2e, END_TO_END, units)
        runs, layers = run_traced(workload, args.seed, oracle, **tiny,
                                  control=runs[0])
        print(f"workload {name} (smoke) per_layer")
        second = report(workload, runs, layers, PER_LAYER, units)
        broken += not (first["correct"] and second["correct"])
        results[name] = {
            "attempted": [first["attempted"]],
            "failed": [first["failed"]],
            "correct": [first["correct"], second["correct"]],
            "end_to_end": {k: [v] for k, v in e2e.items()},
            "per_layer": {k: [v] for k, v in layers.items()},
        }
    if args.out:
        write_results(Path(args.out), args.seed, 0, results)
    return 1 if broken else 0


# -- BENCHMARK.json against the harness -------------------------------------


def check(spec) -> int:
    """``BENCHMARK.json`` lists exactly what this harness emits."""
    problems = []

    def same(kind, listed, emitted):
        for name in sorted(set(listed) - set(emitted)):
            problems.append(f"{kind} {name!r} is listed but never printed")
        for name in sorted(set(emitted) - set(listed)):
            problems.append(f"{kind} {name!r} is printed but not listed")
        if len(listed) != len(set(listed)):
            problems.append(f"{kind} names repeat")

    same("workload", [w["name"] for w in spec["workloads"]], workloads.WORKLOADS)
    same("end_to_end metric", [m["name"] for m in spec["end_to_end"]], END_TO_END)
    same("per_layer metric", [m["name"] for m in spec["per_layer"]], PER_LAYER)
    for key, limit in (("workloads", 8), ("end_to_end", 16), ("per_layer", 128)):
        if len(spec[key]) > limit:
            problems.append(f"{len(spec[key])} {key}, at most {limit} allowed")
    for metric in spec["end_to_end"]:
        if not 0 <= metric["bound"] <= 0.25:
            problems.append(f"bound of {metric['name']!r} outside [0, 0.25]")
    if "setup_s" not in [m["name"] for m in spec["end_to_end"]]:
        problems.append("end_to_end has no setup_s")
    if spec["paths"] != [HERE.relative_to(REPO).as_posix()]:
        problems.append(f"paths {spec['paths']} is not this directory")
    for line in problems:
        print(f"BENCHMARK.json: {line}")
    if not problems:
        print(
            f"BENCHMARK.json matches the harness: {len(spec['workloads'])} "
            f"workloads, {len(END_TO_END)} end-to-end and {len(PER_LAYER)} "
            f"per-layer metrics"
        )
    return 1 if problems else 0


def main(argv=None) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="length of one measured run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        help="1: per-layer metrics from a traced run; "
                             "0: end-to-end metrics, nothing installed")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full mode: runs per workload (seed, seed+1, ...)")
    parser.add_argument("--out", help="directory for result and trace files")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.check:
        return check(spec)
    if args.smoke:
        return run_smoke(args, spec)
    if args.workload:
        args.trace = args.trace or 0
        return run_workload(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
