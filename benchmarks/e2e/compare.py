#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the baseline, B the candidate.  One row per (metric, workload): the
medians, how much B is worse than A as a share of A, and the metric's
``bound`` from ``BENCHMARK.json``.  A row is ``BREACH`` when B is worse
by more than the bound, ``unresolved`` when the run-to-run spread of
either side (interquartile range over median, known from three repeats
on) exceeds the bound, and ``ok`` otherwise.  Count metrics must agree
exactly.  Exits non-zero on any breach, and refuses to compare runs
whose host stamps differ.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Stamp fields two runs must share for their numbers to be comparable.
HOST_FIELDS = ("cpu_count", "kernel", "python", "numpy", "ntt_path",
               "run_seconds", "seed")

#: Per-layer counts that repeat exactly, and where: ``ops.*`` only where
#: one thread updates the (unsynchronised) counters, ``wire.frames`` only
#: where batch fill does not decide how many fabric frames a layer takes.
SERIAL = ("serial_ia", "serial_pa")
EXACT = {
    "serialize.ct_calls": SERIAL + ("tcp_batched", "shard_shm"),
    "wire.frames": SERIAL + ("tcp_batched",),
    **{f"ops.{op}": SERIAL
       for op in ("ntt", "he_rotate", "he_mult", "he_add", "int_mults")},
}


def spread(values: list[float]) -> float | None:
    """Interquartile range as a share of the median; None below 3 values."""
    if len(values) < 3:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def worsening(metric: dict, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if metric["better"] == "lower" else -change


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    rows = [
        f"{'workload':<13}{'metric':<28}{'A median':>15}{'B median':>15}"
        f"{'worse %':>9}{'bound %':>9}{'spread %':>10}  verdict"
    ]
    breaches = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        wa, wb = a["workloads"].get(workload), b["workloads"].get(workload)
        if wa is None or wb is None:
            rows.append(f"{workload:<13}missing from one file  BREACH")
            breaches += 1
            continue
        if not all(wa["correct"]) or not all(wb["correct"]):
            rows.append(f"{workload:<13}a run reported failures  BREACH")
            breaches += 1
        for metric in spec["end_to_end"]:
            va = wa["end_to_end"].get(metric["name"])
            vb = wb["end_to_end"].get(metric["name"])
            if not va or not vb:
                rows.append(f"{workload:<13}{metric['name']:<28}no values  BREACH")
                breaches += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = worsening(metric, ma, mb)
            spreads = [s for s in (spread(va), spread(vb)) if s is not None]
            widest = max(spreads) if spreads else None
            if widest is not None and widest > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "BREACH"
                breaches += 1
            else:
                verdict = "ok"
            shown = "n/a" if widest is None else f"{100 * widest:.2f}"
            rows.append(
                f"{workload:<13}{metric['name']:<28}{ma:>15.4f}{mb:>15.4f}"
                f"{100 * worse:>9.2f}{100 * metric['bound']:>9.1f}{shown:>10}"
                f"  {verdict}"
            )
        for name in (n for n, where in EXACT.items() if workload in where):
            va, vb = wa["per_layer"].get(name, []), wb["per_layer"].get(name, [])
            if set(va) != set(vb) or len(set(va)) != 1:
                rows.append(
                    f"{workload:<13}{name:<28}count differs: {sorted(set(va))} "
                    f"against {sorted(set(vb))}  BREACH"
                )
                breaches += 1
    return rows, breaches


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    differ = [
        f"{field}: {a['stamp'].get(field)!r} against {b['stamp'].get(field)!r}"
        for field in HOST_FIELDS
        if a["stamp"].get(field) != b["stamp"].get(field)
    ]
    if differ:
        print("refusing to compare: the host stamps differ")
        for line in differ:
            print(f"  {line}")
        return 2
    for label, data in (("A", a), ("B", b)):
        stamp = data["stamp"]
        print(f"{label}: commit {stamp.get('commit')} dirty {stamp.get('dirty')} "
              f"recorded {stamp.get('recorded')}")
    rows, breaches = compare(a, b, json.loads(SPEC_PATH.read_text()))
    print("\n".join(rows))
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
