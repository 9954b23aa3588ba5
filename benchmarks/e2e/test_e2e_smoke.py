"""Smoke test of the end-to-end benchmark harness (tier-1, a few seconds).

Runs ``run.py --smoke`` -- every workload once with tiny counts, untraced
and traced -- and checks that the harness emits exactly the metric names
``BENCHMARK.json`` lists, each with a finite value, and that ``compare.py``
finds no breach between a result file and itself.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(script: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_benchmark_json_matches_the_harness():
    done = _run("run.py", "--check")
    assert done.returncode == 0, done.stdout + done.stderr


def test_smoke_emits_every_listed_metric(tmp_path):
    done = _run("run.py", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert set(results["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for workload, record in results["workloads"].items():
        assert all(record["correct"]), workload
        assert record["failed"] == [0], workload
        for kind in ("end_to_end", "per_layer"):
            listed = {m["name"] for m in SPEC[kind]}
            assert set(record[kind]) == listed, (workload, kind)
            for name, values in record[kind].items():
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
                assert all(math.isfinite(v) for v in values), (workload, name)

    same = _run("compare.py", str(tmp_path / "results.json"),
                str(tmp_path / "results.json"))
    assert same.returncode == 0, same.stdout + same.stderr
    assert "0 breach(es)" in same.stdout
