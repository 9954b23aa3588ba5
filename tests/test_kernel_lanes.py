"""The kernel's lanes: split calls give the kernel-off bytes, under threads and fork.

Large calls of ``ntt_forward`` / ``ntt_inverse``, ``mac_weights``,
``keyswitch_rotate`` and ``rns_digit_split`` split across one persistent
helper team inside ``_ntt_kernel.c``, one lane per CPU of the process's
affinity mask.  Every call below is above its entry point's inline minimum
(the ``*_SPLIT_MIN`` constants in the C file), so it splits whenever the
team is free; a call that finds the team owned by another thread runs
inline.  Skipped where the process has one lane (or no kernel): no team
runs there.  ``TestOneLane`` checks that case from a pinned subprocess.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.bfv import native
from repro.bfv.modmath import generate_ntt_primes
from repro.bfv.ntt_batch import RnsNttEngine
from repro.bfv.polynomial import eval_domain_galois_map

LANES = native.kernel_status()["lanes"]
pytestmark = pytest.mark.skipif(
    not LANES or LANES == 1, reason="one lane (or no kernel): no helper team runs"
)

N, K, BASE_BITS, DIGITS = 2048, 4, 16, 7
MODULI = generate_ntt_primes(25, N, K)
#: Seconds a forked child or a subprocess gets before the test fails.
DEADLINE_S = 60


def split_inputs() -> dict:
    """Operands of one call per split entry point, each above its minimum."""
    rng = np.random.default_rng(37)

    def residues(*tail):
        return np.stack([rng.integers(0, p, tail, dtype=np.int64) for p in MODULI])

    return {
        # k B n = 32,768 residues per transform; 16,384 per digit split
        "coeff": residues(4, N),
        # k B O T n = 196,608 weight products
        "c0": residues(2, 4, N), "c1": residues(2, 4, N), "weights": residues(3, 4, N),
        # 4 jobs x k T n = 229,376 key products, two members under two maps
        "digits": residues(2, DIGITS, N), "members": residues(2, N),
        "keys": [
            residues(2, DIGITS, N).transpose(1, 0, 2, 3).astype(np.uint32, order="C")
            for _ in range(2)
        ],
        "maps": np.stack([eval_domain_galois_map(N, g) for g in (3, 5)]),
    }


def split_outputs(engine: RnsNttEngine, x: dict) -> dict[str, np.ndarray]:
    """Every split entry point once, through the engine's public methods."""
    out = np.zeros((2, K, 2, 2, N), dtype=np.int64)
    jobs = [(b, m, x["keys"][m], 2 * b + m) for b in range(2) for m in range(2)]
    engine.keyswitch_rotate(x["digits"], x["members"], x["maps"], jobs, out, count_ops=False)
    return {
        "forward": engine.forward(x["coeff"], count_ops=False, reduced=True),
        "inverse": engine.inverse(x["coeff"], count_ops=False, reduced=True),
        "weights": engine.weight_accumulate(x["c0"], x["c1"], x["weights"], count_ops=False),
        "keyswitch": out,
        "digits": engine.digit_residues(x["coeff"][:, :2], BASE_BITS, DIGITS),
        "digits_galois": engine.digit_residues(x["coeff"][:, :2], BASE_BITS, DIGITS, 5),
    }


def digest(outputs: dict[str, np.ndarray]) -> str:
    sha = hashlib.sha256()
    for name in sorted(outputs):
        sha.update(name.encode() + np.ascontiguousarray(outputs[name]).tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def inputs():
    return split_inputs()


@pytest.fixture(scope="module")
def engine():
    return RnsNttEngine(N, MODULI)


@pytest.fixture(scope="module")
def reference(inputs):
    return split_outputs(RnsNttEngine(N, MODULI, use_native=False), inputs)


def assert_same_bytes(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype and got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


class TestSplitCalls:
    def test_every_split_entry_point_equals_the_kernel_off_reference(
        self, engine, inputs, reference
    ):
        assert_same_bytes(split_outputs(engine, inputs), reference)

    def test_repeated_calls_give_the_same_bytes(self, engine, inputs, reference):
        for _ in range(5):
            assert_same_bytes(split_outputs(engine, inputs), reference)


class TestConcurrentCalls:
    def test_threads_on_one_engine_equal_the_serial_results(self, engine, inputs, reference):
        """More threads than lanes, 50 rounds of every split call each:
        whichever finds the team owned runs inline, and none waits for
        another."""
        failures: list[str] = []

        def worker():
            try:
                for _ in range(50):
                    assert_same_bytes(split_outputs(engine, inputs), reference)
            except Exception as exc:  # reported by the main thread
                failures.append(repr(exc))

        threads = [threading.Thread(target=worker) for _ in range(LANES + 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(DEADLINE_S)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads), "a split call hung"
        assert failures == []


def _child(conn, engine, inputs) -> None:
    conn.send(digest(split_outputs(engine, inputs)))
    conn.close()


def _forked_digest(engine, inputs) -> str:
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=_child, args=(send, engine, inputs))
    child.start()
    send.close()
    try:
        assert receive.poll(DEADLINE_S), "the forked child's split calls hung"
        return receive.recv()
    finally:
        child.join(DEADLINE_S)
        if child.is_alive():
            child.kill()


@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
class TestForkSafety:
    """Shard workers are forked from a coordinator that already ran kernels:
    the child has none of the parent's helpers and must build its own."""

    def test_child_of_an_idle_parent(self, engine, inputs, reference):
        split_outputs(engine, inputs)  # the parent's team is up
        assert _forked_digest(engine, inputs) == digest(reference)

    def test_child_forked_while_a_parent_thread_is_inside_a_split_call(
        self, engine, inputs, reference
    ):
        stop, busy = threading.Event(), threading.Event()
        big = np.concatenate([inputs["coeff"]] * 16, axis=1)

        def splitting():
            while not stop.is_set():
                engine.forward(big, count_ops=False, reduced=True)
                busy.set()

        thread = threading.Thread(target=splitting)
        thread.start()
        try:
            assert busy.wait(DEADLINE_S)
            for _ in range(3):
                assert _forked_digest(engine, inputs) == digest(reference)
        finally:
            stop.set()
            thread.join(DEADLINE_S)
        assert not thread.is_alive(), "the parent's split calls hung"
        assert_same_bytes(split_outputs(engine, inputs), reference)


_PROBE = """
import json, os, sys
sys.path[:0] = {paths!r}
if {pin}:
    os.sched_setaffinity(0, {{min(os.sched_getaffinity(0))}})
import test_kernel_lanes as lanes
from repro.bfv import native
from repro.bfv.ntt_batch import RnsNttEngine

def threads():
    return len(os.listdir("/proc/self/task"))

engine, x = RnsNttEngine(lanes.N, lanes.MODULI), lanes.split_inputs()
before = threads()
engine.forward(x["coeff"][:, :1], count_ops=False, reduced=True)  # below every minimum
small = threads()
outputs = lanes.split_outputs(engine, x)
print(json.dumps({{
    "lanes": native.kernel_status()["lanes"], "before": before, "small": small,
    "after": threads(), "digest": lanes.digest(outputs),
}}))
"""


def _probe(pin: bool) -> dict:
    paths = [str(Path(__file__).parent), str(Path(native.__file__).parents[2])]
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(paths=paths, pin=pin)],
        capture_output=True, text=True, timeout=DEADLINE_S, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or not Path("/proc/self/task").is_dir(),
    reason="needs sched_setaffinity and /proc/self/task",
)
class TestOneLane:
    def test_a_pinned_process_has_one_lane_and_starts_no_helper(self, reference):
        probe = _probe(pin=True)
        assert probe["lanes"] == 1
        assert probe["after"] == probe["small"] == probe["before"]
        assert probe["digest"] == digest(reference)

    def test_helpers_start_on_the_first_split_call(self, reference):
        probe = _probe(pin=False)
        assert probe["lanes"] == LANES
        assert probe["small"] == probe["before"]
        assert probe["after"] == probe["before"] + LANES - 1
        assert probe["digest"] == digest(reference)
