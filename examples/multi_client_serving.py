"""Multi-client private-inference serving over the wire format.

The production shape of the Gazelle workload: one cloud-side
:class:`~repro.serving.ServingEngine` holds the model (weights compiled
once into eval-domain plans), while many clients -- each with its own
secret key, its own Galois keys, and its own data -- drive concurrent
sessions against it.  Requests that arrive together for the same layer
are merged into single stacked ``(k, B, n)`` engine calls (cross-client
batching), and every client still gets logits bit-identical to running
the whole protocol in process.

Run:  python examples/multi_client_serving.py
"""

import threading
import time

import numpy as np

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.plaintext import PlaintextRunner
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    demo_image,
    demo_network,
    demo_weights,
)

CLIENTS = 4


def main() -> None:
    params = BfvParameters.create(
        n=4096, plain_bits=20, coeff_bits=100, a_dcmp_bits=16
    )
    network, weights = demo_network(), demo_weights()
    runner = PlaintextRunner(network, weights, rescale_bits=DEMO_RESCALE_BITS)

    # Cloud side: register the model once (offline plan compile), start
    # the engine with cross-client batching enabled.
    registry = ModelRegistry()
    start = time.perf_counter()
    entry = registry.register(
        "demo", network, weights, params,
        schedule=Schedule.INPUT_ALIGNED, rescale_bits=DEMO_RESCALE_BITS,
    )
    print(f"model registered, plans compiled offline: {time.perf_counter() - start:.2f}s")
    engine = ServingEngine(registry, max_batch=CLIENTS)
    transport = LoopbackTransport(engine)

    # Client side: each session generates its own keys and uploads exactly
    # the Galois keys the server's compiled plans need.
    sessions = []
    start = time.perf_counter()
    for i in range(CLIENTS):
        session = ClientSession(network, params, transport, seed=10 + i)
        session.connect("demo")
        sessions.append(session)
    print(
        f"{CLIENTS} sessions connected (keygen + Galois upload): "
        f"{time.perf_counter() - start:.2f}s "
        f"({len(entry.rotation_steps)} rotation steps each)"
    )

    images = [demo_image(seed) for seed in range(CLIENTS)]
    results = [None] * CLIENTS

    def drive(index: int) -> None:
        results[index] = sessions[index].infer(images[index])

    start = time.perf_counter()
    threads = [
        threading.Thread(target=drive, args=(index,)) for index in range(CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start

    print(f"\n{CLIENTS} concurrent private inferences in {elapsed:.2f}s")
    for index, result in enumerate(results):
        expected = runner.run(images[index])
        match = np.array_equal(result.logits, expected)
        print(f"client {index}: logits {result.logits.tolist()}  match={match}")
        assert match
    traffic = engine.session_traffic(sessions[0].session_id)
    print(
        f"\nper-session traffic: {traffic.client_to_cloud_bytes / 1024:.0f} KiB up "
        f"(incl. one-time Galois keys), "
        f"{traffic.cloud_to_client_bytes / 1024:.0f} KiB down, "
        f"{traffic.rounds} rounds"
    )


if __name__ == "__main__":
    main()
