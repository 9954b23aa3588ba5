"""Gazelle client-cloud private-inference protocol (the system Cheetah
accelerates server-side): HE linear layers, GC nonlinearities, additive
masking, and communication accounting."""

from .garbled import (
    GarbledEvaluator,
    GcCost,
    maxpool_circuit_cost,
    relu_circuit_cost,
)
from .gazelle import (
    GazelleProtocol,
    ProtocolResult,
    blind_ciphertext_rows,
    client_linear_round,
    encrypt_linear_input,
    gc_postprocess,
    linear_rounds,
    run_client,
)
from .messages import TrafficLog, ciphertext_bytes
from .shape_hiding import (
    HidingOverhead,
    hiding_overhead,
    insert_null_layers,
    null_layer_weights,
    pad_network,
    pad_weights,
)

__all__ = [
    "GarbledEvaluator",
    "GcCost",
    "maxpool_circuit_cost",
    "relu_circuit_cost",
    "GazelleProtocol",
    "ProtocolResult",
    "blind_ciphertext_rows",
    "client_linear_round",
    "encrypt_linear_input",
    "gc_postprocess",
    "linear_rounds",
    "run_client",
    "TrafficLog",
    "ciphertext_bytes",
    "HidingOverhead",
    "hiding_overhead",
    "insert_null_layers",
    "null_layer_weights",
    "pad_network",
    "pad_weights",
]
