"""Garbled-circuit simulation for client-side nonlinearities.

In the Gazelle protocol (Section II-A), ReLU and pooling run on the
client inside Yao garbled circuits.  GCs are cheap in compute but cost
communication; since Cheetah "assumes the same communication overheads as
Gazelle", we implement the nonlinearities *functionally* (operating on
masked shares exactly as the real circuit would) and account gates and
transfer bytes with standard half-gates costs, so protocol-level benches
can report the communication the paper holds constant.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bits transferred per AND gate under half-gates garbling (2 labels).
HALF_GATES_BITS_PER_AND = 2 * 128

#: Label bits per circuit input wire.
LABEL_BITS = 128


@dataclass
class GcCost:
    """Gate and traffic accounting for one garbled-circuit evaluation."""

    and_gates: int = 0
    input_wires: int = 0

    @property
    def communication_bits(self) -> int:
        return (
            self.and_gates * HALF_GATES_BITS_PER_AND
            + self.input_wires * LABEL_BITS
        )

    @property
    def communication_bytes(self) -> int:
        return (self.communication_bits + 7) // 8

    def __add__(self, other: "GcCost") -> "GcCost":
        return GcCost(
            self.and_gates + other.and_gates,
            self.input_wires + other.input_wires,
        )


def relu_circuit_cost(elements: int, bit_width: int) -> GcCost:
    """Gate census of the masked-ReLU circuit per Section II-A.

    Per element the circuit performs: subtraction of the cloud's additive
    mask (bit_width AND gates for the ripple borrow), the sign comparison
    (bit_width), the zero-mux (bit_width), and re-masking addition
    (bit_width): ~4 * bit_width AND gates.
    """
    per_element = 4 * bit_width
    return GcCost(
        and_gates=elements * per_element,
        input_wires=2 * elements * bit_width,  # masked value + mask share
    )


def maxpool_circuit_cost(elements: int, pool_size: int, bit_width: int) -> GcCost:
    """Max-pool over pool_size^2 windows: comparator tree per output."""
    comparators = pool_size * pool_size - 1
    per_element = comparators * 3 * bit_width + 2 * bit_width  # cmps + un/re-mask
    return GcCost(
        and_gates=elements * per_element,
        input_wires=elements * pool_size * pool_size * bit_width,
    )


class GarbledEvaluator:
    """Gate and traffic tally of the client's garbled-circuit stage.

    The stage itself is :func:`repro.protocol.gazelle.gc_postprocess`: it
    computes what the circuit computes (unmask with the cloud's r, truncate,
    apply the nonlinearities over the *signed* representative) and charges
    each circuit's cost here.
    """

    def __init__(self, bit_width: int):
        self.bit_width = bit_width
        self.total_cost = GcCost()
