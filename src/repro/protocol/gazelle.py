"""The Gazelle HE-GC hybrid inference protocol (Section II-A).

Functional two-party simulation over the live BFV substrate:

1. The client encrypts its activations and sends them to the cloud.
2. The cloud evaluates one linear layer homomorphically (Sched-PA or
   Sched-IA), adds a uniform random mask r to every output, and returns
   the masked ciphertexts.
3. The client decrypts masked pre-activations; the garbled circuit
   (functionally simulated, gates accounted) removes r, applies
   ReLU/pooling and fixed-point truncation, and re-masks with the
   cloud's s.
4. The client re-encrypts the masked activations; the cloud subtracts s
   homomorphically and proceeds with the next linear layer.

Decryption at each layer boundary resets the HE noise budget, which is
how Gazelle (and Cheetah) sidestep deep-network noise accumulation.

The client half is written once here: :func:`run_client` walks the
network one linear round at a time and :func:`client_linear_round`
packs, encrypts, hands the ciphertexts to a round function, then
decrypts and reads the outputs through the slot layout of
:mod:`repro.scheduling.layouts`.  :class:`GazelleProtocol` passes an
in-process round; :class:`~repro.serving.session.ClientSession` passes
its wire round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bfv.noise import invariant_noise_budget
from ..bfv.params import BfvParameters
from ..bfv.scheme import BfvScheme
from ..core.noise_model import Schedule
from ..nn.layers import ActivationLayer, ConvLayer
from ..nn.models import Network
from ..nn.plaintext import maxpool2d, meanpool2d, relu
from ..scheduling.layouts import (
    linear_input_rows,
    linear_output_shape,
    linear_output_view,
)
from ..scheduling.plan import compile_plans, union_rotation_steps
from .garbled import (
    GarbledEvaluator,
    GcCost,
    maxpool_circuit_cost,
    relu_circuit_cost,
)
from .messages import TrafficLog, ciphertext_bytes


@dataclass
class ProtocolResult:
    """Output and cost accounting of one private inference."""

    logits: np.ndarray
    traffic: TrafficLog
    gc_cost: GcCost
    min_noise_budget: float


# -- shared client/cloud building blocks -------------------------------------
#
# The in-process :class:`GazelleProtocol` below and the networked serving
# runtime (:mod:`repro.serving`) run the same per-layer math; these helpers
# hold the pieces both sides share so the wire-split protocol cannot drift
# from the reference simulation.


def blind_ciphertext_rows(scheme, rng, cts):
    """Cloud-side blinding: add a fresh uniform mask row to every ciphertext.

    Every slot of each output row must be masked before anything leaves
    the cloud -- the schedules leave partial sums in grid-edge and fold
    positions, and any slot left unmasked would hand the client a clean
    linear equation in the model weights.  The masks' encode, their lift
    to the evaluation domain and the adds are one engine call
    (:meth:`~repro.bfv.scheme.BfvScheme.add_plain_rows`); output ``i`` is
    bit-identical to
    ``scheme.add_plain(cts[i], scheme.encoder.encode_row(mask_rows[i]))``.

    Returns ``(masked_cts, mask_rows)`` with ``mask_rows`` of shape
    ``(len(cts), row_size)``.
    """
    params = scheme.params
    mask_rows = rng.integers(0, params.plain_modulus, (len(cts), params.row_size))
    return scheme.add_plain_rows(cts, mask_rows), mask_rows


def gc_postprocess(masked, mask, post_ops, evaluator, plain_modulus, rescale_bits):
    """Unmask, truncate, apply nonlinearities; return signed integers.

    Runs what the garbled circuit computes (unmask -> truncate ->
    nonlinearities) and charges its gate/traffic costs on the evaluator.
    The re-masking exchange is value-elided: the next linear layer
    encrypts the recovered activations directly, which is equivalent to
    re-encrypting masked values and removing the mask homomorphically,
    with identical traffic (accounted in the next round's send).
    """
    t = plain_modulus  # below 2^30, so the int64 differences are exact
    actual = (np.asarray(masked, dtype=np.int64) - np.asarray(mask, dtype=np.int64)) % t
    signed = np.where(actual > t // 2, actual - t, actual) >> rescale_bits  # centred
    # Unmask + truncate circuit cost (same structure as masked ReLU).
    evaluator.total_cost = evaluator.total_cost + relu_circuit_cost(
        int(signed.size), evaluator.bit_width
    )
    for op in post_ops:
        if op.kind == "relu":
            signed = relu(signed)
        elif op.kind == "maxpool":
            signed = maxpool2d(signed, op.pool_size)
            evaluator.total_cost = evaluator.total_cost + maxpool_circuit_cost(
                int(signed.size), op.pool_size, evaluator.bit_width
            )
        elif op.kind == "avgpool":
            signed = meanpool2d(signed, op.pool_size)
        else:
            raise ValueError(f"unsupported activation {op.kind!r}")
    return signed


def linear_rounds(network: Network) -> list[tuple]:
    """Split a network into rounds: each linear layer with the activation
    layers after it (the nonlinearities its garbled circuit applies)."""
    rounds: list[tuple] = []
    for layer in network.layers:
        if not isinstance(layer, ActivationLayer):
            rounds.append((layer, []))
        elif rounds:
            rounds[-1][1].append(layer)
        else:
            raise TypeError(
                f"activation layer {layer.name!r} without preceding linear layer"
            )
    return rounds


def encrypt_linear_input(scheme, public, layer, activations, grid_w):
    """Client: pack a linear layer's input into slot rows, encrypt them in one call."""
    rows = linear_input_rows(layer, activations, scheme.params.row_size, grid_w)
    return scheme.encrypt([scheme.encoder.encode_row(row) for row in rows], public)


def client_linear_round(scheme, secret, public, layer, activations, grid_w, exchange):
    """Client half of one linear round: ``(masked, mask)`` for the GC stage.

    Encrypts the input, calls ``exchange(layer, cts)`` -- the cloud's half,
    returning the blinded output ciphertexts and the dense mask block --
    decrypts, reads the output view and applies the stride to both.
    Raises :class:`ValueError` when the mask shape or the ciphertext count
    does not match the layer's output view: a mis-shaped mask would
    broadcast silently in the GC stage.
    """
    cts = encrypt_linear_input(scheme, public, layer, activations, grid_w)
    masked_cts, mask = exchange(layer, cts)
    if np.shape(mask) != linear_output_shape(layer):
        raise ValueError(
            f"{layer.name}: mask shape {list(np.shape(mask))}, expected "
            f"{list(linear_output_shape(layer))}"
        )
    # One decryption and one decode for the whole round: row b is reply b.
    rows = scheme.encoder.decode_row(scheme.decrypt(list(masked_cts), secret), signed=False)
    masked = linear_output_view(layer, rows, grid_w)
    if isinstance(layer, ConvLayer) and layer.stride > 1:
        stride = layer.stride
        masked, mask = masked[:, ::stride, ::stride], mask[:, ::stride, ::stride]
    return masked, mask


def run_client(network, image, linear_round, plain_modulus, rescale_bits):
    """The client loop: one ``linear_round(layer, activations)`` per linear
    layer, each followed by its garbled-circuit stage.

    Returns ``(logits, gc_cost)``.
    """
    evaluator = GarbledEvaluator(bit_width=plain_modulus.bit_length())
    current = np.asarray(image, dtype=np.int64)
    for layer, post_ops in linear_rounds(network):
        masked, mask = linear_round(layer, current)
        current = gc_postprocess(
            masked, mask, post_ops, evaluator, plain_modulus, rescale_bits
        )
    return current, evaluator.total_cost


class GazelleProtocol:
    """Run private inference for a small network end to end.

    Supports strided and padded convolutions (padding is applied
    client-side before packing, strides are lowered by subsampling the
    dense output), ReLU, max/avg pooling, and FC layers -- enough to
    express LeNet-style models at live-HE scale.  The client and cloud
    roles share this process but interact only through ciphertexts,
    masked tensors, and the (simulated) garbled circuit.

    Every linear layer is compiled once at construction into a
    :class:`~repro.scheduling.plan.ConvPlan` / ``FcPlan`` (offline weight
    encoding, hoisted/grouped rotations), so repeated ``run`` calls reuse
    the encoded weights and the Galois key set is exactly the union of
    the plans' rotation steps.

    This class is the *in-process reference*: client and cloud share one
    object and one key set.  The deployable split of the same protocol --
    separate key ownership, serialized messages, concurrent sessions --
    lives in :mod:`repro.serving`, whose client runs the same
    :func:`run_client` loop over the wire.
    """

    def __init__(
        self,
        network: Network,
        weights: dict[str, np.ndarray],
        params: BfvParameters,
        schedule: Schedule = Schedule.PARTIAL_ALIGNED,
        rescale_bits: int = 6,
        seed: int = 0,
    ):
        self.network = network
        self.weights = weights
        self.schedule = schedule
        self.rescale_bits = rescale_bits
        self.scheme = BfvScheme(params, seed=seed)
        self.secret, self.public = self.scheme.keygen()
        self.rng = np.random.default_rng(seed + 1)
        self.plans = compile_plans(self.scheme, network, weights, schedule)
        self.galois_keys = self.scheme.generate_galois_keys(
            self.secret, union_rotation_steps(self.plans)
        )

    def run(self, image: np.ndarray) -> ProtocolResult:
        """Private inference on a (ci, w, w) integer input tensor."""
        params = self.scheme.params
        traffic = TrafficLog()
        budgets = [float(params.noise_capacity_bits)]

        def cloud_round(layer, cts):
            return self._cloud_round(layer, cts, traffic, budgets)

        def linear_round(layer, activations):
            return client_linear_round(
                self.scheme, self.secret, self.public, layer, activations,
                getattr(self.plans[layer.name], "grid_w", None), cloud_round,
            )

        logits, gc_cost = run_client(
            self.network, image, linear_round, params.plain_modulus,
            self.rescale_bits,
        )
        return ProtocolResult(
            logits=logits,
            traffic=traffic,
            gc_cost=gc_cost,
            min_noise_budget=min(budgets),
        )

    def _cloud_round(self, layer, cts, traffic, budgets):
        """The cloud's half of one round, in process: plan, blind, tally."""
        params = self.scheme.params
        traffic.send_to_cloud(len(cts) * ciphertext_bytes(params), layer.name)
        plan = self.plans[layer.name]
        [out_cts] = plan.execute_batch([cts], [self.galois_keys])
        # Blind the whole slot row before anything leaves the cloud: the
        # schedules leave partial sums outside the output view (grid-edge
        # and fold positions), and a stride > 1 discards positions after
        # decryption -- any slot left unmasked would hand the client a
        # clean linear equation in the model weights.
        masked_cts, mask_rows = blind_ciphertext_rows(self.scheme, self.rng, out_cts)
        budgets.append(
            min(invariant_noise_budget(self.scheme, ct, self.secret) for ct in masked_cts)
        )
        traffic.send_to_client(
            len(masked_cts) * ciphertext_bytes(params), layer.name + "+mask"
        )
        traffic.end_round()
        return masked_cts, linear_output_view(
            layer, mask_rows, getattr(plan, "grid_w", None)
        )
