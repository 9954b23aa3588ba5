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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bfv.noise import invariant_noise_budget
from ..bfv.params import BfvParameters
from ..bfv.scheme import BfvScheme, Ciphertext
from ..core.noise_model import Schedule
from ..nn.layers import ActivationLayer, ConvLayer, FCLayer
from ..nn.models import Network
from ..scheduling.fc import pack_fc_input
from ..scheduling.layouts import pack_image, unpack_image
from ..scheduling.plan import compile_linear_plan
from .garbled import GarbledEvaluator, GcCost
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


def pad_and_grid_conv_input(layer, activations: np.ndarray, grid_w: int):
    """Client-side conv input prep: zero-pad, then embed into the packing grid.

    The HE schedule always computes the dense valid convolution of the
    (padded) image; strides are lowered later by subsampling the dense
    output.  Returns ``(grids, w)``: the ``(ci, grid_w, grid_w)`` int64
    grids ready for :func:`~repro.scheduling.layouts.pack_image`, and the
    padded image width ``w`` (which determines the dense output width
    ``w - fw + 1``).
    """
    activations = np.asarray(activations, dtype=np.int64)
    if layer.padding:
        pad = layer.padding
        activations = np.pad(activations, ((0, 0), (pad, pad), (pad, pad)))
    ci, w, _ = activations.shape
    if w > grid_w:
        raise ValueError(
            f"{layer.name}: padded {w}x{w} image exceeds the "
            f"{grid_w}x{grid_w} packing grid"
        )
    grids = np.zeros((ci, grid_w, grid_w), dtype=np.int64)
    grids[:, :w, :w] = activations
    return grids, w


def blind_ciphertext_rows(scheme, rng, cts):
    """Cloud-side blinding: add a fresh uniform mask row to every ciphertext.

    Every slot of each output row must be masked before anything leaves
    the cloud -- the schedules leave partial sums in grid-edge and fold
    positions, and any slot left unmasked would hand the client a clean
    linear equation in the model weights.  All masks are encoded and
    lifted to the evaluation domain in one ``(k, B, n)`` batched NTT;
    output ``i`` is bit-identical to
    ``scheme.add_plain(cts[i], scheme.encoder.encode_row(mask_rows[i]))``.

    Returns ``(masked_cts, mask_rows)`` with ``mask_rows`` of shape
    ``(len(cts), row_size)``.
    """
    from ..bfv.counters import GLOBAL_COUNTERS
    from ..bfv.polynomial import Domain, RnsPolynomial, add_mod

    params = scheme.params
    basis = params.coeff_basis
    mask_rows = rng.integers(0, params.plain_modulus, (len(cts), params.row_size))
    coeffs = scheme.encoder.encode_rows(mask_rows)
    evals = scheme.engine.forward(scheme._delta_residues(coeffs), reduced=True)
    GLOBAL_COUNTERS.he_add += len(cts)
    masked = [
        Ciphertext(
            RnsPolynomial(
                basis,
                add_mod(ct.c0.data, evals[:, i], basis.primes_column),
                Domain.EVAL,
            ),
            ct.c1.copy(),
        )
        for i, ct in enumerate(cts)
    ]
    return masked, mask_rows


def decrypt_conv_outputs(scheme, secret, masked_cts, grid_w: int, dense_w: int):
    """Client-side conv decrypt: read the dense ``dense_w x dense_w`` block.

    Returns an object-dtype ``(co, dense_w, dense_w)`` array of masked
    slot values (still blinded mod t; see :func:`gc_postprocess`).
    """
    outputs = np.zeros((len(masked_cts), dense_w, dense_w), dtype=object)
    for oc, ct in enumerate(masked_cts):
        slots = scheme.encoder.decode_row(scheme.decrypt(ct, secret), signed=False)
        grid = unpack_image(slots, grid_w)
        outputs[oc] = grid[:dense_w, :dense_w].astype(object)
    return outputs


def gc_postprocess(masked, mask, post_ops, evaluator, plain_modulus, rescale_bits):
    """Unmask, truncate, apply nonlinearities; return signed integers.

    Runs what the garbled circuit computes (unmask -> truncate ->
    nonlinearities) and charges its gate/traffic costs on the evaluator.
    The re-masking exchange is value-elided: the next linear layer
    encrypts the recovered activations directly, which is equivalent to
    re-encrypting masked values and removing the mask homomorphically,
    with identical traffic (accounted in the next round's send).
    """
    from .garbled import maxpool_circuit_cost, relu_circuit_cost

    t = plain_modulus
    actual = (
        np.asarray(masked, dtype=object) - np.asarray(mask, dtype=object)
    ) % t
    signed = np.where(actual > t // 2, actual - t, actual)
    signed = np.asarray(signed.tolist(), dtype=np.int64) >> rescale_bits
    # Unmask + truncate circuit cost (same structure as masked ReLU).
    evaluator.total_cost = evaluator.total_cost + relu_circuit_cost(
        int(signed.size), evaluator.bit_width
    )
    for op in post_ops:
        if op.kind == "relu":
            signed = np.maximum(signed, 0)
        elif op.kind == "maxpool":
            signed = _maxpool(signed, op.pool_size)
            evaluator.total_cost = evaluator.total_cost + maxpool_circuit_cost(
                int(signed.size), op.pool_size, evaluator.bit_width
            )
        elif op.kind == "avgpool":
            signed = _avgpool(signed, op.pool_size)
        else:
            raise ValueError(f"unsupported activation {op.kind!r}")
    return signed


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
    lives in :mod:`repro.serving`, which reuses this module's helpers so
    the two cannot drift.
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
        self.plans = {
            layer.name: compile_linear_plan(
                self.scheme, layer, weights[layer.name], schedule
            )
            for layer in network.linear_layers
        }
        steps: set[int] = set()
        for plan in self.plans.values():
            steps.update(plan.rotation_steps)
        self.galois_keys = self.scheme.generate_galois_keys(
            self.secret, sorted(steps)
        )

    # -- protocol run -------------------------------------------------------

    def run(self, image: np.ndarray) -> ProtocolResult:
        """Private inference on a (ci, w, w) integer input tensor."""
        t = self.scheme.params.plain_modulus
        traffic = TrafficLog()
        evaluator = GarbledEvaluator(t, bit_width=t.bit_length())
        min_budget = float(self.scheme.params.noise_capacity_bits)

        current = np.asarray(image, dtype=np.int64)
        layers = list(self.network.layers)
        index = 0
        while index < len(layers):
            layer = layers[index]
            if isinstance(layer, (ConvLayer, FCLayer)):
                # Cloud: homomorphic linear layer on freshly encrypted input.
                masked, mask, budget = self._cloud_linear_layer(
                    layer, current, traffic
                )
                min_budget = min(min_budget, budget)
                # Client + GC: unmask, nonlinearities, truncate, re-mask.
                index += 1
                post_ops: list[ActivationLayer] = []
                while index < len(layers) and isinstance(layers[index], ActivationLayer):
                    post_ops.append(layers[index])
                    index += 1
                current = self._client_gc_stage(masked, mask, post_ops, evaluator)
            else:
                raise TypeError(
                    f"activation layer {layer.name!r} without preceding linear layer"
                )
        return ProtocolResult(
            logits=current,
            traffic=traffic,
            gc_cost=evaluator.total_cost,
            min_noise_budget=min_budget,
        )

    # -- cloud side ----------------------------------------------------------

    def _cloud_linear_layer(self, layer, activations, traffic):
        scheme = self.scheme
        params = scheme.params
        t = params.plain_modulus
        if isinstance(layer, ConvLayer):
            plan = self.plans[layer.name]
            grid_w = plan.grid_w
            grids, w = pad_and_grid_conv_input(layer, activations, grid_w)
            cts = [
                scheme.encrypt(
                    scheme.encoder.encode_row(pack_image(grid)), self.public
                )
                for grid in grids
            ]
            traffic.send_to_cloud(len(cts) * ciphertext_bytes(params), layer.name)
            out_cts = plan.execute(cts, self.galois_keys)
            # Blind the whole slot row before anything leaves the cloud:
            # the schedule computes valid outputs across the entire packing
            # grid (not just the image's dense block), and a stride > 1
            # discards positions after decryption -- any slot left unmasked
            # would hand the client a clean linear equation in the model
            # weights.  The client then reads the dense block and
            # subsamples it by the stride.
            dense_w = w - layer.fw + 1
            masked_cts, mask, budget = self._mask_outputs_conv(
                out_cts, grid_w, dense_w
            )
            traffic.send_to_client(
                len(masked_cts) * ciphertext_bytes(params), layer.name + "+mask"
            )
            traffic.end_round()
            masked = self._client_decrypt_conv(masked_cts, grid_w, dense_w)
            if layer.stride > 1:
                masked = masked[:, :: layer.stride, :: layer.stride]
                mask = mask[:, :: layer.stride, :: layer.stride]
            return masked, mask, budget
        # FC layer
        flat = activations.reshape(-1)
        packed = pack_fc_input(flat % t, params.row_size)
        ct = scheme.encrypt(scheme.encoder.encode_row(packed), self.public)
        traffic.send_to_cloud(ciphertext_bytes(params), layer.name)
        out_ct = self.plans[layer.name].execute(ct, self.galois_keys)
        masked_ct, mask, budget = self._mask_output_fc(out_ct, layer.no)
        traffic.send_to_client(ciphertext_bytes(params), layer.name + "+mask")
        traffic.end_round()
        slots = scheme.encoder.decode_row(
            scheme.decrypt(masked_ct, self.secret), signed=False
        )
        return slots[: layer.no], mask, budget

    def _mask_outputs_conv(self, out_cts, grid_w, dense_w):
        """Blind every slot of each output row; return the dense mask block.

        The whole row is masked (the schedule leaves partial sums in
        grid-edge and fold positions too, and all computation stays within
        slot row 0); only the dense_w x dense_w block the client will read
        needs its mask values returned.
        """
        masked_cts, mask_rows = blind_ciphertext_rows(self.scheme, self.rng, out_cts)
        budget = min(
            invariant_noise_budget(self.scheme, ct, self.secret) for ct in masked_cts
        )
        masks = np.stack(
            [unpack_image(row, grid_w)[:dense_w, :dense_w] for row in mask_rows]
        )
        return masked_cts, masks, budget

    def _mask_output_fc(self, out_ct, no):
        """Blind every slot of an FC output row (the extended-diagonal fold
        leaves partial weight sums beyond slot ``no``); return the mask for
        the ``no`` slots the client will read."""
        masked_cts, mask_rows = blind_ciphertext_rows(self.scheme, self.rng, [out_ct])
        budget = invariant_noise_budget(self.scheme, masked_cts[0], self.secret)
        return masked_cts[0], mask_rows[0, :no], budget

    # -- client side -----------------------------------------------------------

    def _client_decrypt_conv(self, masked_cts, grid_w, dense_w):
        return decrypt_conv_outputs(self.scheme, self.secret, masked_cts, grid_w, dense_w)

    def _client_gc_stage(self, masked, mask, post_ops, evaluator):
        """Unmask, truncate, apply nonlinearities (see :func:`gc_postprocess`)."""
        return gc_postprocess(
            masked,
            mask,
            post_ops,
            evaluator,
            self.scheme.params.plain_modulus,
            self.rescale_bits,
        )


def _maxpool(values: np.ndarray, size: int) -> np.ndarray:
    ci, w, _ = values.shape
    out_w = w // size
    trimmed = values[:, : out_w * size, : out_w * size]
    blocks = trimmed.reshape(ci, out_w, size, out_w, size)
    return blocks.max(axis=(2, 4))


def _avgpool(values: np.ndarray, size: int) -> np.ndarray:
    ci, w, _ = values.shape
    out_w = w // size
    trimmed = values[:, : out_w * size, : out_w * size]
    blocks = trimmed.reshape(ci, out_w, size, out_w, size)
    return blocks.sum(axis=(2, 4)) // (size * size)
