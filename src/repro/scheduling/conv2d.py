"""Homomorphic 2D convolution under Sched-PA and Sched-IA (Section V-B).

One ciphertext per input channel (image packed row-major into a batching
row), one output ciphertext per output channel with valid-convolution
results anchored at the top-left slots.  FC layers follow precisely the
same structure (:mod:`repro.scheduling.fc`) since both are dot products.
"""

from __future__ import annotations

import numpy as np

from ..bfv.keys import GaloisKeys, PublicKey, SecretKey
from ..bfv.scheme import BfvScheme, Ciphertext
from ..core.noise_model import Schedule
from ..nn.layers import ConvLayer
from .dot_product import (
    accumulate,
    input_aligned_term,
    partial_aligned_term,
)
from .layouts import (
    conv_tap_plaintext_ia,
    conv_tap_plaintext_pa,
    linear_input_rows,
    linear_output_view,
    pack_image,
    tap_offset,
)


def conv_rotation_steps(w: int, fw: int) -> list[int]:
    """All distinct rotation steps a (w, fw) convolution needs."""
    steps = set()
    for dy in range(fw):
        for dx in range(fw):
            offset = tap_offset(dy, dx, w)
            if offset:
                steps.add(offset)
    return sorted(steps)


def encrypt_channels(
    scheme: BfvScheme, activations: np.ndarray, public: PublicKey
) -> list[Ciphertext]:
    """Encrypt a (ci, w, w) activation tensor, one ciphertext per channel."""
    return [
        scheme.encrypt(scheme.encoder.encode_row(pack_image(channel)), public)
        for channel in activations
    ]


def conv2d_he(
    scheme: BfvScheme,
    channel_cts: list[Ciphertext],
    weights: np.ndarray,
    galois_keys: GaloisKeys,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
) -> list[Ciphertext]:
    """Valid (no padding, stride 1) homomorphic convolution via a compiled plan.

    Resolves a :class:`repro.scheduling.plan.ConvPlan` for the weights
    (memoized per scheme, so repeated calls with the same weights pay the
    offline encoding once; weight encoding is offline by the repo's
    op-census convention and never counted, same as the naive path) and
    executes it.  Callers orchestrating many layers should compile plans
    explicitly, as :class:`~repro.protocol.gazelle.GazelleProtocol` does.
    The original loop nest survives as :func:`conv2d_he_naive`, the
    bit-exact reference the plan is cross-checked against.
    """
    from .plan import ConvPlan, cached_plan  # local import: plan builds on this module

    plan = cached_plan(scheme, ConvPlan, weights, schedule)
    return plan.execute(channel_cts, galois_keys)


def conv2d_he_naive(
    scheme: BfvScheme,
    channel_cts: list[Ciphertext],
    weights: np.ndarray,
    galois_keys: GaloisKeys,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
) -> list[Ciphertext]:
    """Reference loop nest for the Figure 5 schedules (one HE op per tap).

    Re-encodes every weight plaintext online and rotates once per
    ``(oc, ic, tap)`` partial -- exactly the operation census Table IV
    models -- so it stays the oracle for op-count and noise-model
    validation while :func:`conv2d_he` runs the compiled fast path.

    Parameters
    ----------
    channel_cts:
        One ciphertext per input channel; channel images are w x w,
        inferred from the weight shape and the first usable output.
    weights:
        Integer filters of shape (co, ci, fw, fw).
    """
    weights = np.asarray(weights, dtype=np.int64)
    co, ci, fw, _ = weights.shape
    if len(channel_cts) != ci:
        raise ValueError(f"expected {ci} channel ciphertexts, got {len(channel_cts)}")
    row_size = scheme.params.row_size
    w = _infer_width(row_size)
    outputs = []
    for oc in range(co):
        partials = []
        for ic in range(ci):
            for dy in range(fw):
                for dx in range(fw):
                    weight = int(weights[oc, ic, dy, dx])
                    offset = tap_offset(dy, dx, w)
                    if schedule is Schedule.PARTIAL_ALIGNED:
                        tap_weights = conv_tap_plaintext_pa(
                            weight, w, fw, dy, dx, row_size
                        )
                        # Rotating left by `offset` aligns slot s+offset
                        # back onto output slot s.
                        partials.append(
                            partial_aligned_term(
                                scheme, channel_cts[ic], tap_weights, offset, galois_keys
                            )
                        )
                    else:
                        tap_weights = conv_tap_plaintext_ia(
                            weight, w, fw, dy, dx, row_size
                        )
                        partials.append(
                            input_aligned_term(
                                scheme, channel_cts[ic], tap_weights, offset, galois_keys
                            )
                        )
        outputs.append(accumulate(scheme, partials))
    return outputs


def _infer_width(row_size: int) -> int:
    """Largest square image fitting one batching row.

    Callers pack one w x w channel per row; the convolution addresses
    slots up to (w - 1) * w + (w - 1) + max offset, which stays within the
    row because offsets only reach valid outputs.
    """
    w = int(np.sqrt(row_size))
    while w * w > row_size:
        w -= 1
    return w


def conv2d_he_small(
    scheme: BfvScheme,
    activations: np.ndarray,
    weights: np.ndarray,
    public: PublicKey,
    secret: SecretKey,
    galois_keys: GaloisKeys,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Encrypt -> convolve -> decrypt helper for (ci, w, w) inputs.

    Returns the (co, out_w, out_w) integer output tensor.  Padding is
    applied client-side before packing (zeros around the image); strides
    are lowered by computing the dense (stride-1) convolution and
    selecting every stride-th output slot, which is how Gazelle lowers
    strided layers onto slot-aligned kernels.
    """
    activations = np.asarray(activations, dtype=np.int64)
    if stride < 1 or padding < 0:
        raise ValueError("stride must be >= 1 and padding >= 0")
    co, ci, fw, _ = np.asarray(weights).shape
    layer = ConvLayer(
        "conv", w=activations.shape[1], fw=fw, ci=ci, co=co,
        stride=stride, padding=padding,
    )
    # Pack each channel into the row-width grid the scheduler assumes.
    grid_w = _infer_width(scheme.params.row_size)
    rows = linear_input_rows(layer, activations, scheme.params.row_size, grid_w)
    cts = [scheme.encrypt(scheme.encoder.encode_row(row), public) for row in rows]
    out_cts = conv2d_he(scheme, cts, weights, galois_keys, schedule)
    slots = [scheme.encoder.decode_row(scheme.decrypt(ct, secret)) for ct in out_cts]
    return linear_output_view(layer, slots, grid_w)[:, ::stride, ::stride]
