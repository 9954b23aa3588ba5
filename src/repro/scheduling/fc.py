"""Homomorphic fully connected layers via the diagonal method.

"FC layers follow precisely the same steps as CNNs, as the core
primitives are also dot products" (Section V-B).  The diagonal method
computes all outputs simultaneously: output slot j accumulates
``W[j, (j + d) mod ni] * x[(j + d) mod ni]`` over diagonals d, needing
one HE_Mult and one HE_Rotate per diagonal under either schedule.

The input vector is packed twice (slots [0, ni) and [ni, 2 ni)) so that
row rotations emulate the cyclic-mod-ni indexing the method requires;
this duplication trick is the standard lowering and needs 2 ni slots.
"""

from __future__ import annotations

import numpy as np

from ..bfv.keys import GaloisKeys, PublicKey, SecretKey
from ..bfv.scheme import BfvScheme, Ciphertext
from ..core.noise_model import Schedule
from ..nn.layers import FCLayer
from .dot_product import accumulate, input_aligned_term, partial_aligned_term
from .layouts import (  # pack_fc_input stays importable from here
    linear_input_rows,
    linear_output_view,
    pack_fc_input,
    pad_fc_weights,
)


def fc_rotation_steps(ni: int) -> list[int]:
    """Rotation steps the diagonal method needs for an ni-input layer."""
    return list(range(1, ni))


def _diagonal_plaintext(
    square: np.ndarray, d: int, row_size: int, schedule: Schedule
) -> np.ndarray:
    """Weight vector for diagonal d against the duplicated input packing.

    Sched-IA multiplies the *rotated* input, so the coefficient for output
    j sits at slot j.  Sched-PA multiplies the unrotated (duplicated)
    input, so the coefficient sits at slot j + d and the partial rotates
    left by d afterwards.
    """
    ni = square.shape[0]
    values = np.zeros(row_size, dtype=np.int64)
    for j in range(ni):
        coeff = square[j, (j + d) % ni]
        slot = j + d if schedule is Schedule.PARTIAL_ALIGNED else j
        values[slot] = coeff
    return values


def fc_he(
    scheme: BfvScheme,
    ct_x: Ciphertext,
    weights: np.ndarray,
    galois_keys: GaloisKeys,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
) -> Ciphertext:
    """Homomorphic matrix-vector product via a compiled plan.

    Outputs land in slots ``0..no-1``; ``ct_x`` must hold the duplicated
    input packing produced by :func:`pack_fc_input`.  Resolves an
    :class:`repro.scheduling.plan.FcPlan` (memoized per scheme, so
    repeated calls with the same weights pay the offline encoding once)
    and executes it; the per-diagonal loop survives as
    :func:`fc_he_naive`, the bit-exact reference.
    """
    from .plan import FcPlan, cached_plan  # local import: plan builds on this module

    plan = cached_plan(scheme, FcPlan, weights, schedule)
    return plan.execute(ct_x, galois_keys)


def fc_he_naive(
    scheme: BfvScheme,
    ct_x: Ciphertext,
    weights: np.ndarray,
    galois_keys: GaloisKeys,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
) -> Ciphertext:
    """Reference diagonal method: one online-encoded HE_Mult and one
    HE_Rotate per diagonal, matching Table IV's operation census.
    """
    weights = np.asarray(weights, dtype=np.int64)
    no, ni = weights.shape
    row_size = scheme.params.row_size
    if 2 * ni > row_size:
        raise ValueError(f"ni={ni} needs {2 * ni} slots, row has {row_size}")
    square = pad_fc_weights(weights)
    partials = []
    for d in range(ni):
        diag = _diagonal_plaintext(square, d, row_size, schedule)
        if schedule is Schedule.PARTIAL_ALIGNED:
            partials.append(partial_aligned_term(scheme, ct_x, diag, d, galois_keys))
        else:
            partials.append(input_aligned_term(scheme, ct_x, diag, d, galois_keys))
    return accumulate(scheme, partials)


def fc_he_small(
    scheme: BfvScheme,
    inputs: np.ndarray,
    weights: np.ndarray,
    public: PublicKey,
    secret: SecretKey,
    galois_keys: GaloisKeys,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
) -> np.ndarray:
    """Encrypt -> multiply -> decrypt helper returning the no outputs."""
    inputs = np.asarray(inputs, dtype=np.int64)
    no, ni = np.asarray(weights).shape
    if inputs.shape != (ni,):
        raise ValueError(f"expected {ni} inputs, got {inputs.shape}")
    layer = FCLayer("fc", ni, no)
    [row] = linear_input_rows(layer, inputs, scheme.params.row_size, None)
    ct = scheme.encrypt(scheme.encoder.encode_row(row), public)
    out_ct = fc_he(scheme, ct, weights, galois_keys, schedule)
    slots = scheme.encoder.decode_row(scheme.decrypt(out_ct, secret))
    return linear_output_view(layer, [slots], None)
