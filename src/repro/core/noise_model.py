"""HE-PTune noise model (Tables III and V of the paper).

Two estimation modes:

* ``worst`` -- the literal worst-case bounds of Table III, which the paper
  shows lead to needlessly conservative parameters;
* ``practical`` -- Cheetah's theoretically-motivated, empirically-derived
  model (Section IV-B): encryption noise is an independent bounded
  discrete Gaussian (IBDG), sums of IBDG variables stay IBDG with summed
  variances, so aggregates scale with sqrt(#terms) instead of #terms.  A
  single tail factor ``z`` chosen from the decryption-failure bound
  (:mod:`repro.core.failure`) converts the output standard deviation into
  a bound exceeded with probability below 1e-10.

The schedule matters (Section V): Sched-PA (Cheetah) grows noise as
``eta_M * v0 + eta_A`` per partial, Sched-IA (Gazelle/prior art) as
``eta_M * (v0 + eta_A)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from ..bfv.params import BfvParameters, noise_bound
from ..nn.layers import ConvLayer, FCLayer, LinearLayer
from .failure import tail_factor

#: Target decryption-failure probability (Section IV-B).
FAILURE_PROBABILITY = 1e-10


class Schedule(Enum):
    """Dot-product operation orderings (Figure 5)."""

    INPUT_ALIGNED = "sched-ia"  # rotate, then multiply (Gazelle, prior art)
    PARTIAL_ALIGNED = "sched-pa"  # multiply, then rotate partials (Cheetah)


class NoiseMode(Enum):
    WORST = "worst"
    PRACTICAL = "practical"


@dataclass(frozen=True)
class NoiseEstimate:
    """Predicted output noise and the remaining budget it implies."""

    output_noise: float  # infinity-norm estimate of the noise term v
    budget_bits: float  # log2(q / 2t) - log2(output_noise)

    @property
    def decryptable(self) -> bool:
        return self.budget_bits > 0.0


def _aggregate(count: float, mode: NoiseMode) -> float:
    """Sum of ``count`` comparable independent terms.

    Worst case adds magnitudes; the practical IBDG model adds variances,
    so magnitudes grow with sqrt(count).
    """
    count = max(count, 1.0)
    return count if mode is NoiseMode.WORST else math.sqrt(count)


def fresh_noise(params: BfvParameters, mode: NoiseMode = NoiseMode.PRACTICAL) -> float:
    """Noise v0 in a fresh ciphertext (Table III first row: 2 n B^2)."""
    b = noise_bound(params.sigma)
    if mode is NoiseMode.WORST:
        return 2.0 * params.n * b * b
    # v0 = e0 + e1 s - e u: ~2n products of two IBDG/ternary terms.
    return tail_factor(FAILURE_PROBABILITY) * b * math.sqrt(2.0 * params.n / 3.0)


def eta_mult(
    params: BfvParameters,
    mode: NoiseMode = NoiseMode.PRACTICAL,
    weight_bits: int | None = None,
    l_pt: int | None = None,
) -> float:
    """Multiplicative noise factor of HE_Mult (Table III: n l_pt Wdcmp / 2).

    ``weight_bits`` optionally caps the weight magnitude below the
    decomposition window (Sched-PA multiplies by raw quantized weights,
    so the factor is set by the actual weight precision, not by t).
    """
    l_pt = params.l_pt if l_pt is None else l_pt
    if weight_bits is None:
        w_bound = params.w_dcmp / 2.0
    else:
        w_bound = min(params.w_dcmp, 2.0 ** weight_bits) / 2.0
    if mode is NoiseMode.WORST:
        return params.n * l_pt * w_bound
    return math.sqrt(params.n * l_pt / 3.0) * w_bound


def eta_rotate(params: BfvParameters, mode: NoiseMode = NoiseMode.PRACTICAL) -> float:
    """Additive noise of HE_Rotate (Table III: l_ct Adcmp B n / 2)."""
    b = noise_bound(params.sigma)
    if mode is NoiseMode.WORST:
        return params.l_ct * params.a_dcmp * b * params.n / 2.0
    return math.sqrt(params.l_ct * params.n / 3.0) * (params.a_dcmp / 2.0) * b


def conv_output_noise(
    layer: ConvLayer,
    params: BfvParameters,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
    mode: NoiseMode = NoiseMode.PRACTICAL,
    weight_bits: int | None = None,
    l_pt: int | None = None,
) -> float:
    """Table V, CNN rows, for either schedule."""
    n = params.n
    w2 = layer.he_w * layer.he_w
    fw2 = layer.fw * layer.fw
    ci = layer.ci
    v0 = fresh_noise(params, mode)
    eta_m = eta_mult(params, mode, weight_bits, l_pt)
    eta_a = eta_rotate(params, mode)
    if n >= w2:
        cn = max(1, n // w2)
        mult_terms = fw2 * ci
        rot_terms = ci * (fw2 - 1 + (cn - 1) / cn)
    else:
        mult_terms = (2 * layer.fw - 1) * layer.fw * ci
        rot_terms = ci * (2 * layer.fw + 1) * (layer.fw - 1)
    return combine_noise(v0, eta_m, eta_a, mult_terms, rot_terms, schedule, mode)


def fc_output_noise(
    layer: FCLayer,
    params: BfvParameters,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
    mode: NoiseMode = NoiseMode.PRACTICAL,
    weight_bits: int | None = None,
    l_pt: int | None = None,
) -> float:
    """Table V, FC rows, for either schedule."""
    n = params.n
    ni = layer.ni
    v0 = fresh_noise(params, mode)
    eta_m = eta_mult(params, mode, weight_bits, l_pt)
    eta_a = eta_rotate(params, mode)
    if n >= ni:
        mult_terms = ni
        rot_terms = ni - 1
    else:
        mult_terms = ni
        rot_terms = ni * (n - 1) / n
    return combine_noise(v0, eta_m, eta_a, mult_terms, rot_terms, schedule, mode)


def combine_noise(
    v0: float,
    eta_m: float,
    eta_a: float,
    mult_terms: float,
    rot_terms: float,
    schedule: Schedule,
    mode: NoiseMode,
) -> float:
    """Assemble layer noise from per-operator factors.

    Sched-PA: partials are eta_M * v0 each, rotated afterwards (additive
    eta_A), then summed: ``agg(mult) * eta_M * v0 + agg(rot) * eta_A``.
    Sched-IA: the input is rotated *before* each multiply, so the
    multiplicative factor applies to (v0 + eta_A).
    """
    if schedule is Schedule.PARTIAL_ALIGNED:
        return _aggregate(mult_terms, mode) * eta_m * v0 + _aggregate(rot_terms, mode) * eta_a
    inflated = v0 + eta_a
    return _aggregate(mult_terms, mode) * eta_m * inflated + _aggregate(rot_terms, mode) * eta_a


def layer_output_noise(
    layer: LinearLayer,
    params: BfvParameters,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
    mode: NoiseMode = NoiseMode.PRACTICAL,
    weight_bits: int | None = None,
    l_pt: int | None = None,
) -> float:
    if isinstance(layer, ConvLayer):
        return conv_output_noise(layer, params, schedule, mode, weight_bits, l_pt)
    if isinstance(layer, FCLayer):
        return fc_output_noise(layer, params, schedule, mode, weight_bits, l_pt)
    raise TypeError(f"not a linear layer: {layer!r}")


def remaining_budget_bits(
    layer: LinearLayer,
    params: BfvParameters,
    schedule: Schedule = Schedule.PARTIAL_ALIGNED,
    mode: NoiseMode = NoiseMode.PRACTICAL,
    weight_bits: int | None = None,
    l_pt: int | None = None,
) -> NoiseEstimate:
    """Remaining noise budget after the layer (negative -> will not decrypt).

    Dividing q/(2t) by the output noise and taking the log gives bits of
    remaining budget (Section IV-B).
    """
    noise = layer_output_noise(layer, params, schedule, mode, weight_bits, l_pt)
    capacity = params.noise_capacity_bits
    budget = capacity - math.log2(max(noise, 1.0))
    return NoiseEstimate(output_noise=noise, budget_bits=budget)
