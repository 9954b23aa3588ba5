"""HE-PTune performance model (Table IV of the paper).

Counts the ``HE_Mult`` and ``HE_Rotate`` operations a homomorphic CNN or
FC layer needs, for every packing regime (ciphertext slots vs image /
vector sizes), then reduces everything to the paper's common currency:
**total integer multiplications**, using

* 2n modular multiplications per HE_Mult (two ciphertext polynomials),
* 2*l_ct polynomial products and (l_ct + 1) NTTs per HE_Rotate,
* 5 integer multiplications per modular multiplication (Barrett),
* n/2 * log2 n butterflies per NTT, 3 integer mults each (Harvey).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..bfv.counters import BARRETT_INT_MULTS, HARVEY_INT_MULTS
from ..bfv.params import BfvParameters
from ..nn.layers import ConvLayer, FCLayer, LinearLayer


@dataclass(frozen=True)
class HeOpCounts:
    """HE-operator census for one layer."""

    he_mult: int
    he_rotate: int
    he_add: int = 0

    def __add__(self, other: "HeOpCounts") -> "HeOpCounts":
        return HeOpCounts(
            self.he_mult + other.he_mult,
            self.he_rotate + other.he_rotate,
            self.he_add + other.he_add,
        )


def conv_op_counts(
    layer: ConvLayer,
    params: BfvParameters,
    l_pt: int | None = None,
    windowed_rotations: bool = False,
) -> HeOpCounts:
    """Table IV, CNN rows.

    ``c_n`` is channels-per-ciphertext when the image fits (n >= w^2) and
    ciphertexts-per-channel otherwise.  ``windowed_rotations`` models
    Sched-IA with plaintext windowing: the input is rotated *before* the
    multiply, so each of the l_pt windowed ciphertexts needs its own
    rotation per filter tap ("the number of polynomials that must be
    computed grows proportionately", Section V-C).  Sched-PA rotates the
    single partial after the multiply.
    """
    n = params.n
    l_pt = params.l_pt if l_pt is None else l_pt
    rot_scale = l_pt if windowed_rotations else 1
    w2 = layer.he_w * layer.he_w
    fw2 = layer.fw * layer.fw
    ci, co = layer.ci, layer.co
    if n >= w2:
        cn = max(1, n // w2)
        he_mult = math.ceil(l_pt * ci * co * fw2 / cn)
        he_rotate = rot_scale * math.ceil(ci * co * fw2 / cn)
    else:
        cn = math.ceil(w2 / n)
        he_mult = l_pt * (2 * cn - 1) * ci * co * fw2
        he_rotate = rot_scale * (2 * cn - 1) * ci * co * (fw2 - 1)
    he_add = he_mult  # one accumulation per partial product
    return HeOpCounts(he_mult, he_rotate, he_add)


def fc_op_counts(
    layer: FCLayer,
    params: BfvParameters,
    l_pt: int | None = None,
    windowed_rotations: bool = False,
) -> HeOpCounts:
    """Table IV, FC rows (all four n-vs-ni/no cases)."""
    n = params.n
    l_pt = params.l_pt if l_pt is None else l_pt
    rot_scale = l_pt if windowed_rotations else 1
    ni, no = layer.ni, layer.no
    he_mult = math.ceil(l_pt * ni * no / n)
    if n >= ni and n >= no:
        he_rotate = math.ceil(ni * no / n) - 1 + _log2_int(n // max(1, no))
    elif n >= ni:  # n < no
        he_rotate = math.ceil((ni - 1) * no / n)
    elif n >= no:  # n < ni
        he_rotate = math.ceil((no + _log2_int(n // max(1, no))) * ni / n)
    else:  # n < ni and n < no
        he_rotate = math.ceil((n - 1) * ni * no / (n * n))
    he_add = he_mult
    return HeOpCounts(he_mult, max(0, rot_scale * he_rotate), he_add)


def _log2_int(value: int) -> int:
    return max(0, int(math.ceil(math.log2(value)))) if value > 1 else 0


def layer_op_counts(
    layer: LinearLayer,
    params: BfvParameters,
    l_pt: int | None = None,
    windowed_rotations: bool = False,
) -> HeOpCounts:
    if isinstance(layer, ConvLayer):
        return conv_op_counts(layer, params, l_pt, windowed_rotations)
    if isinstance(layer, FCLayer):
        return fc_op_counts(layer, params, l_pt, windowed_rotations)
    raise TypeError(f"not a linear layer: {layer!r}")


# -- reduction to integer multiplications -------------------------------------

#: Machine word width of the software substrate (SEAL's 60-bit limbs).
WORD_BITS = 60


def word_limbs(params: BfvParameters) -> int:
    """Number of machine-word limbs representing q: ceil(log q / 60)."""
    coeff_bits = params.coeff_modulus.bit_length()
    return max(1, math.ceil(coeff_bits / WORD_BITS))


def word_cost_factor(params: BfvParameters) -> int:
    """Relative cost of one modular multiplication at this q width.

    Aggressive HE parameters "reduce the cost of each operation (e.g.,
    using smaller data types)" (Section I).  A modulus wider than one
    machine word costs quadratically more per product (schoolbook
    multiprecision arithmetic, as in the SEAL 2.3.1 substrate the paper
    profiles): the paper's own tuned configurations stay at 60-bit q for
    exactly this reason.
    """
    limbs = word_limbs(params)
    return limbs * limbs


def int_mults_per_he_mult(params: BfvParameters) -> int:
    """2n modular multiplications at the q word width."""
    return 2 * params.n * BARRETT_INT_MULTS * word_cost_factor(params)


def int_mults_per_ntt(params: BfvParameters) -> int:
    """n/2 * log2 n Harvey butterflies at the q word width."""
    n = params.n
    return (n // 2) * (n.bit_length() - 1) * HARVEY_INT_MULTS * word_cost_factor(params)


def int_mults_per_he_rotate(params: BfvParameters) -> int:
    """2*l_ct polynomial products plus (l_ct + 1) NTTs."""
    l_ct = params.l_ct
    return (
        2 * l_ct * params.n * BARRETT_INT_MULTS * word_cost_factor(params)
        + (l_ct + 1) * int_mults_per_ntt(params)
    )


def layer_int_mults(
    layer: LinearLayer,
    params: BfvParameters,
    l_pt: int | None = None,
    windowed_rotations: bool = False,
) -> int:
    """Total integer multiplications for a layer (the Fig. 3 x-axis)."""
    ops = layer_op_counts(layer, params, l_pt, windowed_rotations)
    return (
        ops.he_mult * int_mults_per_he_mult(params)
        + ops.he_rotate * int_mults_per_he_rotate(params)
    )


@dataclass(frozen=True)
class KernelIntMults:
    """Integer-mult split by kernel, for profiling-style breakdowns."""

    ntt: int
    rotate_other: int  # HE_Rotate's SIMD products (excluding its NTTs)
    mult: int
    add: int

    @property
    def total(self) -> int:
        return self.ntt + self.rotate_other + self.mult + self.add


def layer_kernel_int_mults(layer: LinearLayer, params: BfvParameters) -> KernelIntMults:
    """Per-kernel integer-mult census (drives the Figure 7 breakdown)."""
    ops = layer_op_counts(layer, params)
    width_cost = word_cost_factor(params)
    ntt = ops.he_rotate * (params.l_ct + 1) * int_mults_per_ntt(params)
    rotate_other = (
        ops.he_rotate * 2 * params.l_ct * params.n * BARRETT_INT_MULTS * width_cost
    )
    mult = ops.he_mult * int_mults_per_he_mult(params)
    # HE_Add has no multiplications; charge its modular adds as an
    # equivalent fraction (adds are ~an order cheaper than mults).
    add = ops.he_add * 2 * params.n * width_cost // 8
    return KernelIntMults(ntt=ntt, rotate_other=rotate_other, mult=mult, add=add)
