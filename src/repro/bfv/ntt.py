"""Negacyclic Number Theoretic Transform over Z_p[x]/(x^n + 1).

The NTT is the dominant kernel of HE inference (55.2% of ResNet50 run time
in Figure 7 of the paper).  This module implements the psi-twisted radix-2
transform: for psi a primitive 2n-th root of unity mod p, the forward
transform returns the evaluations ``a(psi^(2j+1))`` in natural order j,
which is the property the batch encoder (:mod:`repro.bfv.encoder`) relies
on to map slots to evaluation points.

Kernels are vectorised with numpy int64; all coefficient moduli are kept
below 2**30 so that products fit in 63 bits without overflow.  Butterfly
counts are recorded on the global counters using the paper's accounting
(n/2 * log2 n butterflies per transform, 3 integer multiplications per
Harvey butterfly).

:class:`NttContext` is the single-limb *reference* implementation: the
hot path now runs through the batched, lazily-reduced
:class:`~repro.bfv.ntt_batch.RnsNttEngine`, which is cross-checked
bit-exactly against this module in ``tests/test_ntt_batch.py``.
"""

from __future__ import annotations

import numpy as np

from .counters import GLOBAL_COUNTERS
from .modmath import invmod, root_of_unity

#: Moduli must stay below this bound so int64 products cannot overflow,
#: and so the C transforms' lazy values (below 4p) fit the 32-bit Shoup
#: product of ``_ntt_kernel.c``.
MAX_NTT_MODULUS_BITS = 30


def bit_reverse_indices(n: int) -> np.ndarray:
    """Return the bit-reversal permutation of range(n); n a power of two."""
    bits = n.bit_length() - 1
    if bits == 0:
        return np.zeros(n, dtype=np.int64)
    indices = np.arange(n, dtype=np.int64)
    shifts = np.arange(bits, dtype=np.int64)
    table = ((indices[:, None] >> shifts) & 1) << (bits - 1 - shifts)
    return table.sum(axis=1)


class NttContext:
    """Precomputed tables for negacyclic NTTs of length n modulo p."""

    def __init__(self, n: int, modulus: int):
        if n & (n - 1) or n < 2:
            raise ValueError(f"n must be a power of two >= 2, got {n}")
        if modulus.bit_length() > MAX_NTT_MODULUS_BITS:
            raise ValueError(
                f"modulus {modulus} exceeds {MAX_NTT_MODULUS_BITS} bits; "
                "int64 NTT kernels would overflow"
            )
        if (modulus - 1) % (2 * n):
            raise ValueError(f"modulus must satisfy p = 1 mod 2n for n={n}")
        self.n = n
        self.modulus = modulus
        self.psi = root_of_unity(2 * n, modulus)
        self.omega = self.psi * self.psi % modulus
        self._bitrev = bit_reverse_indices(n)
        self._psi_powers = self._powers(self.psi, n)
        self._ipsi_powers = self._powers(invmod(self.psi, modulus), n)
        self._n_inv = invmod(n, modulus)
        stages = n.bit_length() - 1
        self._stage_twiddles = []
        self._stage_itwiddles = []
        omega_inv = invmod(self.omega, modulus)
        for stage in range(stages):
            length = 2 << stage
            stride = n // length
            exponents = np.arange(length // 2, dtype=np.int64) * stride
            self._stage_twiddles.append(self._power_array(self.omega, exponents))
            self._stage_itwiddles.append(self._power_array(omega_inv, exponents))

    def _powers(self, base: int, count: int) -> np.ndarray:
        powers = np.empty(count, dtype=np.int64)
        value = 1
        for i in range(count):
            powers[i] = value
            value = value * base % self.modulus
        return powers

    def _power_array(self, base: int, exponents: np.ndarray) -> np.ndarray:
        return np.array(
            [pow(base, int(e), self.modulus) for e in exponents], dtype=np.int64
        )

    def forward(self, coeffs: np.ndarray, count_ops: bool = True) -> np.ndarray:
        """Negacyclic forward transform: coefficients -> evaluations.

        Output index j holds ``a(psi^(2j+1))``.  Accepts shape (..., n).
        """
        values = np.asarray(coeffs, dtype=np.int64) % self.modulus
        values = values * self._psi_powers % self.modulus
        result = self._transform(values, self._stage_twiddles)
        if count_ops:
            GLOBAL_COUNTERS.add_ntt(self.n, count=int(np.prod(values.shape[:-1], initial=1)))
        return result

    def inverse(self, evals: np.ndarray, count_ops: bool = True) -> np.ndarray:
        """Negacyclic inverse transform: evaluations -> coefficients."""
        values = np.asarray(evals, dtype=np.int64) % self.modulus
        result = self._transform(values, self._stage_itwiddles)
        result = result * self._n_inv % self.modulus
        result = result * self._ipsi_powers % self.modulus
        if count_ops:
            GLOBAL_COUNTERS.add_ntt(self.n, count=int(np.prod(values.shape[:-1], initial=1)))
        return result

    def _transform(self, values: np.ndarray, twiddles: list[np.ndarray]) -> np.ndarray:
        n = self.n
        modulus = self.modulus
        batch_shape = values.shape[:-1]
        work = values.reshape(-1, n)[:, self._bitrev].copy()
        for stage, stage_twiddle in enumerate(twiddles):
            length = 2 << stage
            half = length // 2
            blocks = work.reshape(work.shape[0], n // length, length)
            even = blocks[:, :, :half].copy()
            odd = blocks[:, :, half:] * stage_twiddle % modulus
            blocks[:, :, :half] = (even + odd) % modulus
            blocks[:, :, half:] = (even - odd) % modulus
            work = blocks.reshape(work.shape[0], n)
        return work.reshape(*batch_shape, n)

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply two coefficient-domain polynomials mod (x^n + 1, p)."""
        a_eval = self.forward(a)
        b_eval = self.forward(b)
        product = a_eval * b_eval % self.modulus
        GLOBAL_COUNTERS.add_modmuls(self.n)
        return self.inverse(product)

    def pointwise(self, a_eval: np.ndarray, b_eval: np.ndarray) -> np.ndarray:
        """Element-wise modular product of evaluation-domain polynomials."""
        elements = int(np.prod(np.broadcast_shapes(a_eval.shape, b_eval.shape), initial=1))
        GLOBAL_COUNTERS.add_modmuls(elements)
        return a_eval * b_eval % self.modulus


def naive_negacyclic_multiply(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """Schoolbook negacyclic product; O(n^2) reference for tests."""
    a = [int(x) for x in a]
    b = [int(x) for x in b]
    n = len(a)
    result = [0] * n
    for i in range(n):
        for j in range(n):
            index = i + j
            term = a[i] * b[j]
            if index >= n:
                result[index - n] = (result[index - n] - term) % modulus
            else:
                result[index] = (result[index] + term) % modulus
    return np.array(result, dtype=np.int64)
