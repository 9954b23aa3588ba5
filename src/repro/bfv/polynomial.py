"""RNS polynomial container and ring operations.

An ``RnsPolynomial`` stores one residue row per coefficient-modulus prime
(shape ``(k, n)`` int64) together with its representation domain.  Cheetah
keeps ciphertext polynomials in the evaluation domain by default and only
converts to the coefficient domain for decomposition (Section III-B of
the paper); the container enforces that discipline by refusing mixed-
domain arithmetic.

Domain conversions and pointwise products route through a batched
:class:`~repro.bfv.ntt_batch.RnsNttEngine`, which transforms the whole
``(k, n)`` residue stack in one pass instead of looping limbs in Python
(the per-limb :class:`~repro.bfv.ntt.NttContext` remains as the reference
implementation the engine is cross-checked against).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .ntt_batch import RnsNttEngine
from .rns import RnsBasis


def _smaller_unsigned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.minimum(a.view(np.uint64), b.view(np.uint64)).view(np.int64)


# Residues are reduced by construction, so a sum, difference or negation is
# off by at most one modulus.  Of ``v`` and ``v -/+ p`` the out-of-range
# candidate is negative, i.e. huge as an unsigned word, so one ``minimum``
# does the conditional subtraction and replaces the int64 ``%`` pass.


def add_mod(a: np.ndarray, b: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """``(a + b) mod p`` for int64 residues already in ``[0, p)``."""
    total = a + b
    return _smaller_unsigned(total, total - primes)


def sub_mod(a: np.ndarray, b: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """``(a - b) mod p`` for int64 residues already in ``[0, p)``."""
    diff = a - b
    return _smaller_unsigned(diff, diff + primes)


def neg_mod(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """``-a mod p`` for int64 residues already in ``[0, p)``."""
    flipped = primes - a
    return _smaller_unsigned(flipped, flipped - primes)


class Domain(Enum):
    COEFF = "coeff"
    EVAL = "eval"


class RnsPolynomial:
    """A polynomial in R_q, stored as residues across an RNS basis."""

    __slots__ = ("basis", "data", "domain")

    def __init__(self, basis: RnsBasis, data: np.ndarray, domain: Domain):
        data = np.asarray(data, dtype=np.int64)
        if data.ndim != 2 or data.shape[0] != basis.count:
            raise ValueError(
                f"expected residue stack of shape ({basis.count}, n), got {data.shape}"
            )
        self.basis = basis
        self.data = data
        self.domain = domain

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, basis: RnsBasis, n: int, domain: Domain = Domain.EVAL) -> "RnsPolynomial":
        return cls(basis, np.zeros((basis.count, n), dtype=np.int64), domain)

    # -- domain conversion -------------------------------------------------

    def to_coeff(self, engine: RnsNttEngine) -> "RnsPolynomial":
        if self.domain is Domain.COEFF:
            return self
        return RnsPolynomial(
            self.basis, engine.inverse(self.data, reduced=True), Domain.COEFF
        )

    def bigint_coeffs(self, engine: RnsNttEngine | None = None) -> np.ndarray:
        """CRT-composed big-integer coefficients in [0, q)."""
        if self.domain is Domain.COEFF:
            poly = self
        elif engine is None:
            raise ValueError("eval-domain polynomial needs an engine to invert")
        else:
            poly = self.to_coeff(engine)
        return poly.basis.compose(poly.data)

    # -- arithmetic ---------------------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.basis is not other.basis and self.basis.primes != other.basis.primes:
            raise ValueError("polynomials belong to different RNS bases")
        if self.domain is not other.domain:
            raise ValueError(
                f"domain mismatch: {self.domain.value} vs {other.domain.value}"
            )

    def add(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        data = add_mod(self.data, other.data, self.basis.primes_column)
        return RnsPolynomial(self.basis, data, self.domain)

    def sub(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        data = sub_mod(self.data, other.data, self.basis.primes_column)
        return RnsPolynomial(self.basis, data, self.domain)

    def pointwise(self, other: "RnsPolynomial", engine: RnsNttEngine) -> "RnsPolynomial":
        """Element-wise product; both operands must be in the eval domain."""
        self._check_compatible(other)
        if self.domain is not Domain.EVAL:
            raise ValueError("pointwise products require the evaluation domain")
        return RnsPolynomial(
            self.basis, engine.pointwise(self.data, other.data), Domain.EVAL
        )

    def copy(self) -> "RnsPolynomial":
        return RnsPolynomial(self.basis, self.data.copy(), self.domain)

    def __repr__(self) -> str:
        return (
            f"RnsPolynomial(k={self.basis.count}, n={self.data.shape[1]}, "
            f"domain={self.domain.value})"
        )


def galois_automorphism_coeffs(coeffs: np.ndarray, galois_elt: int, modulus: int) -> np.ndarray:
    """Apply x -> x^g to big-integer coefficients mod (x^n + 1).

    Coefficient i moves to exponent ``i * g mod 2n``; exponents at or above
    n wrap with a sign flip because x^n = -1 in the negacyclic ring.  The
    object-integer reference: the scheme applies every automorphism as
    :func:`eval_domain_galois_map`'s slot permutation.
    """
    coeffs = np.asarray(coeffs, dtype=object)
    n = coeffs.shape[0]
    indices = (np.arange(n, dtype=np.int64) * galois_elt) % (2 * n)
    result = np.zeros(n, dtype=object)
    wrap = indices >= n
    result[indices[~wrap]] = coeffs[~wrap]
    result[indices[wrap] - n] = (-coeffs[wrap]) % modulus
    return result % modulus


def eval_domain_galois_map(n: int, galois_elt: int) -> np.ndarray:
    """Permutation applying x -> x^g directly on natural-order evaluations.

    The forward NTT places ``a(psi^(2j+1))`` at index j.  Under the
    automorphism, the value at point psi^(2j+1) becomes the original
    polynomial evaluated at psi^((2j+1) * g), so the new index j reads from
    the old index ((2j+1) * g mod 2n - 1) / 2.
    """
    points = (2 * np.arange(n, dtype=np.int64) + 1) * galois_elt % (2 * n)
    return (points - 1) // 2
