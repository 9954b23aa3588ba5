"""Modular arithmetic primitives for the BFV substrate.

Provides deterministic Miller-Rabin primality testing, generation of
NTT-friendly primes (p = 1 mod 2n, required for negacyclic NTTs and for
batch encoding), primitive roots of unity, and a scalar Barrett reducer
mirroring the reduction strategy the paper assumes (five integer
multiplications per modular multiplication, Section IV-A).

Vectorised kernels in :mod:`repro.bfv.ntt` use numpy's native ``%`` for
speed; the Barrett reducer here documents and tests the exact algorithm
the op-count accounting is based on.
"""

from __future__ import annotations

import numpy as np

# Witnesses sufficient for deterministic Miller-Rabin below 3.3e24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(candidate: int) -> bool:
    """Deterministic Miller-Rabin primality test for 64-bit integers."""
    if candidate < 2:
        return False
    for small in _MR_WITNESSES:
        if candidate == small:
            return True
        if candidate % small == 0:
            return False
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for witness in _MR_WITNESSES:
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = x * x % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_ntt_primes(bit_size: int, n: int, count: int) -> list[int]:
    """Return ``count`` distinct primes of ``bit_size`` bits with p = 1 mod 2n.

    Primes are searched downward from 2**bit_size so the largest candidates
    (maximal noise budget for the bit size) are preferred, matching how HE
    libraries provision coefficient moduli.
    """
    if n & (n - 1):
        raise ValueError(f"n must be a power of two, got {n}")
    modulus_step = 2 * n
    candidate = (1 << bit_size) - modulus_step + 1
    candidate -= (candidate - 1) % modulus_step
    primes: list[int] = []
    while len(primes) < count:
        if candidate < (1 << (bit_size - 1)):
            raise ValueError(
                f"exhausted {bit_size}-bit primes with p = 1 mod {modulus_step}"
            )
        if is_prime(candidate):
            primes.append(candidate)
        candidate -= modulus_step
    return primes


def generate_plain_modulus(bit_size: int, n: int) -> int:
    """Return the largest ``bit_size``-bit prime t with t = 1 mod 2n.

    The congruence enables batch (SIMD slot) encoding, Section III-B of the
    paper.
    """
    return generate_ntt_primes(bit_size, n, 1)[0]


def primitive_root(modulus: int) -> int:
    """Find the smallest primitive root of a prime modulus."""
    if not is_prime(modulus):
        raise ValueError(f"{modulus} is not prime")
    order = modulus - 1
    factors = _prime_factors(order)
    for generator in range(2, modulus):
        if all(pow(generator, order // f, modulus) != 1 for f in factors):
            return generator
    raise ValueError(f"no primitive root found for {modulus}")


def root_of_unity(order: int, modulus: int) -> int:
    """Return a primitive ``order``-th root of unity modulo a prime."""
    if (modulus - 1) % order:
        raise ValueError(f"{modulus} has no {order}-th root of unity")
    generator = primitive_root(modulus)
    root = pow(generator, (modulus - 1) // order, modulus)
    # The construction guarantees root**order == 1; primitivity follows from
    # the generator having full order, but verify the half-order to be safe.
    if pow(root, order // 2, modulus) == 1:
        raise ValueError("root is not primitive")
    return root


def _prime_factors(value: int) -> list[int]:
    factors = []
    divisor = 2
    while divisor * divisor <= value:
        if value % divisor == 0:
            factors.append(divisor)
            while value % divisor == 0:
                value //= divisor
        divisor += 1
    if value > 1:
        factors.append(value)
    return factors


def invmod(value: int, modulus: int) -> int:
    """Modular inverse via Python's built-in extended-gcd pow."""
    return pow(value, -1, modulus)


def centered(values: np.ndarray, modulus: int) -> np.ndarray:
    """Map residues in [0, modulus) to the centered range (-m/2, m/2]."""
    values = np.asarray(values, dtype=object)
    half = modulus // 2
    return np.where(values > half, values - modulus, values)


class BarrettReducer:
    """Scalar Barrett reduction for a fixed modulus.

    Computes ``x mod m`` without division, using the precomputed factor
    ``mu = floor(2**(2k) / m)``.  A modular multiplication through this
    reducer costs five integer multiplications (the product itself plus the
    reduction), which is exactly the constant HE-PTune's performance model
    charges per modular multiplication (Section IV-A).
    """

    def __init__(self, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.modulus = modulus
        self.shift = 2 * modulus.bit_length()
        self.mu = (1 << self.shift) // modulus

    def reduce(self, value: int) -> int:
        """Reduce ``value`` (< modulus**2) modulo the modulus."""
        quotient = (value * self.mu) >> self.shift
        remainder = value - quotient * self.modulus
        if remainder >= self.modulus:
            remainder -= self.modulus
        return remainder

    def mulmod(self, a: int, b: int) -> int:
        """Modular multiplication: 1 product + Barrett reduction, the five
        integer multiplications Section IV-A charges per modmul."""
        return self.reduce(a * b)
