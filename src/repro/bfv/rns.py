"""Residue Number System (RNS) basis for the ciphertext modulus q.

The paper's ciphertext modulus q is up to ~180 bits; :class:`RnsBasis`
keeps every limb below 2**30, the transforms' bound.  We therefore
represent q as a product of NTT-friendly primes and store every ciphertext
polynomial as a stack of residue polynomials, one row per prime.  CRT
composition/decomposition converts between big-integer coefficients and
residue stacks; it is only needed at noise-measurement and ciphertext
decomposition boundaries, exactly where the paper's lane datapath places
its INTT/Decompose/Compose stages (Figure 9c).

Two compose routes exist.  :meth:`RnsBasis.compose` is the reference: CRT
on object-dtype Python integers, kept for noise measurement and as what
the tests compare against.  The hot paths (key-switch decomposition,
client decryption) never build a Python integer: :func:`compose_words`
runs Garner's mixed-radix algorithm on ``uint64`` limbs and returns each
coefficient as little-endian 32-bit words (a 100-bit coefficient is four
of them), from which :func:`repro.bfv.decompose.split_words` cuts the
base-``Adcmp`` digits and :func:`scale_round_words` computes the BFV
decryption rounding.  These are the numpy forms; the C kernel
(``_ntt_kernel.c``) runs the same compose on the same 32-bit words with
the same tables (:func:`garner_tables`) -- one helper for the hoist's
Decompose and decryption's exact rounding -- and
:class:`~repro.bfv.ntt_batch.RnsNttEngine` dispatches between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .modmath import generate_ntt_primes, invmod
from .ntt import MAX_NTT_MODULUS_BITS

_U32 = np.uint64(32)
_MASK32 = np.uint64(0xFFFFFFFF)


@dataclass(frozen=True)
class GarnerTables:
    """Constants of the mixed-radix compose for one ordered set of moduli."""

    #: (k,) moduli p_i.
    primes: np.ndarray
    #: (k, k): row i, column j < i holds p_j^-1 mod p_i.
    inv: np.ndarray
    #: 32-bit Shoup quotients floor(inv << 32 / p_i) of ``inv`` (C kernel).
    inv_shoup: np.ndarray
    #: (k,) the least multiple of p_i at or above 2^30: keeps ``u + lift_i -
    #: v_j`` non-negative for any mixed-radix digit ``v_j`` of another limb.
    lift: np.ndarray
    #: q as ``words32 + 2`` little-endian 32-bit words, zero-padded.
    q_words: np.ndarray
    modulus: int

    @property
    def words32(self) -> int:
        return -(-self.modulus.bit_length() // 32)


@lru_cache(maxsize=None)
def garner_tables(moduli: tuple[int, ...]) -> GarnerTables:
    k = len(moduli)
    bound = 1 << MAX_NTT_MODULUS_BITS
    if max(moduli) >= bound:
        raise ValueError(f"limb moduli must stay below 2^{MAX_NTT_MODULUS_BITS}")
    inv = np.zeros((k, k), dtype=np.uint64)
    inv_shoup = np.zeros((k, k), dtype=np.uint64)
    for i, p in enumerate(moduli):
        for j in range(i):
            value = invmod(moduli[j] % p, p)
            inv[i, j] = value
            inv_shoup[i, j] = (value << 32) // p
    modulus = 1
    for p in moduli:
        modulus *= p
    return GarnerTables(
        primes=np.array(moduli, dtype=np.uint64),
        inv=inv,
        inv_shoup=inv_shoup,
        lift=np.array([-(-bound // p) * p for p in moduli], dtype=np.uint64),
        q_words=_to_words(modulus, 32, -(-modulus.bit_length() // 32) + 2),
        modulus=modulus,
    )


def _to_words(value: int, bits: int, count: int) -> np.ndarray:
    mask = (1 << bits) - 1
    return np.array(
        [(value >> (bits * w)) & mask for w in range(count)], dtype=np.uint64
    )


def compose_words(residues: np.ndarray, tables: GarnerTables) -> np.ndarray:
    """Residue stack ``(k, ...)`` -> coefficients in [0, q) as 32-bit words.

    Returns ``(words32, ...)`` uint64, least significant word first; the
    value equals :meth:`RnsBasis.compose` of the same residues.  Garner:
    ``v_i = (..((r_i - v_0) p_0^-1 - v_1) p_1^-1 ..) mod p_i`` gives
    ``x = v_0 + p_0 (v_1 + p_1 (v_2 + ...))``, evaluated by Horner on
    words (``word * p_i + carry < 2^62`` for moduli below 2^30).
    """
    residues = np.asarray(residues)
    if residues.dtype != np.uint64:
        residues = residues.astype(np.int64, copy=False).view(np.uint64)
    primes, k = tables.primes, len(tables.primes)
    digits = [residues[0]]
    for i in range(1, k):
        u = residues[i]
        for j in range(i):
            u = (u + tables.lift[i] - digits[j]) % primes[i] * tables.inv[i, j] % primes[i]
        digits.append(u)
    words = [digits[-1]] + [np.zeros_like(digits[-1])] * (tables.words32 - 1)
    for i in range(k - 2, -1, -1):
        carry = digits[i]
        for w in range(len(words)):
            total = words[w] * primes[i] + carry
            words[w] = total & _MASK32
            carry = total >> _U32
    return np.stack(words)


def scale_round_words(words: np.ndarray, tables: GarnerTables, t: int) -> np.ndarray:
    """BFV decryption rounding ``floor((2 t x + q) / 2q) mod t`` on word stacks.

    ``words`` is :func:`compose_words` output; returns int64 of its tail
    shape.  Exactly the object-integer formula of the reference route,
    ties included: the quotient is at most ``t < 2^31``, so a float64
    estimate lands within one of it and the exact multiword remainder
    decides which.
    """
    if t >= 1 << 31:
        raise ValueError("plain modulus must stay below 2^31")
    count = words.shape[0] + 2
    q, q_words = tables.modulus, tables.q_words
    den = _to_words(2 * q, 32, count)
    tail = words.shape[1:]
    # num = 2 t x + q, word by word (word * 2t + carry < 2^64).
    num = np.zeros((count,) + tail, dtype=np.uint64)
    carry = np.zeros(tail, dtype=np.uint64)
    for w in range(count):
        total = carry + q_words[w]
        if w < words.shape[0]:
            total = total + words[w] * np.uint64(2 * t)
        num[w] = total & _MASK32
        carry = total >> _U32
    scales = [float(1 << (32 * w)) for w in range(count)]
    num_f = sum(num[w].astype(np.float64) * scales[w] for w in range(count))
    quot = np.floor(num_f / float(2 * q)).astype(np.uint64)
    low = _borrows(num, quot, den)
    high = _borrows(num, quot + np.uint64(1), den)
    quot = np.where(low, quot - np.uint64(1), np.where(high, quot, quot + np.uint64(1)))
    return (quot % np.uint64(t)).astype(np.int64)


def _borrows(num: np.ndarray, quot: np.ndarray, den: np.ndarray) -> np.ndarray:
    """True where ``num < quot * den`` (32-bit word stacks, exact)."""
    borrow = np.zeros(quot.shape, dtype=np.int64)
    carry = np.zeros(quot.shape, dtype=np.uint64)
    for w in range(num.shape[0]):
        total = quot * den[w] + carry
        carry = total >> _U32
        diff = num[w].astype(np.int64) - (total & _MASK32).astype(np.int64) - borrow
        borrow = (diff < 0).astype(np.int64)
    return borrow.astype(bool)


class RnsBasis:
    """An ordered set of coprime NTT-friendly moduli whose product is q."""

    def __init__(self, primes: list[int]):
        if not primes:
            raise ValueError("RNS basis requires at least one prime")
        if len(set(primes)) != len(primes):
            raise ValueError("RNS primes must be distinct")
        if max(primes) >= 1 << MAX_NTT_MODULUS_BITS:
            raise ValueError(f"RNS primes must stay below 2^{MAX_NTT_MODULUS_BITS}")
        self.primes = list(primes)
        self.modulus = 1
        for prime in primes:
            self.modulus *= prime
        #: Cached (k, 1) int64 column for broadcasting residue arithmetic.
        self.primes_column = np.array(self.primes, dtype=np.int64)[:, None]
        # CRT reconstruction constants: q_i = q / p_i, and q_i^{-1} mod p_i,
        # hoisted into object-dtype columns so compose() is one broadcast.
        self._punctured = [self.modulus // p for p in primes]
        self._punctured_inv = [
            invmod(self._punctured[i] % p, p) for i, p in enumerate(primes)
        ]
        self._punctured_col = np.array(self._punctured, dtype=object)[:, None]
        self._punctured_inv_col = np.array(self._punctured_inv, dtype=object)[:, None]
        self._primes_obj_col = np.array(self.primes, dtype=object)[:, None]

    @classmethod
    def for_bit_budget(cls, total_bits: int, n: int, limb_bits: int = 30) -> "RnsBasis":
        """Build a basis whose product has roughly ``total_bits`` bits.

        Limbs are drawn from ``limb_bits``-bit NTT-friendly primes; the last
        limb shrinks to fit the remaining budget (minimum 20 bits so batch
        encoding remains possible).
        """
        if total_bits < 20:
            raise ValueError("coefficient modulus needs at least 20 bits")
        count = max(1, -(-total_bits // limb_bits))
        base, extra = divmod(total_bits, count)
        sizes = [base + 1] * extra + [base] * (count - extra)
        primes: list[int] = []
        for size in sizes:
            candidates = generate_ntt_primes(size, n, len(primes) + 1)
            fresh = [p for p in candidates if p not in primes]
            primes.append(fresh[-1])
        return cls(primes)

    @property
    def count(self) -> int:
        return len(self.primes)

    @property
    def bits(self) -> int:
        return self.modulus.bit_length()

    def decompose(self, coeffs: np.ndarray) -> np.ndarray:
        """Big-integer coefficients -> residue stack of shape (k, n)."""
        coeffs = np.asarray(coeffs, dtype=object) % self.modulus
        rows = [
            (coeffs % prime).astype(np.int64) for prime in self.primes
        ]
        return np.stack(rows)

    def compose(self, residues: np.ndarray) -> np.ndarray:
        """Residue stack (k, n) -> big-integer coefficients in [0, q)."""
        residues = np.asarray(residues)
        if residues.shape[0] != self.count:
            raise ValueError(
                f"expected {self.count} residue rows, got {residues.shape[0]}"
            )
        tail_shape = residues.shape[1:]
        flat = residues.reshape(self.count, -1).astype(object)
        terms = (flat * self._punctured_inv_col) % self._primes_obj_col
        total = (terms * self._punctured_col).sum(axis=0) % self.modulus
        return total.reshape(tail_shape)

    def decompose_stack(self, coeff_arrays) -> np.ndarray:
        """Big-integer coefficient arrays -> residue stack of shape (k, B, n).

        Batched companion to :meth:`decompose`: all B polynomials are
        reduced against each prime in one vectorised pass, ready for a
        single batched NTT (the key-switching digit pipeline).
        """
        stacked = np.stack([np.asarray(c, dtype=object) for c in coeff_arrays])
        rows = [(stacked % prime).astype(np.int64) for prime in self.primes]
        return np.stack(rows)

    def __repr__(self) -> str:
        return f"RnsBasis(primes={self.primes}, bits={self.bits})"
