"""BFV parameter set (Table II of the paper).

``BfvParameters`` bundles the five tunable parameters HE-PTune explores --
ring dimension n, plaintext modulus t, ciphertext modulus q, plaintext
(weight) decomposition base Wdcmp and ciphertext (activation)
decomposition base Adcmp -- plus the fixed encryption noise deviation
sigma.  Derived quantities (delta = floor(q/t), digit counts l_pt and
l_ct, noise-budget capacity) are computed here so every other module
shares one definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .decompose import MAX_WORD_BASE_BITS
from .modmath import generate_plain_modulus, is_prime
from .ntt import MAX_NTT_MODULUS_BITS
from .rns import RnsBasis
from .security import estimated_security_level, is_secure

#: Standard deviation of the encryption noise (fixed per Table II).
DEFAULT_SIGMA = 3.19

#: Noise bound B = 6 * sigma used throughout the paper's noise models.
def noise_bound(sigma: float = DEFAULT_SIGMA) -> float:
    return 6.0 * sigma


@dataclass(frozen=True)
class BfvParameters:
    """A concrete, instantiable BFV parameter set.

    Parameters
    ----------
    n:
        Polynomial degree / ciphertext slot count (power of two).
    plain_modulus:
        Prime t with t = 1 mod 2n (enables batching), below the one limb
        bound 2^MAX_NTT_MODULUS_BITS (the batch encoder transforms mod t).
    coeff_basis:
        RNS basis whose product is the ciphertext modulus q.
    w_dcmp_bits:
        log2 of the plaintext (weight) decomposition base Wdcmp.  The
        Gazelle baseline windows weights; Cheetah's Sched-PA avoids
        plaintext decomposition entirely (l_pt = 1).
    a_dcmp_bits:
        log2 of the ciphertext (activation) decomposition base Adcmp used
        by HE_Rotate key switching.
    sigma:
        Encryption noise standard deviation.
    """

    n: int
    plain_modulus: int
    coeff_basis: RnsBasis
    w_dcmp_bits: int = 20
    a_dcmp_bits: int = 10
    sigma: float = DEFAULT_SIGMA
    require_security: bool = field(default=True)

    def __post_init__(self):
        if self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two, got {self.n}")
        t = self.plain_modulus
        if not (1 < t < 1 << MAX_NTT_MODULUS_BITS and is_prime(t)) or (t - 1) % (2 * self.n):
            raise ValueError(
                f"plain modulus {t} is no prime = 1 mod 2n below 2^{MAX_NTT_MODULUS_BITS}"
            )
        if self.w_dcmp_bits < 1 or self.a_dcmp_bits < 1:
            raise ValueError("decomposition bases must be at least 2 (1 bit)")
        if self.a_dcmp_bits > MAX_WORD_BASE_BITS:
            raise ValueError(
                f"Adcmp is limited to 2^{MAX_WORD_BASE_BITS}: a key-switch digit "
                "must fit a signed 64-bit word"
            )
        if self.require_security and not is_secure(self.n, self.coeff_bits):
            raise ValueError(
                f"(n={self.n}, log q={self.coeff_bits}) fails 128-bit security"
            )

    @classmethod
    def create(
        cls,
        n: int,
        plain_bits: int = 20,
        coeff_bits: int = 54,
        w_dcmp_bits: int = 20,
        a_dcmp_bits: int = 10,
        require_security: bool = True,
    ) -> "BfvParameters":
        """Convenience constructor from bit sizes."""
        plain_modulus = generate_plain_modulus(plain_bits, n)
        basis = RnsBasis.for_bit_budget(coeff_bits, n)
        return cls(
            n=n,
            plain_modulus=plain_modulus,
            coeff_basis=basis,
            w_dcmp_bits=w_dcmp_bits,
            a_dcmp_bits=a_dcmp_bits,
            require_security=require_security,
        )

    @property
    def coeff_modulus(self) -> int:
        """Ciphertext modulus q."""
        return self.coeff_basis.modulus

    @property
    def coeff_bits(self) -> int:
        return self.coeff_basis.bits

    @property
    def delta(self) -> int:
        """Plaintext scaling factor floor(q / t)."""
        return self.coeff_modulus // self.plain_modulus

    @property
    def w_dcmp(self) -> int:
        """Plaintext decomposition base Wdcmp."""
        return 1 << self.w_dcmp_bits

    @property
    def a_dcmp(self) -> int:
        """Ciphertext decomposition base Adcmp."""
        return 1 << self.a_dcmp_bits

    @property
    def l_pt(self) -> int:
        """Number of plaintext digits: ceil(log_Wdcmp t)."""
        return max(1, math.ceil(self.plain_modulus.bit_length() / self.w_dcmp_bits))

    @property
    def l_ct(self) -> int:
        """Number of ciphertext digits: ceil(log_Adcmp q)."""
        return max(1, math.ceil(self.coeff_bits / self.a_dcmp_bits))

    @property
    def slot_count(self) -> int:
        return self.n

    @property
    def row_size(self) -> int:
        """Slots per batching row (SEAL-style 2 x n/2 slot matrix)."""
        return self.n // 2

    @property
    def noise_capacity_bits(self) -> float:
        """log2(q / 2t): the total noise budget of a noiseless ciphertext."""
        return math.log2(self.coeff_modulus / (2 * self.plain_modulus))

    @property
    def security_level(self) -> int:
        return estimated_security_level(self.n, self.coeff_bits)

    def describe(self) -> str:
        return (
            f"BFV(n={self.n}, log t={self.plain_modulus.bit_length()}, "
            f"log q={self.coeff_bits}, Wdcmp=2^{self.w_dcmp_bits}, "
            f"Adcmp=2^{self.a_dcmp_bits}, l_pt={self.l_pt}, l_ct={self.l_ct}, "
            f"sec={self.security_level})"
        )
