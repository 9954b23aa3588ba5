"""From-scratch BFV homomorphic encryption substrate.

This package implements everything Cheetah's experiments need from an HE
library (the paper used Microsoft SEAL 2.3.1): RNS modular arithmetic,
negacyclic NTTs, batch encoding, pt-ct multiplication, rotations with
base-decomposed key switching, and invariant noise budget measurement.
"""

from .counters import GLOBAL_COUNTERS, OpCounters, counting
from .encoder import BatchEncoder, Plaintext
from .keys import GaloisKeys, KeySwitchKey, PublicKey, SecretKey
from .modmath import generate_ntt_primes, generate_plain_modulus, is_prime
from .noise import invariant_noise_budget
from .ntt import NttContext
from .ntt_batch import RnsNttEngine, get_context, get_engine
from .params import BfvParameters, DEFAULT_SIGMA, noise_bound
from .polynomial import Domain, RnsPolynomial
from .rns import RnsBasis
from .scheme import (
    BfvScheme,
    Ciphertext,
    EvalPlaintext,
    HoistedCiphertext,
    HoistedGroup,
)
from .security import is_secure, max_coeff_modulus_bits

__all__ = [
    "GLOBAL_COUNTERS",
    "OpCounters",
    "counting",
    "BatchEncoder",
    "Plaintext",
    "GaloisKeys",
    "KeySwitchKey",
    "PublicKey",
    "SecretKey",
    "generate_ntt_primes",
    "generate_plain_modulus",
    "is_prime",
    "invariant_noise_budget",
    "NttContext",
    "RnsNttEngine",
    "get_context",
    "get_engine",
    "BfvParameters",
    "DEFAULT_SIGMA",
    "noise_bound",
    "Domain",
    "RnsPolynomial",
    "RnsBasis",
    "BfvScheme",
    "Ciphertext",
    "EvalPlaintext",
    "HoistedCiphertext",
    "HoistedGroup",
    "is_secure",
    "max_coeff_modulus_bits",
]
