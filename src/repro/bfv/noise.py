"""Invariant noise budget measurement (SEAL-compatible semantics).

The paper's entire tuning story revolves around the *remaining noise
budget* of a ciphertext: ``log2(q / 2t) - log2(|v|)`` where v is the noise
term in ``c0 + c1 s = Delta m + v (mod q)``.  SEAL exposes this as the
invariant noise budget; HE-PTune validates its analytical noise model
against it (Section IV-B).  We reproduce the same measurement over our
own scheme so model-vs-measured comparisons are apples to apples.
"""

from __future__ import annotations

import math

import numpy as np

from .keys import SecretKey
from .scheme import BfvScheme, Ciphertext


def invariant_noise_budget(
    scheme: BfvScheme, ct: Ciphertext, secret: SecretKey
) -> float:
    """Remaining noise budget in bits; <= 0 means decryption may fail.

    Computes ``w = c0 + c1 s mod q``, scales by t, and measures how far
    ``t w`` sits from the nearest multiple of q.  The budget is
    ``log2(q) - log2(2 |t w mod q|_centered)``, identical to SEAL's
    ``invariant_noise_budget``.
    """
    magnitude = noise_magnitude(scheme, ct, secret)
    q = scheme.params.coeff_modulus
    if magnitude == 0:
        return scheme.params.noise_capacity_bits
    return math.log2(q) - math.log2(2 * magnitude)


def noise_magnitude(scheme: BfvScheme, ct: Ciphertext, secret: SecretKey) -> int:
    """Infinity norm of the scaled invariant noise ``t (c0 + c1 s) mod q``."""
    w = scheme._raw_decrypt(ct, secret)
    q = scheme.params.coeff_modulus
    t = scheme.params.plain_modulus
    tw = (w * t) % q
    half = q // 2
    centered = np.where(tw > half, q - tw, tw)
    return int(max(int(v) for v in centered))
