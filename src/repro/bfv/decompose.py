"""Polynomial decomposition (Section III-B2 of the paper).

Two decompositions appear in Cheetah:

* **Ciphertext (activation) decomposition**, base ``Adcmp``: HE_Rotate's
  key switching splits the big-integer coefficients of a ciphertext
  polynomial into ``l_ct = ceil(log_Adcmp q)`` small digit polynomials so
  the keyswitch noise grows additively in ``Adcmp`` instead of ``q``.
* **Plaintext (weight) windowing**, base ``Wdcmp``: the Gazelle baseline
  splits weights into ``l_pt = ceil(log_Wdcmp t)`` windows (the client
  supplies matching scaled ciphertexts) so HE_Mult noise grows with
  ``Wdcmp`` instead of ``t``.  Sched-PA eliminates this entirely.
"""

from __future__ import annotations

import math

import numpy as np


#: Widest digit the word-sized (Python-integer-free) split handles.
MAX_WORD_BASE_BITS = 62


def digit_count(modulus: int, base_bits: int) -> int:
    """Number of base-2**base_bits digits covering values below modulus."""
    return max(1, math.ceil(modulus.bit_length() / base_bits))


def digit_decompose(coeffs: np.ndarray, base_bits: int, num_digits: int) -> list[np.ndarray]:
    """Split nonnegative big-integer coefficients into base-B digits.

    Returns ``num_digits`` arrays with entries in [0, 2**base_bits), least
    significant digit first, satisfying ``sum_i digits[i] << (i*base_bits)
    == coeffs``.
    """
    coeffs = np.asarray(coeffs, dtype=object)
    mask = (1 << base_bits) - 1
    digits = []
    remaining = coeffs.copy()
    for _ in range(num_digits):
        digits.append(remaining & mask)
        remaining = remaining >> base_bits
    if np.any(remaining != 0):
        raise ValueError("coefficients exceed the representable digit range")
    return digits


def split_words(words: np.ndarray, base_bits: int, num_digits: int) -> np.ndarray:
    """:func:`digit_decompose` on 32-bit word stacks, without Python integers.

    ``words`` is ``(W, ...)`` uint64 holding little-endian 32-bit words
    (:func:`repro.bfv.rns.compose_words`); returns ``(num_digits, ...)``
    uint64 digits, least significant first, identical to the reference
    split of the same coefficients.  A digit is a bit field of the word
    string, cut out with shifts and a mask; the caller guarantees
    ``num_digits * base_bits`` covers the values' bit length.
    """
    if not 1 <= base_bits <= MAX_WORD_BASE_BITS:
        raise ValueError(
            f"word digit split supports 1..{MAX_WORD_BASE_BITS} base bits, "
            f"got {base_bits}"
        )
    mask = np.uint64((1 << base_bits) - 1)
    digits = np.zeros((num_digits,) + words.shape[1:], dtype=np.uint64)
    for d in range(num_digits):
        first, shift = divmod(d * base_bits, 32)
        last = min(words.shape[0], -(-((d + 1) * base_bits) // 32))
        for w in range(first, last):
            lift = 32 * (w - first) - shift
            if lift < 0:
                digits[d] |= words[w] >> np.uint64(-lift)
            else:
                digits[d] |= words[w] << np.uint64(lift)
        digits[d] &= mask
    return digits


def digit_compose(digits: list[np.ndarray], base_bits: int) -> np.ndarray:
    """Inverse of :func:`digit_decompose`."""
    total = np.zeros_like(np.asarray(digits[0], dtype=object))
    for i, digit in enumerate(digits):
        total = total + (np.asarray(digit, dtype=object) << (i * base_bits))
    return total
