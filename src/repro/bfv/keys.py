"""Key material for the BFV scheme: secret, public, and Galois keys.

Galois (rotation) keys are key-switching keys with base-``Adcmp`` digit
decomposition: one pair of polynomials per digit.  The decomposition base
is the ``Adcmp`` parameter HE-PTune tunes (Table II); larger bases mean
fewer digits (cheaper HE_Rotate) but more additive noise per rotation
(Table III).

A key-switching key is stored as one ``uint32`` stack (exact: every
residue is below its limb's modulus, below 2^30), in the slot order of the
digits it multiplies, so the rotation kernel sums over contiguous rows and
gathers only its outputs (``RnsNttEngine.keyswitch_rotate``).  It is the
only copy a served session keeps resident: ``2 * k * l_ct * n * 4`` bytes
per Galois element (:attr:`GaloisKeys.nbytes`), and the body
:mod:`repro.bfv.serialize` ships verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import native
from .polynomial import Domain, RnsPolynomial, eval_domain_galois_map
from .rns import RnsBasis


@dataclass
class SecretKey:
    """Ternary secret polynomial, kept in both domains."""

    coeffs: np.ndarray  # signed small coefficients, shape (n,)
    eval_poly: RnsPolynomial  # evaluation-domain residues


@dataclass
class PublicKey:
    """Encryption key pair (p0, p1) = (-(a s + e), a), evaluation domain."""

    p0: RnsPolynomial
    p1: RnsPolynomial


@dataclass(eq=False, frozen=True)
class KeySwitchKey:
    """Key switching key from a foreign secret s' = s(x^galois_elt) to s.

    Digit pair ``i`` encrypts ``Adcmp**i * s'`` under s:
    ``(-(a_i s + e_i) + Adcmp**i s', a_i)``.  ``stack[0, :, i]`` holds
    the body and ``stack[1, :, i]`` the ``a`` of pair ``i`` (one
    C-contiguous ``uint32`` ``(2, k, l_ct, n)`` array), as eval-domain
    residues with slot ``j`` at ``g(j)``, g the eval map of ``galois_elt``
    -- the order in which ``s'`` reads as ``s`` itself.  The layout is
    checked here, once, and :attr:`address` kept: the rotation kernel reads
    the stack through it unchecked.  Immutable, and pickled by value, so
    the address always belongs to this key's own stack.
    """

    stack: np.ndarray
    base_bits: int
    galois_elt: int
    basis: RnsBasis = field(repr=False)

    def __post_init__(self):
        stack, k = self.stack, self.basis.count
        if not (stack.dtype == np.uint32 and stack.flags.c_contiguous and stack.shape[:2] == (2, k)
                and stack.ndim == 4):
            raise ValueError(f"a key stack must be C-contiguous uint32 (2, {k}, L, n), got "
                             f"{stack.shape} ({stack.dtype})")
        object.__setattr__(self, "address", native.address(stack))

    def __reduce__(self):
        return KeySwitchKey, (self.stack, self.base_bits, self.galois_elt, self.basis)

    @property
    def depth(self) -> int:
        """Number of digit pairs."""
        return self.stack.shape[2]

    @property
    def pairs(self) -> list[tuple[RnsPolynomial, RnsPolynomial]]:
        """Natural-order digit pairs as int64 polynomials, built on request (for tests)."""
        order = eval_domain_galois_map(self.stack.shape[-1], self.galois_elt)
        wide = self.stack[..., order].astype(np.int64)
        return [
            (
                RnsPolynomial(self.basis, wide[0, :, i], Domain.EVAL),
                RnsPolynomial(self.basis, wide[1, :, i], Domain.EVAL),
            )
            for i in range(self.depth)
        ]


@dataclass
class GaloisKeys:
    """Key-switching keys per Galois element, for HE_Rotate."""

    keys: dict[int, KeySwitchKey] = field(default_factory=dict)

    def key_for(self, galois_elt: int) -> KeySwitchKey:
        try:
            return self.keys[galois_elt]
        except KeyError:
            raise KeyError(
                f"no Galois key for element {galois_elt}; generate it with "
                "BfvScheme.generate_galois_keys"
            ) from None

    def __contains__(self, galois_elt: int) -> bool:
        return galois_elt in self.keys

    @property
    def nbytes(self) -> int:
        """Resident key bytes: ``2 * k * l_ct * n * 4`` per Galois element."""
        return sum(key.stack.nbytes for key in self.keys.values())
