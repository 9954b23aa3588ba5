"""The BFV scheme: keygen, encryption, and the three HE operators.

Implements the complete operator set the paper builds on (Section III):

* ``HE_Add`` -- element-wise ciphertext addition (additive noise).
* ``HE_Mult`` -- plaintext-ciphertext multiplication in the evaluation
  domain (multiplicative noise), with optional Gazelle-style plaintext
  windowing for the Sched-IA baseline.
* ``HE_Rotate`` -- slot rotation via Galois automorphism plus key
  switching with base-``Adcmp`` ciphertext decomposition (additive noise,
  2*l_ct polynomial products and l_ct + 1 NTTs per invocation, exactly
  the operation census HE-PTune's performance model assumes).

Ciphertext polynomials live in the evaluation domain by default; only the
key-switching digit decomposition round-trips through the coefficient
domain, mirroring Cheetah's pipeline (Figure 9c: Swap -> INTT ->
Decompose -> NTT -> SIMDmult -> Compose).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counters import GLOBAL_COUNTERS
from .decompose import digit_decompose, digit_count
from .encoder import BatchEncoder, Plaintext
from .keys import GaloisKeys, KeySwitchKey, PublicKey, SecretKey
from .ntt_batch import get_engine
from .params import BfvParameters
from .polynomial import (
    Domain,
    RnsPolynomial,
    eval_domain_galois_map,
    galois_automorphism_coeffs,
)


@dataclass
class Ciphertext:
    """A BFV ciphertext (c0, c1), evaluation domain."""

    c0: RnsPolynomial
    c1: RnsPolynomial

    def copy(self) -> "Ciphertext":
        return Ciphertext(self.c0.copy(), self.c1.copy())


@dataclass
class HoistedCiphertext:
    """A ciphertext with its key-switching decomposition precomputed.

    Produced by :meth:`BfvScheme.hoist`; consumed by
    :meth:`BfvScheme.rotate_rows_hoisted`.
    """

    c0: RnsPolynomial
    c1: RnsPolynomial
    #: Eval-domain ``(k, l_ct, n)`` digit stack (every rotation reads it).
    digits: np.ndarray

    def digit_stack(self) -> np.ndarray:
        return self.digits

    @property
    def digit_polys(self) -> list[RnsPolynomial]:
        """The digits as polynomials, built on request (rotations use the stack)."""
        return [
            RnsPolynomial(self.c0.basis, self.digits[:, b], Domain.EVAL)
            for b in range(self.digits.shape[1])
        ]


@dataclass
class HoistedGroup:
    """A batch of ``B`` hoisted ciphertexts, stacked.

    Produced by :meth:`BfvScheme.hoist_group`: ``c0`` / ``c1`` are the
    ``(k, B, n)`` ciphertext halves and ``digits`` the ``(k, B, l_ct, n)``
    decomposition of ``c1`` (``None`` for a group that is never rotated),
    so every rotation of the batch, each member by its own steps, runs in
    one kernel call (:meth:`BfvScheme.rotate_rows_group`).
    """

    c0: np.ndarray
    c1: np.ndarray
    digits: np.ndarray | None


class EvalPlaintext:
    """A plaintext pre-lifted to the evaluation domain of every q prime.

    Pre-encoding weights this way is how Cheetah avoids NTTs inside
    HE_Mult (Section III-B: "Cheetah keeps polynomials in the evaluation
    space").
    """

    __slots__ = ("poly",)

    def __init__(self, poly: RnsPolynomial):
        self.poly = poly


class BfvScheme:
    """A fully usable BFV context bound to one parameter set."""

    def __init__(self, params: BfvParameters, seed: int | None = None):
        self.params = params
        self.rng = np.random.default_rng(seed)
        #: Batched RNS-NTT engine shared (memoized) across schemes with the
        #: same parameters; transforms all limbs of a polynomial in one pass.
        self.engine = get_engine(params.n, params.coeff_basis.primes)
        #: Per-limb reference contexts (kept for cross-checks and tooling).
        self.contexts = self.engine.contexts
        self.encoder = BatchEncoder(params)
        self._galois_eval_maps: dict[int, np.ndarray] = {}
        # delta mod p_i per limb: lets Delta * m scaling run in int64 limb
        # arithmetic (see _delta_residues).  Products need plain bits +
        # limb bits < 63; parameter sets outside that fall back to object.
        primes = params.coeff_basis.primes
        self._delta_mod_primes = np.array(
            [params.delta % p for p in primes], dtype=np.int64
        )
        self._delta_needs_object = (
            params.plain_modulus.bit_length() + max(p.bit_length() for p in primes)
            >= 63
        )

    # -- sampling ----------------------------------------------------------

    def _sample_ternary(self) -> np.ndarray:
        return self.rng.integers(-1, 2, self.params.n, dtype=np.int64)

    def _sample_error(self) -> np.ndarray:
        sigma = self.params.sigma
        samples = np.rint(self.rng.normal(0.0, sigma, self.params.n)).astype(np.int64)
        bound = int(np.ceil(6 * sigma))
        return np.clip(samples, -bound, bound)

    def _sample_uniform_eval(self) -> RnsPolynomial:
        rows = [
            self.rng.integers(0, prime, self.params.n, dtype=np.int64)
            for prime in self.params.coeff_basis.primes
        ]
        return RnsPolynomial(self.params.coeff_basis, np.stack(rows), Domain.EVAL)

    def _small_to_eval(self, coeffs: np.ndarray) -> RnsPolynomial:
        poly = RnsPolynomial.from_small_coeffs(self.params.coeff_basis, coeffs)
        return poly.to_eval(self.engine)

    # -- key generation ------------------------------------------------------

    def keygen(self) -> tuple[SecretKey, PublicKey]:
        """Sample a ternary secret and its public encryption key.

        Both keys hold evaluation-domain ``(k, n)`` residue stacks (the
        secret additionally keeps its signed coefficients for noise
        measurement and Galois-key generation).
        """
        s_coeffs = self._sample_ternary()
        s_eval = self._small_to_eval(s_coeffs)
        secret = SecretKey(coeffs=s_coeffs, eval_poly=s_eval)

        a = self._sample_uniform_eval()
        e = self._small_to_eval(self._sample_error())
        p0 = a.pointwise(s_eval, self.engine).add(e).neg()
        public = PublicKey(p0=p0, p1=a)
        return secret, public

    def generate_galois_keys(self, secret: SecretKey, steps: list[int]) -> GaloisKeys:
        """Generate rotation keys for the given row-rotation step sizes."""
        keys = GaloisKeys()
        for step in steps:
            elt = self.galois_elt_for_step(step)
            if elt not in keys.keys:
                keys.keys[elt] = self._make_keyswitch_key(secret, elt)
        return keys

    def generate_column_key(self, secret: SecretKey) -> GaloisKeys:
        elt = 2 * self.params.n - 1
        keys = GaloisKeys()
        keys.keys[elt] = self._make_keyswitch_key(secret, elt)
        return keys

    def galois_elt_for_step(self, step: int) -> int:
        """Galois element implementing a left row-rotation by ``step``."""
        row = self.params.n // 2
        return pow(3, step % row, 2 * self.params.n)

    def _make_keyswitch_key(self, secret: SecretKey, galois_elt: int) -> KeySwitchKey:
        params = self.params
        q = params.coeff_modulus
        rotated_secret = galois_automorphism_coeffs(
            secret.coeffs.astype(object) % q, galois_elt, q
        )
        rotated_poly = RnsPolynomial.from_bigint_coeffs(
            params.coeff_basis, rotated_secret
        ).to_eval(self.engine)
        pairs = []
        base_power = 1
        for _ in range(params.l_ct):
            a = self._sample_uniform_eval()
            e = self._small_to_eval(self._sample_error())
            body = (
                a.pointwise(secret.eval_poly, self.engine)
                .add(e)
                .neg()
                .add(rotated_poly.scalar_multiply(base_power))
            )
            pairs.append((body, a))
            base_power = base_power * params.a_dcmp % q
        return KeySwitchKey.from_pairs(pairs, params.a_dcmp_bits, galois_elt)

    # -- encryption / decryption ---------------------------------------------

    def encrypt(self, plaintext: Plaintext, public: PublicKey) -> Ciphertext:
        """Encrypt a plaintext (coefficients mod t) under the public key.

        Returns an evaluation-domain ciphertext carrying fresh noise of
        magnitude ``~2 n sigma`` (Table III's v_fresh); all subsequent
        operator noise compounds from there until :meth:`decrypt`.
        """
        params = self.params
        u = self._small_to_eval(self._sample_ternary())
        e0 = self._sample_error()
        e1 = self._sample_error()
        delta_m = self._delta_times_message(plaintext)
        c0 = (
            public.p0.pointwise(u, self.engine)
            .add(self._small_to_eval(e0))
            .add(delta_m)
        )
        c1 = public.p1.pointwise(u, self.engine).add(self._small_to_eval(e1))
        return Ciphertext(c0, c1)

    def _delta_times_message(self, plaintext: Plaintext) -> RnsPolynomial:
        return RnsPolynomial(
            self.params.coeff_basis,
            self.engine.forward(
                self._delta_residues(plaintext.coeffs[None, :])[:, 0], reduced=True
            ),
            Domain.EVAL,
        )

    def _delta_residues(self, coeffs: np.ndarray) -> np.ndarray:
        """Residues of ``delta * (coeffs mod t)`` for a ``(B, n)`` int64 stack.

        ``delta * m < q`` for every message coefficient ``m < t`` (delta is
        ``floor(q/t)``), so the product never wraps mod q and each residue
        is just ``m * (delta mod p_i) mod p_i`` -- pure int64 limb
        arithmetic, no big-integer CRT.  Results are bit-identical to
        composing ``delta * m`` and decomposing it across the basis.
        """
        params = self.params
        reduced = np.asarray(coeffs, dtype=np.int64) % params.plain_modulus
        delta_residues = self._delta_mod_primes
        # (k, B, n) <- (1, B, n) * (k, 1, 1): products stay below 2^63 only
        # for ~30-bit primes and ~20-bit t; object math would be the
        # fallback, but parameter creation bounds both (see BfvParameters).
        stack = reduced[None, :, :].astype(object) if self._delta_needs_object else reduced[None, :, :]
        residues = (
            stack * delta_residues[:, None, None]
        ) % params.coeff_basis.primes_column[:, :, None]
        if self._delta_needs_object:
            residues = residues.astype(np.int64)
        return residues

    def encrypt_windowed(
        self, values: np.ndarray, public: PublicKey, num_windows: int
    ) -> list[Ciphertext]:
        """Gazelle input windowing: encryptions of x * Wdcmp**i mod t.

        The Sched-IA baseline consumes these so each weight window
        multiplication only injects ``Wdcmp``-bounded noise.
        """
        t = self.params.plain_modulus
        w_base = self.params.w_dcmp
        values = np.asarray(values, dtype=np.int64)
        ciphertexts = []
        scale = 1
        for _ in range(num_windows):
            scaled = (values.astype(object) * scale) % t
            pt = self.encoder.encode(scaled.astype(np.int64))
            ciphertexts.append(self.encrypt(pt, public))
            scale = scale * w_base % t
        return ciphertexts

    def decrypt(self, ct: Ciphertext, secret: SecretKey) -> Plaintext:
        """Decrypt to a plaintext of coefficients mod t.

        Rounds ``(c0 + c1 s) * t / q``; the result is the encrypted
        message exactly as long as the invariant noise stays below 1/2
        (equivalently :func:`~repro.bfv.noise.invariant_noise_budget`
        is positive) -- beyond that, decryption corrupts silently, which
        is what HE-PTune's Table III bounds guard against.  The compose
        and the rounding run on machine words
        (:meth:`~repro.bfv.ntt_batch.RnsNttEngine.scale_round`); the
        result is that of ``((2 t w + q) // 2q) mod t`` on the big
        integers :meth:`_raw_decrypt` returns.
        """
        coeff = self.engine.inverse(self._phase(ct, secret).data, reduced=True)
        return Plaintext(self.engine.scale_round(coeff, self.params.plain_modulus))

    def _phase(self, ct: Ciphertext, secret: SecretKey) -> RnsPolynomial:
        """``c0 + c1 * s`` in the evaluation domain."""
        return ct.c0.add(ct.c1.pointwise(secret.eval_poly, self.engine))

    def _raw_decrypt(self, ct: Ciphertext, secret: SecretKey) -> np.ndarray:
        """Return (c0 + c1 * s) mod q as big-integer coefficients.

        The object-integer route: noise measurement needs the integers
        themselves, :meth:`decrypt` does not and avoids them.
        """
        return self._phase(ct, secret).bigint_coeffs(self.engine)

    # -- HE operators ---------------------------------------------------------

    def add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """HE_Add: slot-wise sum; noise adds (v_a + v_b, Table III)."""
        GLOBAL_COUNTERS.he_add += 1
        return Ciphertext(a.c0.add(b.c0), a.c1.add(b.c1))

    def sub(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        """Slot-wise difference; same additive noise behaviour as :meth:`add`."""
        GLOBAL_COUNTERS.he_add += 1
        return Ciphertext(a.c0.sub(b.c0), a.c1.sub(b.c1))

    def add_plain(self, ct: Ciphertext, plaintext: Plaintext) -> Ciphertext:
        """Add a plaintext into the slots (ct + Delta*m on c0; noise unchanged
        up to the scaling's rounding term -- the cloud's blinding step)."""
        GLOBAL_COUNTERS.he_add += 1
        return Ciphertext(ct.c0.add(self._delta_times_message(plaintext)), ct.c1.copy())

    def encode_for_mul(self, plaintext: Plaintext) -> EvalPlaintext:
        """Lift a plaintext into the q-prime evaluation domain (offline)."""
        return self.encode_coeffs_for_mul(plaintext.coeffs)

    def mul_plain(self, ct: Ciphertext, plain: EvalPlaintext) -> Ciphertext:
        """HE_Mult (pt-ct): element-wise products, no NTTs (Section III-B1).

        Both operands must already be in the evaluation domain (weights
        via :meth:`encode_for_mul`, offline).  Noise is multiplicative:
        ``n * t * v / 2`` against a full-range plaintext (Table III),
        which is why Sched-PA's mask plaintexts and Gazelle's windowing
        exist.
        """
        GLOBAL_COUNTERS.he_mult += 1
        acc0, acc1 = self.engine.weight_accumulate(
            ct.c0.data[:, None], ct.c1.data[:, None], plain.poly.data[:, None]
        )
        return self._ciphertext(acc0, acc1)

    def _ciphertext(self, c0: np.ndarray, c1: np.ndarray) -> Ciphertext:
        """Wrap two eval-domain ``(k, n)`` residue stacks."""
        basis = self.params.coeff_basis
        return Ciphertext(
            RnsPolynomial(basis, c0, Domain.EVAL), RnsPolynomial(basis, c1, Domain.EVAL)
        )

    def ciphertexts(self, stack: np.ndarray) -> list[list[Ciphertext]]:
        """Wrap a ``(2, k, B, U, n)`` stack of halves: ``[b][u]``, as views."""
        return [
            [self._ciphertext(stack[0, :, b, u], stack[1, :, b, u]) for u in range(stack.shape[3])]
            for b in range(stack.shape[2])
        ]

    def encode_coeffs_for_mul(self, coeffs: np.ndarray) -> EvalPlaintext:
        """Lift raw polynomial coefficients (mod t digits) to the eval domain."""
        coeffs = np.asarray(coeffs, dtype=np.int64)
        basis = self.params.coeff_basis
        stack = coeffs[None, :] % basis.primes_column
        poly = RnsPolynomial(
            basis, self.engine.forward(stack, count_ops=False), Domain.EVAL
        )
        return EvalPlaintext(poly)

    def encode_coeffs_stack_for_mul(self, coeffs: np.ndarray) -> np.ndarray:
        """Batch :meth:`encode_coeffs_for_mul`: (T, n) coeffs -> (k, T, n) evals.

        One forward NTT over the whole stack; slice ``[:, i]`` is
        bit-identical to ``encode_coeffs_for_mul(coeffs[i]).poly.data``.
        Offline (weight-compilation) path, so ops are not counted.
        """
        coeffs = np.asarray(coeffs, dtype=np.int64)
        basis = self.params.coeff_basis
        stack = coeffs[None, :, :] % basis.primes_column[:, :, None]
        return self.engine.forward(stack, count_ops=False)

    def mul_plain_accumulate(
        self, cts: list[Ciphertext], plain_stack: np.ndarray
    ) -> Ciphertext:
        """Fused ``sum_i cts[i] * plain_i`` over a stacked eval-domain weight array.

        ``plain_stack`` has shape ``(k, T, n)`` with ``T == len(cts)``: one
        pre-lifted plaintext per ciphertext (the offline-encoded weight
        stacks that :mod:`repro.scheduling.plan` compiles).  Semantically
        identical to T calls of :meth:`mul_plain` folded with
        :meth:`add` -- and accounted as such -- but executed as one
        :meth:`~repro.bfv.ntt_batch.RnsNttEngine.weight_accumulate`
        walk over the whole stack.
        """
        c0_stack = np.stack([ct.c0.data for ct in cts], axis=1)
        c1_stack = np.stack([ct.c1.data for ct in cts], axis=1)
        return self.mul_plain_accumulate_stacked(c0_stack, c1_stack, plain_stack)

    def mul_plain_accumulate_stacked(
        self, c0_stack: np.ndarray, c1_stack: np.ndarray, plain_stack: np.ndarray
    ) -> Ciphertext:
        """:meth:`mul_plain_accumulate` on pre-stacked ``(k, T, n)`` arrays.

        The ``B = 1`` view of :meth:`mul_plain_accumulate_grouped`, which
        does the op accounting for every fused multiply-accumulate.
        """
        if plain_stack.shape != c0_stack.shape:
            raise ValueError(
                f"stack shapes differ: c0 {c0_stack.shape}, weights {plain_stack.shape}"
            )
        return self.mul_plain_accumulate_grouped(
            c0_stack[:, None], c1_stack[:, None], plain_stack
        )[0]

    def mul_plain_windowed(
        self, ct_windows: list[Ciphertext], plaintext: Plaintext
    ) -> Ciphertext:
        """Gazelle's windowed pt-ct multiplication (Section III-B2).

        The plaintext polynomial's coefficients are digit-decomposed in
        base Wdcmp into l_pt small-coefficient windows; window i multiplies
        the client-supplied encryption of ``Wdcmp**i * x``.  Noise per
        window is bounded by n * Wdcmp * v / 2 instead of n * t * v / 2
        (Table III), at the cost of l_pt polynomial products.
        """
        params = self.params
        if len(ct_windows) != params.l_pt:
            raise ValueError(
                f"expected {params.l_pt} windowed ciphertexts, got {len(ct_windows)}"
            )
        coeffs = np.asarray(plaintext.coeffs, dtype=object) % params.plain_modulus
        digits = digit_decompose(coeffs, params.w_dcmp_bits, params.l_pt)
        result: Ciphertext | None = None
        for digit, window_ct in zip(digits, ct_windows):
            plain = self.encode_coeffs_for_mul(digit.astype(np.int64))
            term = self.mul_plain(window_ct, plain)
            result = term if result is None else self.add(result, term)
        return result

    def rotate_rows(self, ct: Ciphertext, step: int, galois_keys: GaloisKeys) -> Ciphertext:
        """HE_Rotate: cyclic left rotation of each slot row by ``step``.

        A step that is a multiple of the row size is the identity Galois
        element 1; it short-circuits to a copy without key switching and
        without counting an HE_Rotate.  Key switching adds noise bounded
        by ``n * Adcmp * l_ct * v_fresh / 2`` (Table III) and costs
        ``l_ct + 1`` NTTs plus ``2 l_ct`` SIMD products -- the operation
        census HE-PTune's performance model assumes.
        """
        if step % self.params.row_size == 0:
            return ct.copy()
        return self.apply_galois(ct, self.galois_elt_for_step(step), galois_keys)

    def rotate_columns(self, ct: Ciphertext, galois_keys: GaloisKeys) -> Ciphertext:
        return self.apply_galois(ct, 2 * self.params.n - 1, galois_keys)

    def apply_galois(
        self, ct: Ciphertext, galois_elt: int, galois_keys: GaloisKeys
    ) -> Ciphertext:
        """The un-hoisted reference rotation: automorphism, then decompose.

        c0 transforms by a pure slot permutation in the evaluation domain.
        c1 requires key switching: INTT -> automorphism -> digit
        decomposition -> one batched NTT over all digits -> fused SIMD
        multiply-accumulate against the key-switch key pairs.  The digits
        are already rotated, so they are scattered into the key's slot
        order first, and the hoisted path's final gather undoes that.
        """
        c1 = ct.c1.data[:, None]
        key_order = np.argsort(self._eval_map(galois_elt))
        digits = self._digit_evals(c1, galois_elt)[..., key_order]
        group = HoistedGroup(ct.c0.data[:, None], c1, digits)
        return self.ciphertexts(self._rotate_group(group, [[galois_elt]], [galois_keys]))[0][0]

    def _eval_map(self, galois_elt: int) -> np.ndarray:
        """Cached eval-domain slot permutation of one Galois element."""
        eval_map = self._galois_eval_maps.get(galois_elt)
        if eval_map is None:
            eval_map = eval_domain_galois_map(self.params.n, galois_elt)
            self._galois_eval_maps[galois_elt] = eval_map
        return eval_map

    def _digit_evals(self, c1: np.ndarray, galois_elt: int = 1) -> np.ndarray:
        """The INTT -> Decompose -> NTT lane of key switching.

        ``c1`` is an eval-domain ``(k, n)`` or ``(k, B, n)`` stack; returns
        the eval-domain base-``Adcmp`` digits ``(k, [B,] l_ct, n)`` of its
        coefficients, taken after ``x -> x^galois_elt`` when that is not
        1 (the un-hoisted rotation; a hoisted one permutes the digits of
        the unrotated ciphertext instead).
        """
        params = self.params
        digits = self.engine.digit_residues(
            self.engine.inverse(c1, reduced=True),
            params.a_dcmp_bits, params.l_ct, galois_elt,
        )
        flat = digits.reshape(digits.shape[0], -1, params.n)
        return self.engine.forward(flat, reduced=True).reshape(digits.shape)

    @staticmethod
    def _switch_key(galois_keys: GaloisKeys, galois_elt: int, depth: int) -> np.ndarray:
        """The ``uint32`` key stack one rotation by ``galois_elt`` reads.

        A key with fewer digit pairs than the ``depth`` digits a ciphertext
        decomposes into would drop the high digits silently, so it is
        refused here.
        """
        ksk = galois_keys.key_for(galois_elt)
        if ksk.depth < depth:
            raise ValueError(
                f"key-switch key for Galois element {galois_elt} has "
                f"{ksk.depth} digit pairs but the ciphertext decomposes "
                f"into {depth} digits; generate the key with the same Adcmp"
            )
        return ksk.stack

    def _rotate_group(
        self,
        group: "HoistedGroup",
        galois_elts: list[list[int]],
        galois_keys: list[GaloisKeys],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Member ``b`` of ``group`` under ``galois_elts[b][s]``: the one rotation path.

        Fills column ``s`` of member ``b`` of ``out`` (``(2, k, *M, S, n)``,
        see :meth:`rotate_rows_group`) and returns it.  Element 1 is the
        identity: a copy of the member, no key and no HE_Rotate.  Every
        other entry is one job of a single
        :meth:`~repro.bfv.ntt_batch.RnsNttEngine.keyswitch_rotate` call, in
        member-major order so a member's digits stay in cache across its
        columns; every job's key is resolved, and a short one refused,
        before ``out`` is written.
        """
        k, batch, n = group.c0.shape
        columns = len(galois_elts[0]) if galois_elts else 0
        if out is None:
            out = np.empty((2, k, batch, columns, n), dtype=np.int64)
        members = out.shape[2:-2]
        if (
            len(galois_elts) != batch or len(galois_keys) != batch
            or out.shape[:2] != (2, k) or out.shape[-2:] != (columns, n)
            or int(np.prod(members)) != batch
        ):
            raise ValueError(
                f"{len(galois_elts)} x {columns} elements under {len(galois_keys)} "
                f"key sets for {batch} members do not fill out {out.shape}"
            )
        maps: dict[int, int] = {}
        jobs, copies, depth = [], [], self.params.l_ct
        for b, row in enumerate(galois_elts):
            for s, elt in enumerate(row):
                if elt == 1:
                    copies.append((b, s))
                else:
                    key = self._switch_key(galois_keys[b], elt, depth)
                    jobs.append((b, maps.setdefault(elt, len(maps)), key, b * columns + s))
        for b, s in copies:
            slot = out[(slice(None), slice(None), *np.unravel_index(b, members), s)]
            slot[0], slot[1] = group.c0[:, b], group.c1[:, b]
        GLOBAL_COUNTERS.he_rotate += len(jobs)
        if jobs:
            maps = [self._eval_map(elt) for elt in maps]
            self.engine.keyswitch_rotate(group.digits, group.c0, maps, jobs, out)
        return out

    # -- hoisted rotations -------------------------------------------------------

    def hoist(self, ct: Ciphertext) -> "HoistedCiphertext":
        """Precompute the key-switching digit decomposition of a ciphertext.

        Gazelle's hoisting optimization: when the same ciphertext is
        rotated by many steps (every dot-product schedule does this), the
        expensive INTT + digit decomposition + per-digit NTT pipeline can
        run once and be shared, because the Galois automorphism is a ring
        automorphism and therefore commutes with the base-B gadget:
        ``sigma_g(sum_i d_i B^i) = sum_i sigma_g(d_i) B^i`` with
        ``sigma_g(d_i)`` still B-bounded.  Each subsequent rotation is
        then only slot permutations plus 2*l_ct SIMD multiplies.
        """
        return self.hoist_batch([ct])[0]

    def rotate_rows_hoisted(
        self, hoisted: "HoistedCiphertext", step: int, galois_keys: GaloisKeys
    ) -> Ciphertext:
        """Rotate using a precomputed decomposition (no NTTs on this path)."""
        group = HoistedGroup(
            hoisted.c0.data[:, None], hoisted.c1.data[:, None], hoisted.digits[:, None]
        )
        elts = [[self.galois_elt_for_step(step)]]
        return self.ciphertexts(self._rotate_group(group, elts, [galois_keys]))[0][0]

    # -- cross-request batched operators ---------------------------------------
    #
    # The serving runtime (:mod:`repro.serving`) executes one layer for many
    # concurrent clients at once.  These forms stack the per-client work
    # into single ``(k, B, n)`` / ``(k, B*T, n)`` engine calls so the whole
    # batch rides the batched-NTT path.  They are the only implementation:
    # the single-ciphertext ``hoist`` / ``rotate_rows_hoisted`` /
    # ``mul_plain_accumulate[_stacked]`` are their ``B = 1`` views, so a
    # member's bytes and op counts do not depend on what shares its batch.

    def hoist_group(
        self, cts: list[Ciphertext] | np.ndarray, decompose: bool = True
    ) -> "HoistedGroup":
        """Batched :meth:`hoist`: one INTT, digit decomposition and forward
        NTT over all ``B`` ciphertexts at once.

        ``cts`` is a list of ciphertexts, or the ``(2, k, B, n)`` stack of
        their halves (used in place, e.g. partials straight off a weight
        MAC).  The per-member digit decompositions are independent, so the
        ``(k, B, n)`` inverse transform, the word-sized compose and split,
        and the ``(k, B * l_ct, n)`` forward transform each run as a
        single engine call instead of ``B``.  The result keeps the whole
        batch stacked, so every rotation of it is one
        :meth:`rotate_rows_group` call.  ``decompose=False`` only stacks
        (a layer whose every step is the identity pays no NTT).
        """
        if isinstance(cts, np.ndarray):
            halves = cts
        else:
            params = self.params
            halves = np.empty((2, params.coeff_basis.count, len(cts), params.n), np.int64)
            for i, ct in enumerate(cts):
                halves[0, :, i] = ct.c0.data
                halves[1, :, i] = ct.c1.data
        digits = self._digit_evals(halves[1]) if decompose and halves.shape[2] else None
        return HoistedGroup(halves[0], halves[1], digits)

    def hoist_batch(self, cts: list[Ciphertext]) -> list["HoistedCiphertext"]:
        """Batched :meth:`hoist` returning per-ciphertext views.

        Same pipeline as :meth:`hoist_group`; use the group form when the
        whole batch rotates together.
        """
        group = self.hoist_group(cts)
        basis = self.params.coeff_basis
        return [
            HoistedCiphertext(
                c0=RnsPolynomial(basis, group.c0[:, i], Domain.EVAL),
                c1=RnsPolynomial(basis, group.c1[:, i], Domain.EVAL),
                digits=group.digits[:, i],
            )
            for i in range(len(cts))
        ]

    def rotate_rows_group(
        self,
        group: "HoistedGroup",
        steps,
        galois_keys: list[GaloisKeys],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Rotate each member of a hoisted group by its steps, in one kernel call.

        ``steps`` broadcasts against ``(B, S)``: ``S`` steps rotate every
        member by every step (Sched-IA's grid), a ``(B, 1)`` column
        rotates each member by its own step (Sched-PA's partials).  Member
        ``b`` rotates under ``galois_keys[b]``.  Returns the ``(2, k, B,
        S, n)`` stack of rotated ``(c0, c1)`` halves, or fills ``out``: any
        int64 ``(2, k, *M, S, n)`` view with ``prod(M) == B`` and
        contiguous rows (member ``b`` is the C-order index into ``M``), so
        the results land straight in the term slots the weight MAC reads.
        A step that is a multiple of the row size is a copy, not an
        HE_Rotate; every other one counts one.  Column ``s`` of member
        ``b`` is byte-identical to ``rotate_rows_hoisted(hoist(cts[b]),
        steps[b][s], galois_keys[b])``.
        """
        steps = np.asarray(steps, dtype=np.int64)
        steps = np.broadcast_to(steps, (group.c0.shape[1], steps.shape[-1])).tolist()
        elts = {step: self.galois_elt_for_step(step) for row in steps for step in row}
        return self._rotate_group(
            group, [[elts[step] for step in row] for row in steps], galois_keys, out
        )

    def rotate_rows_batch(
        self, cts: list[Ciphertext], step: int, galois_keys: list[GaloisKeys]
    ) -> list[Ciphertext]:
        """HE_Rotate over ``B`` ciphertexts, each under its own client's keys.

        The hoisted group of ``cts`` rotated by ``step``
        (:meth:`rotate_rows_group`): one batched INTT, digit decomposition
        and forward NTT over all ``B * l_ct`` digits, then one key-switch
        call.  Counts ``B`` HE_Rotates and the same NTT census as ``B``
        serial :meth:`rotate_rows` calls; decrypted outputs are identical,
        residues are not: this decomposes then permutes (a hoist used
        once), :meth:`apply_galois` -- the reference formulation -- applies
        the automorphism then decomposes.
        """
        group = self.hoist_group(cts, decompose=step % self.params.row_size != 0)
        out = self.rotate_rows_group(group, [step], galois_keys)
        return [row[0] for row in self.ciphertexts(out)]

    def mul_plain_accumulate_grouped(
        self,
        c0_stack: np.ndarray,
        c1_stack: np.ndarray,
        plain_stack: np.ndarray,
        out: np.ndarray | None = None,
    ) -> list[Ciphertext] | np.ndarray:
        """Per-client :meth:`mul_plain_accumulate_stacked` over a ``(k, B, T, n)`` batch.

        ``plain_stack`` is the shared offline-encoded weight stack
        (``(k, T, n)``, broadcast to every client); client ``i`` of the
        result equals ``mul_plain_accumulate_stacked(c0_stack[:, i],
        c1_stack[:, i], plain_stack)`` bit-for-bit.

        The per-layer form takes every output channel at once:
        ``plain_stack`` of shape ``(k, O, T, n)`` returns one list of ``O``
        ciphertexts per client, entry ``[i][o]`` equal to the call above
        against ``plain_stack[:, o]`` -- and accounted as ``B * O`` such
        calls -- while each client's stack is read once for all ``O``
        channels instead of once per channel.  Given ``out``, a
        C-contiguous int64 ``(2, k, B, [O,] n)`` array, the sums are
        written there and ``out`` is returned in place of the ciphertexts.
        """
        if c0_stack.ndim != 4 or c1_stack.shape != c0_stack.shape:
            raise ValueError(
                f"expected matching (k, B, T, n) stacks, got c0 {c0_stack.shape}, "
                f"c1 {c1_stack.shape}"
            )
        batch, terms = c0_stack.shape[1], c0_stack.shape[2]
        channels = plain_stack.shape[1] if plain_stack.ndim == 4 else 1
        GLOBAL_COUNTERS.he_mult += batch * channels * terms
        GLOBAL_COUNTERS.he_add += batch * channels * max(0, terms - 1)
        acc = self.engine.weight_accumulate(c0_stack, c1_stack, plain_stack, out=out)
        if out is not None:
            return out
        if plain_stack.ndim == 3:
            return [row[0] for row in self.ciphertexts(acc[:, :, :, None])]
        return self.ciphertexts(acc)

    # -- convenience -----------------------------------------------------------

    def encrypt_values(self, values: np.ndarray, public: PublicKey) -> Ciphertext:
        """Encode up to n integers into slots and encrypt in one step."""
        return self.encrypt(self.encoder.encode(values), public)

    def decrypt_values(
        self, ct: Ciphertext, secret: SecretKey, signed: bool = True
    ) -> np.ndarray:
        """Decrypt and decode back to the n slot values (centered if signed)."""
        return self.encoder.decode(self.decrypt(ct, secret), signed=signed)


def expected_digit_count(params: BfvParameters) -> int:
    """l_ct as derived from the live modulus (sanity cross-check)."""
    return digit_count(params.coeff_modulus, params.a_dcmp_bits)
