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

import math
from dataclasses import dataclass

import numpy as np

from .counters import GLOBAL_COUNTERS
from .decompose import digit_decompose
from .encoder import BatchEncoder, Plaintext
from .keys import GaloisKeys, KeySwitchKey, PublicKey, SecretKey
from .ntt_batch import get_engine
from .params import BfvParameters
from .polynomial import (
    Domain,
    RnsPolynomial,
    eval_domain_galois_map,
    neg_mod,
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

    # -- sampling ----------------------------------------------------------

    def _sample_ternary(self) -> np.ndarray:
        return self.rng.integers(-1, 2, self.params.n, dtype=np.int64)

    def _sample_error(self) -> np.ndarray:
        sigma = self.params.sigma
        samples = np.rint(self.rng.normal(0.0, sigma, self.params.n)).astype(np.int64)
        bound = math.ceil(6 * sigma)  # clipped in place: np.clip costs several times more
        np.maximum(samples, -bound, out=samples)
        return np.minimum(samples, bound, out=samples)

    def _small_evals(self, samples: list, plaintext: Plaintext | None = None) -> np.ndarray:
        """Signed samples, and the ``Delta m`` of a plaintext, in one forward call.

        The samples are lifted by a sign add and the plaintext becomes
        the last row (:meth:`~repro.bfv.ntt_batch.RnsNttEngine.lift`);
        returns the ``(k, rows, n)`` eval-domain stack.
        """
        messages = () if plaintext is None else plaintext.coeffs
        residues = self.engine.lift(samples, messages, self.params.plain_modulus)
        return self.engine.forward(residues, reduced=True)

    def _eval_poly(self, data: np.ndarray) -> RnsPolynomial:
        return RnsPolynomial(self.params.coeff_basis, data, Domain.EVAL)

    # -- key generation ------------------------------------------------------

    def keygen(self) -> tuple[SecretKey, PublicKey]:
        """Sample a ternary secret and its public encryption key.

        Both keys hold evaluation-domain ``(k, n)`` residue stacks (the
        secret additionally keeps its signed coefficients for noise
        measurement); ``p0 = -(a s + e)``.
        """
        s_coeffs = self._sample_ternary()
        primes, n = self.params.coeff_basis.primes, self.params.n
        a = self._eval_poly(np.stack([self.rng.integers(0, p, n, dtype=np.int64) for p in primes]))
        s_eval, e = self._small_evals([s_coeffs, self._sample_error()]).transpose(1, 0, 2)
        secret = SecretKey(coeffs=s_coeffs, eval_poly=self._eval_poly(s_eval.copy()))
        body = self.engine.multiply_add([a.data], secret.eval_poly.data, [e])[0]
        p0 = self._eval_poly(neg_mod(body, self.params.coeff_basis.primes_column))
        return secret, PublicKey(p0=p0, p1=a)

    def generate_galois_keys(self, secret: SecretKey, steps: list[int]) -> GaloisKeys:
        """Generate rotation keys for the given row-rotation step sizes."""
        elts = dict.fromkeys(self.galois_elt_for_step(step) for step in steps)
        return GaloisKeys({elt: self._galois_key(secret, elt) for elt in elts})

    def generate_column_key(self, secret: SecretKey) -> GaloisKeys:
        """The key of :meth:`rotate_columns` (element 2n - 1): the row swap of HE_Rotate."""
        elt = 2 * self.params.n - 1
        return GaloisKeys({elt: self._galois_key(secret, elt)})

    def galois_elt_for_step(self, step: int) -> int:
        """Galois element implementing a left row-rotation by ``step``."""
        row = self.params.n // 2
        return pow(3, step % row, 2 * self.params.n)

    def _galois_key(self, secret: SecretKey, galois_elt: int) -> KeySwitchKey:
        """The key from s(x^g) to s: per digit pair, a (a uniform row per limb),
        then e; every -e in one forward call, the stack in one engine pass."""
        params = self.params
        primes, n, l_ct = params.coeff_basis.primes, params.n, params.l_ct
        a, errors = np.empty((len(primes), l_ct, n), np.int64), np.empty((l_ct, n), np.int64)
        for j in range(l_ct):
            for i, prime in enumerate(primes):
                a[i, j] = self.rng.integers(0, prime, n, dtype=np.int64)
            errors[j] = self._sample_error()
        order = eval_domain_galois_map(n, pow(galois_elt, -1, 2 * n))  # the map's inverse
        stack = self.engine.galois_key(
            a, self._small_evals(-errors), secret.eval_poly.data, order, params.a_dcmp_bits
        )
        return KeySwitchKey(stack, params.a_dcmp_bits, galois_elt, params.coeff_basis)

    # -- encryption / decryption ---------------------------------------------

    def encrypt(
        self, plaintext: Plaintext | list[Plaintext], public: PublicKey
    ) -> Ciphertext | list[Ciphertext]:
        """Encrypt a plaintext (coefficients mod t) under the public key.

        Returns an evaluation-domain ciphertext carrying fresh noise of
        magnitude ``~2 n sigma`` (Table III's v_fresh); all subsequent
        operator noise compounds from there until :meth:`decrypt`.  u, e0
        and e1 are drawn in that order; the lift, the transforms of u, e0,
        e1 and ``Delta m`` and both public-key products are one engine call
        (:meth:`~repro.bfv.ntt_batch.RnsNttEngine.encrypt`).  A list of
        ``R`` plaintexts (a round's rows) draws row after row and runs that
        call once for all of them: ciphertext ``r`` is what encrypting
        ``plaintext[r]`` alone would have returned, at the same op counts.
        """
        pts = [plaintext] if isinstance(plaintext, Plaintext) else plaintext
        samples = np.empty((len(pts), 3, self.params.n), dtype=np.int64)
        for u, e0, e1 in samples:
            u[:], e0[:], e1[:] = self._sample_ternary(), self._sample_error(), self._sample_error()
        stack = self.engine.encrypt(
            samples, [pt.coeffs for pt in pts], public.p0.data, public.p1.data,
            self.params.plain_modulus,
        )
        cts = [self._ciphertext(c0, c1) for c0, c1 in stack]
        return cts[0] if isinstance(plaintext, Plaintext) else cts

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
        plaintexts = []
        scale = 1
        for _ in range(num_windows):
            scaled = (values.astype(object) * scale) % t
            plaintexts.append(self.encoder.encode(scaled.astype(np.int64)))
            scale = scale * w_base % t
        return self.encrypt(plaintexts, public)

    def decrypt(self, ct: Ciphertext | list[Ciphertext], secret: SecretKey) -> Plaintext:
        """Decrypt to a plaintext of coefficients mod t.

        Rounds ``(c0 + c1 s) * t / q``; the result is the encrypted
        message exactly as long as the invariant noise stays below 1/2
        (equivalently :func:`~repro.bfv.noise.invariant_noise_budget`
        is positive) -- beyond that, decryption corrupts silently, which
        is what HE-PTune's Table III bounds guard against.  The phase, the
        inverse transform and the rounding are one engine call
        (:meth:`~repro.bfv.ntt_batch.RnsNttEngine.decrypt`), the rounding in
        fixed point on machine words; the result is that of ``((2 t w + q)
        // 2q) mod t`` on the big integers :meth:`_raw_decrypt` returns.  A
        list of ``B`` ciphertexts (a round's replies) runs that call once
        for all of them and gives ``(B, n)`` coefficients, row ``b`` those
        of decrypting ``ct[b]`` alone, at the same op counts.
        """
        cts = [ct] if isinstance(ct, Ciphertext) else ct
        values = self.engine.decrypt(
            self._halves(cts, secret), secret.eval_poly.data, self.params.plain_modulus
        )
        return Plaintext(values[0] if isinstance(ct, Ciphertext) else values)

    def _halves(self, cts: list[Ciphertext], secret: SecretKey) -> list[tuple]:
        """Each ciphertext's ``(c0, c1)`` residues, refused unless both are
        eval-domain polynomials over the secret's basis and shape."""
        basis, shape = self.params.coeff_basis, secret.eval_poly.data.shape
        for half in (h for ct in cts for h in (ct.c0, ct.c1)):
            if half.domain is not Domain.EVAL or half.data.shape != shape or (
                half.basis is not basis and half.basis.primes != basis.primes
            ):
                raise ValueError(
                    f"expected an eval-domain ciphertext of {shape} residues over "
                    f"{basis.primes}, got {half!r} over {half.basis.primes}"
                )
        return [(ct.c0.data, ct.c1.data) for ct in cts]

    def _raw_decrypt(self, ct: Ciphertext, secret: SecretKey) -> np.ndarray:
        """Return (c0 + c1 * s) mod q as big-integer coefficients.

        The object-integer route: noise measurement needs the integers
        themselves, :meth:`decrypt` does not and avoids them.
        """
        [(c0, c1)] = self._halves([ct], secret)
        phase = self.engine.multiply_add([c1], secret.eval_poly.data, [c0])[0]
        return self.params.coeff_basis.compose(self.engine.inverse(phase, reduced=True))

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
        delta_m = self._small_evals([], plaintext)[:, 0]
        return Ciphertext(ct.c0.add(self._eval_poly(delta_m)), ct.c1.copy())

    def add_plain_rows(self, cts: list[Ciphertext], rows: np.ndarray) -> list[Ciphertext]:
        """``add_plain(cts[b], encoder.encode_row(rows[b]))`` for every ``b``, in one
        engine call (:meth:`~repro.bfv.ntt_batch.RnsNttEngine.blind`)."""
        GLOBAL_COUNTERS.he_add += len(cts)
        stack = self.engine.blind([(ct.c0.data, ct.c1.data) for ct in cts], rows, self.encoder)
        return [self._ciphertext(c0, c1) for c0, c1 in stack]

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
        return Ciphertext(self._eval_poly(c0), self._eval_poly(c1))

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

        The automorphism is the Swap, g's slot permutation in the
        evaluation domain: c1 is permuted first, then key switching runs
        INTT -> digit decomposition -> one batched NTT over all digits ->
        fused SIMD multiply-accumulate against the key-switch key pairs.
        The digits are already rotated, so they are scattered into the
        key's slot order first, and the final gather of c0 and the sums
        undoes that.
        """
        eval_map = self.engine.galois_maps((galois_elt,))[0]
        c1 = ct.c1.data[:, None]
        digits = self._digit_evals(c1[..., eval_map])[..., np.argsort(eval_map)]
        group = HoistedGroup(ct.c0.data[:, None], c1, digits)
        return self.ciphertexts(self._rotate_group(group, [[galois_elt]], [galois_keys]))[0][0]

    def _digit_evals(self, c1: np.ndarray) -> np.ndarray:
        """The INTT -> Decompose -> NTT lane of key switching, one engine call.

        ``c1`` is an eval-domain ``(k, n)`` or ``(k, B, n)`` stack; returns
        the eval-domain base-``Adcmp`` digits ``(k, [B,] l_ct, n)`` of its
        coefficients.  :meth:`RnsNttEngine.hoist
        <repro.bfv.ntt_batch.RnsNttEngine.hoist>` runs each member's three
        stages from cache and materializes no coefficient-domain digit stack.
        """
        params = self.params
        return self.engine.hoist(c1, params.a_dcmp_bits, params.l_ct)

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
        columns; the copies follow it, so a refused key leaves ``out`` as
        it was.
        """
        k, batch, n = group.c0.shape
        columns = len(galois_elts[0]) if galois_elts else 0
        if out is None:
            out = np.empty((2, k, batch, columns, n), dtype=np.int64)
        members = out.shape[2:-2]
        if (
            len(galois_elts) != batch or len(galois_keys) != batch
            or any(len(row) != columns for row in galois_elts)
            or out.shape[:2] != (2, k) or out.shape[-2:] != (columns, n)
            or math.prod(members) != batch
        ):
            raise ValueError(
                f"{len(galois_elts)} x {columns} elements under {len(galois_keys)} "
                f"key sets for {batch} members do not fill out {out.shape}"
            )
        elts: dict[int, int] = {}
        jobs, copies = [], []
        for b, (row, keys) in enumerate(zip(galois_elts, galois_keys)):
            for s, elt in enumerate(row):
                if elt == 1:
                    copies.append((b, s))
                else:
                    job = (b, elts.setdefault(elt, len(elts)), keys.key_for(elt), b * columns + s)
                    jobs.append(job)
        if jobs:
            self.engine.keyswitch_rotate(group.digits, group.c0, tuple(elts), jobs, out)
        GLOBAL_COUNTERS.he_rotate += len(jobs)
        for b, s in copies:
            slot = out[(slice(None), slice(None), *np.unravel_index(b, members), s)]
            slot[0], slot[1] = group.c0[:, b], group.c1[:, b]
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
        int64 ``(2, k, *M, S, n)`` view with ``prod(M) == B`` and distinct,
        contiguous rows (member ``b`` is the C-order index into ``M``), so
        the results land straight in the term slots the weight MAC reads.
        A step that is a multiple of the row size is a copy, not an
        HE_Rotate; every other one counts one.  Column ``s`` of member ``b`` is byte-identical to
        ``rotate_rows_hoisted(hoist(cts[b]), steps[b][s], galois_keys[b])``.
        """
        rows = steps if len(steps) and np.iterable(steps[0]) else [steps]
        elts = {step: self.galois_elt_for_step(int(step)) for row in rows for step in row}
        rows = [[elts[step] for step in row] for row in rows]
        rows = rows * group.c0.shape[1] if len(rows) == 1 else rows
        return self._rotate_group(group, rows, galois_keys, out)

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
