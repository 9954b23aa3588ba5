"""Batched RNS engine: every stage of the lane datapath, client crypto included.

:class:`RnsNttEngine` owns each stage of the paper's lane (Figure 9c:
INTT -> Decompose -> NTT -> SIMDmult -> Compose) and the client's BFV
crypto as compiled kernels (``_ntt_kernel.c`` via :mod:`repro.bfv.native`;
``docs/ARCHITECTURE.md`` section 1 has the stage-by-stage table):

* :meth:`~RnsNttEngine.forward` / :meth:`~RnsNttEngine.inverse` -- the
  transforms over a whole ``(k, batch, n)`` residue stack in one call,
  with 32-bit Shoup lazy reduction (every modulus is below 2^30, so
  ``4p`` fits 32 bits) in AVX-512F, AVX2 or scalar lanes
  (``native.kernel_status`` names the body), the bit-reverse permutation
  fused into the gather from the caller's stack.
* :meth:`~RnsNttEngine.digit_residues` -- Decompose: Garner's
  mixed-radix compose on machine words and a base-``2^Adcmp`` split
  straight to digit residues, optionally after the coefficient-domain
  Galois automorphism, with no Python integer.
* :meth:`~RnsNttEngine.keyswitch_rotate` -- HE_Rotate after the
  decomposition for a whole table of rotation jobs in one call: both key
  halves (``uint32``, in the digits' slot order) in one contiguous walk,
  the add of c0, then one gather through the eval map (the Swap).
* :meth:`~RnsNttEngine.weight_accumulate` -- SIMDmult of HE_Mult: c0 and
  c1 against one weight stack, every output channel and batch member.
* :meth:`~RnsNttEngine.lift` and :meth:`~RnsNttEngine.multiply_add` --
  encryption (signed samples and ``Delta m`` into one stack, then both
  public-key products and the adds in one pass) and decryption's phase;
  :meth:`~RnsNttEngine.scale_round` -- the client's Compose,
  ``round(t w / q) mod t`` in fixed point with an exact tie branch.

The multiply-accumulates add *unreduced* products (limbs are below 2^31,
so several fit a 64-bit word; longer sums are chunked) and reduce once
per output coefficient.  The transforms, digit split, key switch and
weight MAC split a large call across the process's lanes inside the
kernel (``native.kernel_status()["lanes"]``), in items that each write
their own rows, so the bytes do not depend on the lane count; the
scratch passed below is the calling thread's.  Without the kernel (no
compiler, ``REPRO_NTT_NATIVE=0``; never silent, see
:mod:`repro.bfv.native`) the engine runs the references the kernels are
tested against: each limb's :class:`~repro.bfv.ntt.NttContext`,
:meth:`~RnsNttEngine.pointwise_accumulate` /
:meth:`~RnsNttEngine.pointwise_accumulate_grouped`, the word-level
:func:`~repro.bfv.rns.compose_words` / :func:`~repro.bfv.decompose.split_words`
/ :func:`~repro.bfv.rns.scale_round_words`, and numpy forms of the
client entry points.  Both paths return fully reduced, bit-identical
outputs, share no buffer between concurrent calls and take no lock.
Engines are memoized by ``(n, moduli)`` via :func:`get_engine`, so the
scheme, encoder, and profiler share one set of tables.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import native
from .counters import GLOBAL_COUNTERS
from .decompose import MAX_WORD_BASE_BITS, split_words
from .ntt import NttContext, bit_reverse_indices
from .rns import compose_words, garner_tables, scale_round_words

#: Shift of the C transforms' Shoup quotient tables (beta = 2^32 in uint64).
SHOUP_SHIFT = np.uint64(32)


def _ptr(array: np.ndarray) -> int:
    """Address of an array's first element, as a ``c_void_p`` argument."""
    return array.ctypes.data


def _rows(array) -> np.ndarray:
    """int64 view whose innermost axis is contiguous (what the C MACs walk).

    Weight stacks arrive as slices of ``(k, co, T, n)`` arrays, memmapped
    ``.rpa`` sections or per-client slices of a batch: outer axes may be
    strided, which the kernels take as element strides, so the common
    cases cost no copy.
    """
    array = np.asarray(array)
    if array.dtype != np.int64 or array.strides[-1] != array.itemsize:
        array = np.ascontiguousarray(array, dtype=np.int64)
    return array


def _strides(array: np.ndarray) -> tuple[int, ...]:
    """Strides of the outer axes, in elements."""
    return tuple(step // array.itemsize for step in array.strides[:-1])


def _row_offsets(shape: tuple[int, ...], strides: tuple[int, ...]) -> np.ndarray:
    """Byte offset of every index of ``shape``, flattened in C order."""
    offsets = np.zeros(1, dtype=np.int64)
    for size, stride in zip(shape, strides):
        offsets = (offsets[:, None] + np.arange(size, dtype=np.int64) * stride).ravel()
    return offsets


@lru_cache(maxsize=None)
def get_context(n: int, modulus: int) -> NttContext:
    """Memoized single-limb reference context (shared twiddle tables)."""
    return NttContext(n, modulus)


@lru_cache(maxsize=None)
def _get_engine_cached(n: int, moduli: tuple[int, ...]) -> "RnsNttEngine":
    return RnsNttEngine(n, moduli)


def get_engine(n: int, moduli) -> "RnsNttEngine":
    """Memoized engine keyed by ``(n, tuple(moduli))``.

    ``BfvScheme``, ``BatchEncoder``, and the profiler all resolve their
    engines through this function so identical parameter sets never
    rebuild twiddle tables.
    """
    return _get_engine_cached(int(n), tuple(int(m) for m in moduli))


@lru_cache(maxsize=None)
def _plain_tables(moduli: tuple[int, ...], t: int) -> tuple[tuple, tuple]:
    """Per-limb ``uint64`` constants of plaintext modulus ``t``, and their addresses.

    ``Delta mod p_i`` (``Delta = floor(q / t)``) for the ``Delta m`` lift,
    and the integer part and 64-bit fraction of ``t [(q/p_i)^-1]_{p_i} / p_i``
    for the fixed-point decryption rounding (``rns_scale_round``).  The
    cache keeps the arrays alive for the addresses.
    """
    q = math.prod(moduli)
    rows = []
    for p in moduli:
        whole, rem = divmod(t * pow(q // p, -1, p), p)
        rows.append((q // t % p, whole, (rem << 64) // p))
    tables = tuple(np.array(column, dtype=np.uint64) for column in zip(*rows))
    return tables, tuple(_ptr(table) for table in tables)


class RnsNttEngine:
    """Negacyclic NTTs over a whole RNS basis in one batched pass.

    Transforms accept residue stacks of shape ``(k, n)`` (one polynomial)
    or ``(k, batch, n)`` (a batch, e.g. every key-switching digit at
    once), limb-major, and return the same shape.  Outputs are always
    fully reduced into ``[0, p_i)`` per limb and bit-identical to running
    the reference :class:`NttContext` limb by limb.
    """

    def __init__(self, n: int, moduli, use_native: bool | None = None):
        moduli = tuple(int(m) for m in moduli)
        if not moduli:
            raise ValueError("engine needs at least one modulus")
        self.n = n
        self.moduli = moduli
        self.count = len(moduli)
        #: Per-limb reference contexts; also the source of all twiddles.
        self.contexts = [get_context(n, m) for m in moduli]
        self._min_modulus = min(moduli)
        self._primes_i64 = np.array(moduli, dtype=np.int64)
        #: Mixed-radix compose constants (decomposition and decryption).
        self._garner = garner_tables(moduli)

        self._kernel = None
        if use_native is None or use_native:
            self._kernel = native.load_kernel()
        if self._kernel is not None:
            self._init_native()
        #: The compiled compose handles a bounded basis; beyond it only
        #: the decomposition runs the word-level references.
        self._native_compose = (
            self._kernel is not None
            and self.count <= native.MAX_COMPOSE_LIMBS
            and self._garner.words64 <= native.MAX_COMPOSE_WORDS
        )

    def _init_native(self) -> None:
        """The C transforms' tables, each with its Shoup quotients.

        ``(k, n - 1)`` stage twiddles (stage s in columns
        ``[2^s - 1, 2^(s+1) - 1)``), the forward pre-twist ``psi^j`` in
        bit-reversed order, and the fused inverse scale ``n^-1 * psi^-j``
        (products < 2^60, int64-safe).  Every w is below its limb's
        p < 2^30, so the quotient ``floor(w * 2^32 / p)`` is exact in uint64.
        """
        bitrev = bit_reverse_indices(self.n)
        p = np.array(self.moduli, dtype=np.uint64)
        tables = {
            "tw": [np.concatenate(c._stage_twiddles) for c in self.contexts],
            "itw": [np.concatenate(c._stage_itwiddles) for c in self.contexts],
            "iscale": [c._ipsi_powers * c._n_inv % c.modulus for c in self.contexts],
            "psi": [c._psi_powers[bitrev] for c in self.contexts],
        }
        self._nat = {"perm": np.ascontiguousarray(bitrev), "p": p}
        for name, rows in tables.items():
            table = np.stack(rows).astype(np.uint64)
            self._nat[name] = table
            self._nat[name + "_sh"] = (table << SHOUP_SHIFT) // p[:, None]
        # Table addresses by direction, taken once: each ``.ctypes`` lookup
        # costs about a microsecond, on every transform call.
        self._nat_tables = {
            forward: tuple(
                _ptr(self._nat[name])
                for name in ("perm", scale, scale + "_sh", tw, tw + "_sh", "p")
            )
            for forward, scale, tw in ((True, "psi", "tw"), (False, "iscale", "itw"))
        }
        #: Transform body level passed to the kernel (0 scalar, 1 AVX2,
        #: 2 AVX-512F; ``native.NTT_ISA_NAMES``): the widest the CPU runs.
        self._isa = self._kernel.ntt_isa_max()
        g = self._garner
        self._p_ptr = _ptr(p)
        self._garner_ptrs = tuple(
            _ptr(table) for table in (g.primes, g.inv, g.inv_shoup, g.lift, g.q_words64)
        )

    @property
    def uses_native_kernel(self) -> bool:
        return self._kernel is not None

    def _native_transform(self, arr: np.ndarray, forward: bool) -> np.ndarray:
        k, batch, n = arr.shape
        # Out of place: the kernel gathers straight from the caller's stack
        # into the output (int64 and uint64 share the bits of a reduced
        # residue).  A per-call output keeps this path lock-free: the tables
        # are read-only and ctypes releases the GIL during the C call, so
        # concurrent serving threads transform in parallel.
        src = np.ascontiguousarray(arr)
        out = np.empty(arr.shape, dtype=np.int64)
        kernel = self._kernel.ntt_forward if forward else self._kernel.ntt_inverse
        kernel(
            _ptr(src), _ptr(out), *self._nat_tables[forward], k, batch, n, self._isa
        )
        return out

    # -- public transforms ---------------------------------------------------

    def _prepare(self, stack, reduced: bool) -> tuple[np.ndarray, bool]:
        arr = np.asarray(stack)
        if arr.dtype != np.int64:
            arr = arr.astype(np.int64)
        squeeze = arr.ndim == 2
        if squeeze:
            arr = arr[:, None, :]
        if arr.ndim != 3 or arr.shape[0] != self.count or arr.shape[2] != self.n:
            raise ValueError(
                f"expected residue stack of shape ({self.count}, batch, {self.n}), "
                f"got {np.asarray(stack).shape}"
            )
        if arr.size and not reduced:
            # Cheap global scan first; residues of a large-prime limb can
            # legitimately exceed the smallest modulus, so confirm with a
            # per-limb comparison before paying a full reduction.
            primes_col = self._primes_i64[:, None, None]
            if int(arr.min()) < 0 or (
                int(arr.max()) >= self._min_modulus and bool((arr >= primes_col).any())
            ):
                arr = arr % primes_col
        return arr, squeeze

    def _transform(
        self, stack, forward: bool, count_ops: bool, reduced: bool
    ) -> np.ndarray:
        arr, squeeze = self._prepare(stack, reduced)
        if self._kernel is not None:
            out = self._native_transform(arr, forward)
        else:
            out = np.stack([
                (context.forward if forward else context.inverse)(limb, count_ops=False)
                for context, limb in zip(self.contexts, arr)
            ])
        if count_ops:
            GLOBAL_COUNTERS.add_ntt(self.n, count=arr.shape[0] * arr.shape[1])
        return out[:, 0, :] if squeeze else out

    def forward(
        self, stack, count_ops: bool = True, *, reduced: bool = False
    ) -> np.ndarray:
        """Coefficients -> evaluations for a (k, n) or (k, batch, n) stack.

        Row ``(i, ..., j)`` of the output holds ``a_i(psi_i^(2j+1))`` in
        natural order j, matching :meth:`NttContext.forward` bit-exactly.
        Arbitrary int64 input is reduced first; ``reduced=True`` asserts
        every residue already lies in ``[0, p_i)`` (ciphertext data, the
        engine's own outputs) and skips the two range scans.
        """
        return self._transform(stack, True, count_ops, reduced)

    def inverse(
        self, stack, count_ops: bool = True, *, reduced: bool = False
    ) -> np.ndarray:
        """Evaluations -> coefficients; inverse of :meth:`forward`."""
        return self._transform(stack, False, count_ops, reduced)

    # -- evaluation-domain arithmetic ----------------------------------------

    def pointwise(self, a: np.ndarray, b: np.ndarray, count_ops: bool = True) -> np.ndarray:
        """Element-wise modular product of evaluation-domain stacks."""
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        col = self._primes_i64.reshape((-1,) + (1,) * (max(a.ndim, b.ndim) - 1))
        result = a * b % col
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(result.size)
        return result

    def pointwise_accumulate(
        self, a: np.ndarray, b: np.ndarray, count_ops: bool = True
    ) -> np.ndarray:
        """Sum over the batch axis of element-wise products: (k, B, n) -> (k, n).

        This is the key-switching inner loop (digit x key pairs) fused
        into one call; per-product modmul accounting matches running
        :meth:`pointwise` B times.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        products = a * b
        products %= self._primes_i64[:, None, None]
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(products.size)
        acc = products.sum(axis=1)
        acc %= self._primes_i64[:, None]
        return acc

    def pointwise_accumulate_grouped(
        self, a: np.ndarray, b: np.ndarray, count_ops: bool = True
    ) -> np.ndarray:
        """Per-group :meth:`pointwise_accumulate`: (k, B, T, n) -> (k, B, n).

        The cross-client batching primitive: ``B`` independent ``T``-term
        multiply-accumulate reductions (one per in-flight request) run as
        a single broadcasted modmul plus one grouped sum, instead of ``B``
        separate :meth:`pointwise_accumulate` calls.  ``b`` may be
        ``(k, T, n)`` (weights shared across the batch, the common case)
        or ``(k, B, T, n)`` (per-request operands, e.g. per-client
        key-switch key stacks).  Slice ``[:, i]`` of the result is
        bit-identical to ``pointwise_accumulate(a[:, i], b)`` /
        ``pointwise_accumulate(a[:, i], b[:, i])``.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if a.ndim != 4:
            raise ValueError(f"expected (k, B, T, n) stack, got {a.shape}")
        if b.ndim == 3:
            b = b[:, None]
        products = a * b
        products %= self._primes_i64[:, None, None, None]
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(products.size)
        acc = products.sum(axis=2)
        acc %= self._primes_i64[:, None, None]
        return acc

    # -- fused multiply-accumulates --------------------------------------------

    def keyswitch_rotate(self, digits, c0, maps, jobs, out, count_ops: bool = True) -> None:
        """Run a table of key-switching rotations in one call.

        ``digits`` is an eval-domain ``(k, B, T, n)`` digit stack and
        ``c0`` the members' ``(k, B, n)`` first halves; ``maps`` holds the
        eval-domain slot permutations the jobs use, each checked once
        however many jobs share it.  A job ``(b, m, key, r)`` rotates
        member ``b`` under ``g = maps[m]`` with ``key``, a ``uint32``
        ``(2, k, L, n)`` key stack (``L >= T``) in ``g``'s slot order
        (:class:`~repro.bfv.keys.KeySwitchKey`), into row ``r`` of ``out``:

        * ``out[0][:, r] = (c0[:, b] + sum_t x[:, b, t] * key[0, :, t])[:, g]``
        * ``out[1][:, r] = (sum_t x[:, b, t] * key[1, :, t])[:, g]``  (mod p_i)

        ``out`` is int64 of shape ``(2, k, *R, n)`` with contiguous rows
        and any strides otherwise; row ``r`` is the C-order index into
        ``R``, so results land straight in the stack the next stage reads,
        and rows no job names are left untouched.  The native path runs
        every job in one ``keyswitch_rotate`` kernel call (the ``_isa``
        body), the fallback one :meth:`pointwise_accumulate` per job and
        key half; modmul accounting is ``2 k T n`` per job.
        """
        digits, c0 = _rows(digits), _rows(c0)
        k, batch, terms, n = digits.shape
        rows = out.shape[2:-1]
        if (
            c0.shape != (k, batch, n) or out.dtype != np.int64
            or out.shape[:2] != (2, k) or out.shape[-1] != n
            or out.strides[-1] != out.itemsize or not out.flags.writeable
        ):
            raise ValueError(
                f"stack shapes differ: digits {digits.shape}, c0 {c0.shape}, "
                f"out {out.shape} ({out.dtype})"
            )
        if not jobs:
            return
        members, map_ids, stacks, targets = zip(*jobs)
        # The kernel indexes with all of these unchecked.
        maps = np.ascontiguousarray(maps, dtype=np.int64)
        if maps.ndim != 2 or maps.shape[1] != n or maps.min() < 0 or maps.max() >= n:
            raise ValueError(f"an eval map must hold {n} indices into [0, {n})")
        for field, bound, name in (
            (members, batch, "member"), (map_ids, len(maps), "map"),
            (targets, int(np.prod(rows)), "output row"),
        ):
            if min(field) < 0 or max(field) >= bound:
                raise ValueError(f"a job's {name} index is outside [0, {bound})")
        members, map_ids, targets = (
            np.array(field, dtype=np.int64) for field in (members, map_ids, targets)
        )
        for stack in {id(stack): stack for stack in stacks}.values():
            if (
                stack.dtype != np.uint32 or not stack.flags.c_contiguous
                or stack.ndim != 4 or stack.shape[:2] != (2, k)
                or stack.shape[2] < terms or stack.shape[3] != n
            ):
                raise ValueError(
                    f"key stacks must be C-contiguous uint32 (2, {k}, >= {terms}, "
                    f"{n}), got {stack.shape} ({stack.dtype})"
                )
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(2 * k * terms * n * len(jobs))
        if self._kernel is None:
            for b, m, stack, r in jobs:
                body, a = (
                    self.pointwise_accumulate(digits[:, b], half[:, :terms], count_ops=False)
                    for half in stack
                )
                slot = out[(slice(None), slice(None), *np.unravel_index(r, rows))]
                slot[0] = ((c0[:, b] + body) % self._primes_i64[:, None])[:, maps[m]]
                slot[1] = a[:, maps[m]]
            return
        # The kernel's ks_job table, in the caller's job order.  Key stacks
        # are C-contiguous, so a limb row is L * n words and the a half
        # starts k * L * n after the body half.
        table = np.empty((len(jobs), 8), dtype=np.int64)
        table[:, 0] = _ptr(digits) + members * digits.strides[1]
        table[:, 1] = _ptr(c0) + members * c0.strides[1]
        table[:, 2] = _ptr(maps) + map_ids * maps.strides[0]
        table[:, 3] = [_ptr(stack) for stack in stacks]
        table[:, 7] = [stack.shape[2] * n for stack in stacks]
        table[:, 4] = table[:, 3] + 4 * k * table[:, 7]
        table[:, 5] = _ptr(out) + _row_offsets(rows, out.strides[2:-1])[targets]
        table[:, 6] = table[:, 5] + out.strides[0]
        scratch = np.empty(2 * n, dtype=np.uint32)
        self._kernel.keyswitch_rotate(
            _ptr(table), len(jobs), digits.strides[0] // 8, digits.strides[2] // 8,
            c0.strides[0] // 8, out.strides[1] // 8, self._p_ptr, k, terms, n,
            _ptr(scratch), self._isa,
        )

    def weight_accumulate(
        self, c0, c1, weights, count_ops: bool = True, out=None
    ) -> np.ndarray:
        """HE_Mult-and-sum of both ciphertext halves against one weight stack.

        ``c0`` / ``c1`` are ``(k, T, n)`` or, for ``B`` batch members,
        ``(k, B, T, n)``; ``weights`` is ``(k, T, n)`` or, for ``O``
        output channels, ``(k, O, T, n)``.  Returns the stack ``(acc0,
        acc1)`` of shape ``(2, k, [B,] [O,] n)`` with ``acc0[:, b, o] =
        sum_t c0[:, b, t] * weights[:, o, t]`` -- slice for slice what
        :meth:`pointwise_accumulate` returns, accounted as that many
        calls -- written into ``out`` when given (a C-contiguous int64
        array of that shape).  The ciphertext rows of a tile are read once
        for all output channels and each weight row once for all batch
        members.
        """
        c0, c1, weights = _rows(c0), _rows(c1), _rows(weights)
        batched, channelled = c0.ndim == 4, weights.ndim == 4
        if c1.shape != c0.shape or c0.ndim - batched != 3 or weights.ndim - channelled != 3:
            raise ValueError(
                f"expected (k, [B,] T, n) ciphertext stacks and (k, [O,] T, n) "
                f"weights, got c0 {c0.shape}, c1 {c1.shape}, weights {weights.shape}"
            )
        if not batched:
            c0, c1 = c0[:, None], c1[:, None]
        if not channelled:
            weights = weights[:, None]
        k, batch, terms, n = c0.shape
        channels = weights.shape[1]
        if weights.shape != (k, channels, terms, n):
            raise ValueError(
                f"stack shapes differ: ciphertext {c0.shape}, weights {weights.shape}"
            )
        shape = (2, k, batch, channels, n)
        if out is None:
            acc = np.empty(shape, dtype=np.int64)
        else:
            kept = (True, True, batched, channelled, True)
            want = tuple(size for size, keep in zip(shape, kept) if keep)
            if (
                out.shape != want or out.dtype != np.int64
                or not out.flags.c_contiguous or not out.flags.writeable
            ):
                raise ValueError(f"out must be a writable C-contiguous int64 {want} array")
            acc = out.reshape(shape)
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(2 * k * batch * channels * terms * n)
        if not terms:
            acc[:] = 0
        elif self._kernel is None:
            for half, ct in enumerate((c0, c1)):
                for o in range(channels):
                    acc[half, :, :, o] = self.pointwise_accumulate_grouped(
                        ct, weights[:, o], count_ops=False
                    )
        else:
            if c0.strides != c1.strides:
                c0, c1 = np.ascontiguousarray(c0), np.ascontiguousarray(c1)
            self._kernel.mac_weights(
                _ptr(acc[0]), _ptr(acc[1]), _ptr(c0), _ptr(c1), *_strides(c0),
                _ptr(weights), *_strides(weights),
                self._p_ptr, k, batch, channels, terms, n,
            )
        index = (
            slice(None),
            slice(None),
            slice(None) if batched else 0,
            slice(None) if channelled else 0,
        )
        return acc[index]

    # -- decomposition and decryption on machine words ---------------------------

    def _coeff_automorphism(self, coeff: np.ndarray, galois_elt: int) -> np.ndarray:
        """x -> x^g on coefficient-domain residues ``(k, B, n)`` (word-level path).

        Coefficient j moves to exponent ``j g mod 2n``; exponents at or
        above n wrap with a sign flip (``x^n = -1``), a per-limb negate.
        """
        exponents = np.arange(self.n, dtype=np.int64) * galois_elt % (2 * self.n)
        wraps = exponents >= self.n
        primes = self._primes_i64[:, None, None]
        out = np.empty_like(coeff)
        out[:, :, exponents % self.n] = np.where(wraps & (coeff != 0), primes - coeff, coeff)
        return out

    def digit_residues(
        self, coeff, base_bits: int, num_digits: int, galois_elt: int = 1
    ) -> np.ndarray:
        """Key-switch decomposition: coefficient residues -> digit residues.

        ``coeff`` is a reduced coefficient-domain stack ``(k, n)`` or
        ``(k, B, n)``; the result ``(k, [B,] num_digits, n)`` holds, per
        limb, the residues of the base-``2^base_bits`` digits of every
        CRT-composed coefficient (after ``x -> x^galois_elt`` when that is
        not 1), least significant digit first -- exactly
        ``basis.decompose_stack(digit_decompose(basis.compose(coeff), ...))``
        without a Python integer.  When ``2^base_bits <= min(p_i)`` a
        digit is its own residue in every limb and the per-limb reduction
        is a broadcast.
        """
        coeff = np.ascontiguousarray(coeff, dtype=np.int64)
        squeeze = coeff.ndim == 2
        if squeeze:
            coeff = coeff[:, None]
        if coeff.ndim != 3 or coeff.shape[0] != self.count or coeff.shape[2] != self.n:
            raise ValueError(
                f"expected coefficient stack ({self.count}, batch, {self.n}), "
                f"got {coeff.shape}"
            )
        if not 1 <= base_bits <= MAX_WORD_BASE_BITS:
            raise ValueError(
                f"digit base must be 1..{MAX_WORD_BASE_BITS} bits, got {base_bits}"
            )
        if num_digits * base_bits < self._garner.modulus.bit_length():
            raise ValueError("coefficients exceed the representable digit range")
        k, batch, n = coeff.shape
        direct = (1 << base_bits) <= self._min_modulus
        out = np.empty((k, batch, num_digits, n), dtype=np.int64)
        if self._native_compose:
            g = self._garner
            scratch = np.empty(num_digits * native.SPLIT_BLOCK, dtype=np.uint64)
            self._kernel.rns_digit_split(
                _ptr(coeff), _ptr(out), _ptr(g.primes), _ptr(g.inv),
                _ptr(g.inv_shoup), _ptr(g.lift),
                k, batch, n, g.words64, num_digits, base_bits, galois_elt, direct,
                _ptr(scratch),
            )
        else:
            if galois_elt != 1:
                coeff = self._coeff_automorphism(coeff, galois_elt)
            words = compose_words(coeff, self._garner)
            digits = split_words(words, base_bits, num_digits).view(np.int64)
            out[:] = np.moveaxis(digits, 0, 1)
            if not direct:
                out %= self._primes_i64[:, None, None, None]
        return out[:, 0] if squeeze else out

    def scale_round(self, coeff, plain_modulus: int) -> np.ndarray:
        """BFV decryption scaling ``round(t w / q) mod t`` of a ``(k, n)`` stack.

        ``coeff`` holds the reduced coefficient-domain residues of
        ``w = c0 + c1 s``; returns the ``n`` message coefficients as
        int64, equal to ``((2 t w + q) // (2 q)) % t`` on the composed
        big integers (ties and all) without creating one.  The kernel
        rounds in fixed point and sends the few coefficients near a tie to
        the exact multiword rounding (``rns_scale_round``).
        """
        coeff = np.ascontiguousarray(coeff, dtype=np.int64)
        if coeff.shape != (self.count, self.n):
            raise ValueError(
                f"expected coefficient stack ({self.count}, {self.n}), got {coeff.shape}"
            )
        if not self._native_compose:
            return scale_round_words(compose_words(coeff, self._garner), self._garner, plain_modulus)
        if plain_modulus >= 1 << 31:
            raise ValueError("plain modulus must stay below 2^31")
        out = np.empty(self.n, dtype=np.int64)
        _, (_, *fixed_point) = _plain_tables(self.moduli, plain_modulus)
        self._kernel.rns_scale_round(
            _ptr(coeff), _ptr(out), *fixed_point, *self._garner_ptrs,
            self.count, self.n, self._garner.words64, plain_modulus,
        )
        return out

    # -- client crypto ---------------------------------------------------------

    def lift(self, small, messages, plain_modulus: int) -> np.ndarray:
        """Residues ``(k, S + B, n)`` of ``S`` small rows, then ``B`` plaintexts' ``Delta m``.

        ``small`` is an ``(S, n)`` stack of signed samples (secret, error,
        ``u``), each entry below every p_i in magnitude, so a sign add
        (``x + p_i`` where ``x < 0``) reduces it.  Row ``S + b`` holds
        ``Delta * (messages[b] mod t)``, ``Delta = floor(q / t)``: that is
        below q, so each residue is ``m * (Delta mod p_i) mod p_i`` --
        bit-identical to composing ``Delta m`` and decomposing it, with no
        big-integer CRT.  One ``rns_lift`` call fills the whole stack.
        """
        small, messages = (
            np.ascontiguousarray(rows, dtype=np.int64).reshape(-1, self.n)
            for rows in (small, messages)
        )
        (delta, _, _), (delta_ptr, _, _) = _plain_tables(self.moduli, plain_modulus)
        if self._kernel is None:
            primes = self._primes_i64[:, None, None]
            # m * (Delta mod p_i) stays below 2^63 only while bits(t) + bits(p) < 63.
            wide = plain_modulus.bit_length() + max(self.moduli).bit_length() >= 63
            reduced = (messages % plain_modulus).astype(object if wide else np.int64)
            lifted = reduced * delta[:, None, None].astype(reduced.dtype) % primes
            return np.concatenate([small + (small >> 63 & primes), lifted], axis=1).astype(np.int64)
        out = np.empty((self.count, len(small) + len(messages), self.n), dtype=np.int64)
        self._kernel.rns_lift(
            _ptr(out), _ptr(small), len(small), _ptr(messages), len(messages), delta_ptr,
            self._p_ptr, plain_modulus, self.count, self.n,
        )
        return out

    def multiply_add(self, xs, y, zs, w=None) -> np.ndarray:
        """``xs[h] * y + zs[h]``, plus ``w`` on row 0, mod p_i for one or two rows.

        Every operand is a reduced eval-domain ``(k, n)`` stack; returns
        ``(len(xs), k, n)``.  Encryption's two public-key products and
        three adds (``xs`` the key halves, ``y = u``, ``zs = (e0, e1)``,
        ``w = Delta m``) and decryption's phase ``c0 + c1 s`` are one
        ``rns_mul_add`` pass each, accounted as one :meth:`pointwise` per row.
        """
        xs, zs, y = [_rows(x) for x in xs], [_rows(z) for z in zs], _rows(y)
        ws = [] if w is None else [_rows(w)]
        if not 1 <= len(xs) == len(zs) <= 2 or any(
            a.shape != (self.count, self.n) for a in (*xs, y, *zs, *ws)
        ):
            raise ValueError(f"expected one or two rows of ({self.count}, {self.n}) stacks")
        GLOBAL_COUNTERS.add_modmuls(len(xs) * self.count * self.n)
        if self._kernel is None:
            acc = np.stack(xs) * y + np.stack(zs)
            acc[0] += sum(ws)
            return acc % self._primes_i64[:, None]
        # x0 and x1, z0 and z1 share a limb stride in the kernel.
        if xs[0].strides != xs[-1].strides or zs[0].strides != zs[-1].strides:
            xs, zs = [np.ascontiguousarray(a) for a in xs], [np.ascontiguousarray(a) for a in zs]
        out = np.empty((len(xs), self.count, self.n), dtype=np.int64)
        out0 = _ptr(out)
        x1, z1 = (_ptr(xs[1]), _ptr(zs[1])) if len(xs) == 2 else (None, None)
        self._kernel.rns_mul_add(
            out0, out0 + out[0].nbytes, _ptr(xs[0]), x1, *_strides(xs[0]), _ptr(y),
            *_strides(y), _ptr(zs[0]), z1, *_strides(zs[0]),
            *((_ptr(ws[0]), *_strides(ws[0])) if ws else (None, 0)),
            self._p_ptr, self.count, self.n,
        )
        return out

    def negacyclic_multiply(self, a, b) -> np.ndarray:
        """Full negacyclic product of coefficient-domain stacks."""
        a_eval = self.forward(a)
        b_eval = self.forward(b)
        product = self.pointwise(a_eval, b_eval)
        return self.inverse(product)

    def __repr__(self) -> str:
        path = "native" if self.uses_native_kernel else "numpy"
        return f"RnsNttEngine(n={self.n}, k={self.count}, path={path})"
