"""Batched RNS engine: every stage of the lane datapath, client crypto included.

:class:`RnsNttEngine` owns each stage of the paper's lane (Figure 9c:
INTT -> Decompose -> NTT -> SIMDmult -> Compose) and the client's BFV
crypto as compiled kernels (``_ntt_kernel.c`` via :mod:`repro.bfv.native`;
``docs/ARCHITECTURE.md`` section 1 has the stage-by-stage table):

* :meth:`~RnsNttEngine.forward` / :meth:`~RnsNttEngine.inverse` -- the
  transforms over a whole ``(k, batch, n)`` residue stack in one call,
  with 32-bit Shoup lazy reduction (every modulus is below 2^30, so
  ``4p`` fits 32 bits) in AVX-512F, AVX2 or scalar lanes
  (``native.kernel_status`` names the body): a DIT forward and a
  Gentleman-Sande inverse, each row bit-reversed in one scalar pass.
* :meth:`~RnsNttEngine.hoist` -- INTT -> Decompose -> NTT in one call:
  Garner's mixed-radix compose on 32-bit words and a base-``2^Adcmp``
  split with no Python integer, for a basis of any size; each member's
  digits are written once and transformed for every limb from the lane's
  cache, its rows bit-reversed from the INTT to the NTT (no gather).
* :meth:`~RnsNttEngine.keyswitch_rotate` -- HE_Rotate after the
  decomposition for a whole table of rotation jobs in one call: both key
  halves (``uint32``, in the digits' slot order) in one contiguous walk,
  the add of c0, then one gather through the eval map (the Swap), summed
  into the row when jobs share one (Sched-PA's giant steps).
* :meth:`~RnsNttEngine.weight_accumulate` -- SIMDmult of HE_Mult: c0 and
  c1 against one weight stack, every output channel and batch member.
* :meth:`~RnsNttEngine.run_layer` -- a whole linear layer call, a
  :class:`LayerProgram` of hoists, key switches, weight MACs and copies
  lowered once, in one ``rns_layer_run`` call.
* :meth:`~RnsNttEngine.lift` and :meth:`~RnsNttEngine.multiply_add` --
  encryption (signed samples and ``Delta m`` into one stack, then both
  public-key products and the adds in one pass) and decryption's phase;
  :meth:`~RnsNttEngine.scale_round` -- the client's Compose,
  ``round(t w / q) mod t`` in fixed point with an exact tie branch;
  :meth:`~RnsNttEngine.galois_key` -- a Galois key's stack in one pass.

The multiply-accumulates add *unreduced* products (limbs are below 2^30,
so several fit a 64-bit word; longer sums are chunked) and reduce once
per output coefficient.  The transforms, hoist, key switch and weight
MAC split a large call across the process's lanes inside the
kernel (``native.kernel_status()["lanes"]``), in items that each write
their own rows, so the bytes do not depend on the lane count; the
kernel allocates every lane's scratch itself.  Without the kernel (no
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
from numpy.lib.stride_tricks import as_strided

from . import native
from .counters import GLOBAL_COUNTERS, OpCounters
from .decompose import MAX_WORD_BASE_BITS, split_words
from .ntt import MAX_NTT_MODULUS_BITS, NttContext, bit_reverse_indices
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


def _lines(shape, dtype=np.int64) -> np.ndarray:
    """An empty C-contiguous array starting on a cache line (64 bytes)."""
    raw = np.empty(int(np.prod(shape)) * np.dtype(dtype).itemsize + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + raw.size - 64].view(dtype).reshape(shape)


def _strides(array: np.ndarray) -> tuple[int, ...]:
    """Strides of the outer axes, in elements."""
    return tuple(step // array.itemsize for step in array.strides[:-1])


@lru_cache(maxsize=256)
def _row_offsets(shape: tuple[int, ...], strides: tuple[int, ...]) -> tuple[int, ...]:
    """Byte offset of every index of ``shape``, flattened in C order."""
    offsets = np.zeros(1, dtype=np.int64)
    for size, stride in zip(shape, strides):
        offsets = (offsets[:, None] + np.arange(size, dtype=np.int64) * stride).ravel()
    return tuple(offsets.tolist())


def _check_key(key, terms: int, k: int, n: int) -> None:
    """Refuse a key the kernel would read past: the rest of its layout was checked when made."""
    if key.depth < terms or key.stack.shape[1::2] != (k, n):
        raise ValueError(
            f"key-switch key for Galois element {key.galois_elt} has {key.depth} "
            f"digit pairs of {key.stack.shape[1::2]} but the ciphertext decomposes "
            f"into {terms} digits of {(k, n)}; generate the key under the same parameters"
        )


def _run_rows(out, targets) -> list[int]:
    """Byte offsets in ``(2, k, *R, n)`` ``out`` of the rows ``targets`` of a job table.

    Consecutive jobs on one row are a run, summed there by one lane per
    limb; a row in two runs would be written by two lanes and is refused.
    """
    offsets = _row_offsets(out.shape[2:-1], out.strides[2:-1])
    at = [offsets[r] for r in targets]
    heads = [row for j, row in enumerate(at) if not j or row != at[j - 1]]
    if len(set(heads)) < len(heads):
        raise ValueError("a job table names one output row in two runs")
    return at


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
        self._maps: dict[tuple[int, ...], np.ndarray] = {}  # by element set, see galois_maps

        self._kernel = None
        if use_native is None or use_native:
            self._kernel = native.load_kernel()
        if self._kernel is not None:
            self._init_native()

    def _init_native(self) -> None:
        """The C transforms' tables, each with its Shoup quotients.

        ``(k, n)`` stage twiddles (stage s in columns ``[2^s, 2^(s+1))``,
        each on a cache line), the pre-twist ``psi^j`` and the inverse
        scale ``n^-1 psi^-j``, both bit-reversed.  Every w is below its
        limb's p < 2^30, so ``floor(w * 2^32 / p)`` is exact in uint64.
        """
        bitrev = bit_reverse_indices(self.n)
        p = np.array(self.moduli, dtype=np.uint64)
        tables = {
            "tw": [np.concatenate([[0], *c._stage_twiddles]) for c in self.contexts],
            "itw": [np.concatenate([[0], *c._stage_itwiddles]) for c in self.contexts],
            "iscale": [(c._ipsi_powers * c._n_inv % c.modulus)[bitrev] for c in self.contexts],
            "psi": [c._psi_powers[bitrev] for c in self.contexts],
        }
        self._nat = {"perm": np.ascontiguousarray(bitrev), "p": p}
        for name, rows in tables.items():
            table = self._nat[name] = _lines((self.count, self.n), np.uint64)
            table[:] = rows
            self._nat[name + "_sh"] = _lines(table.shape, np.uint64)
            np.floor_divide(table << SHOUP_SHIFT, p[:, None], out=self._nat[name + "_sh"])
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
            _ptr(table) for table in (g.primes, g.inv, g.inv_shoup, g.lift, g.q_words)
        )
        hoist = ("psi", "psi_sh", "tw", "tw_sh", "iscale", "iscale_sh", "itw", "itw_sh")
        self._hoist_tables = tuple(_ptr(self._nat[name]) for name in hoist) + self._garner_ptrs[:4]
        self._layer_tables = np.array(self._hoist_tables, dtype=np.uint64)  # rns_layer_run's t

    @property
    def uses_native_kernel(self) -> bool:
        return self._kernel is not None

    def _native_transform(self, arr: np.ndarray, forward: bool) -> np.ndarray:
        k, batch, n = arr.shape
        # Out of place, from the caller's stack into the output (int64 and
        # uint64 share the bits of a reduced residue).  A per-call output
        # keeps this path lock-free: the tables are read-only and ctypes
        # releases the GIL, so serving threads transform in parallel.
        src = np.ascontiguousarray(arr)
        out = np.empty(arr.shape, dtype=np.int64)
        kernel = self._kernel.ntt_forward if forward else self._kernel.ntt_inverse
        if kernel(_ptr(src), _ptr(out), *self._nat_tables[forward], k, batch, n, self._isa):
            raise MemoryError(f"no {n}-word row for the transform's lane")
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

    def _transform(self, stack, forward: bool, count_ops: bool, reduced: bool) -> np.ndarray:
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

    def forward(self, stack, count_ops: bool = True, *, reduced: bool = False) -> np.ndarray:
        """Coefficients -> evaluations for a (k, n) or (k, batch, n) stack.

        Row ``(i, ..., j)`` of the output holds ``a_i(psi_i^(2j+1))`` in
        natural order j, matching :meth:`NttContext.forward` bit-exactly.
        Arbitrary int64 input is reduced first; ``reduced=True`` asserts
        every residue already lies in ``[0, p_i)`` (ciphertext data, the
        engine's own outputs) and skips the two range scans.
        """
        return self._transform(stack, True, count_ops, reduced)

    def inverse(self, stack, count_ops: bool = True, *, reduced: bool = False) -> np.ndarray:
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

        The reference of :meth:`weight_accumulate`: ``b`` is ``(k, T, n)``,
        shared by every group, or ``(k, B, T, n)``; slice ``[:, i]`` of the
        result is bit-identical to ``pointwise_accumulate(a[:, i], b)`` (or
        ``b[:, i]``).
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

    def galois_maps(self, elts: tuple[int, ...]) -> np.ndarray:
        """The ``(len(elts), n)`` eval maps of Galois elements, built once per set:
        an element odd in ``(0, 2n)`` maps into ``[0, n)``; the kernel gathers unchecked."""
        maps = self._maps.get(elts)
        if maps is None:
            from .polynomial import eval_domain_galois_map  # polynomial imports this module
            if any(elt % 2 == 0 or not 0 < elt < 2 * self.n for elt in elts):
                raise ValueError(f"Galois elements must be odd in (0, {2 * self.n}), got {elts}")
            maps = self._maps[elts] = np.stack([eval_domain_galois_map(self.n, e) for e in elts])
        return maps

    def keyswitch_rotate(self, digits, c0, elts, jobs, out, count_ops=True):
        """Run a table of key-switching rotations in one call.

        ``digits`` is an eval-domain ``(k, B, T, n)`` digit stack, ``c0`` the
        members' ``(k, B, n)`` first halves.  Job ``(b, m, key, r)`` rotates
        member ``b`` under ``g``, the eval map of Galois element ``elts[m]``
        (:meth:`galois_maps`), with ``key``, a :class:`~repro.bfv.keys.KeySwitchKey`
        of at least ``T`` pairs, into row ``r`` of ``out``:

        * ``out[0][:, r] = (c0[:, b] + sum_t x[:, b, t] * key[0, :, t])[:, g]``
        * ``out[1][:, r] = (sum_t x[:, b, t] * key[1, :, t])[:, g]``  (mod p_i)

        ``out`` is int64 of shape ``(2, k, *R, n)`` with contiguous rows
        and any strides otherwise; row ``r`` is the C-order index into
        ``R``, and rows no job names are left untouched.  Consecutive jobs
        on one row (a stride-0 axis of ``R`` makes them) are a run, summed
        there: the first writes, the rest add (:func:`_run_rows`).  The
        native path is one ``keyswitch_rotate`` kernel call (the ``_isa``
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
        members, map_ids, keys, targets = zip(*jobs)
        maps = self.galois_maps(tuple(elts))
        # The kernel indexes with all of these unchecked.
        for field, bound, name in (
            (members, batch, "member"), (map_ids, len(maps), "map"),
            (targets, math.prod(rows), "output row"),
        ):
            if min(field) < 0 or max(field) >= bound:
                raise ValueError(f"a job's {name} index is outside [0, {bound})")
        at = _run_rows(out, targets)
        for key in keys:
            _check_key(key, terms, k, n)
        if count_ops:
            GLOBAL_COUNTERS.add_modmuls(2 * k * terms * n * len(jobs))
        if self._kernel is None:
            self._keyswitch_reference(digits, c0, maps, jobs, out)
            return
        # The kernel's ks_job table, in the caller's job order.  Key stacks
        # are C-contiguous, so a limb row is L * n words and the a half
        # starts k * L * n after the body half.
        x, c, g, o = _ptr(digits), _ptr(c0), _ptr(maps), _ptr(out)
        table = np.array([
            (x + b * digits.strides[1], c + b * c0.strides[1], g + m * maps.strides[0],
             key.address, key.address + 4 * k * key.depth * n, o + row, o + row + out.strides[0],
             key.depth * n)
            for b, m, key, row in zip(members, map_ids, keys, at)
        ], dtype=np.int64)
        if self._kernel.keyswitch_rotate(
            _ptr(table), len(jobs), digits.strides[0] // 8, digits.strides[2] // 8,
            c0.strides[0] // 8, out.strides[1] // 8, self._p_ptr, k, terms, n, 0, self._isa,
        ):
            raise MemoryError(f"no {2 * n}-word row for the key switch's lane")

    def _keyswitch_reference(self, digits, c0, maps, jobs, out, accumulate=False) -> None:
        """:meth:`keyswitch_rotate` job by job; ``accumulate`` is a program op's."""
        primes, terms, rows = self._primes_i64[:, None], digits.shape[2], out.shape[2:-1]
        at = _row_offsets(rows, out.strides[2:-1])
        for j, (b, m, key, r) in enumerate(jobs):
            body, a = (self.pointwise_accumulate(digits[:, b], half[:, :terms], False)
                       for half in key.stack)
            rotated = np.stack([(c0[:, b] + body) % primes, a])[..., maps[m]]
            slot = out[(slice(None), slice(None), *np.unravel_index(r, rows))]
            run = accumulate or j and at[r] == at[jobs[j - 1][3]]
            slot[:] = (slot + rotated) % primes if run else rotated

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
            raise ValueError(f"stack shapes differ: ciphertext {c0.shape}, weights {weights.shape}")
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
            self._mac_reference(c0, c1, weights, acc)
        else:
            if c0.strides != c1.strides:
                c0, c1 = np.ascontiguousarray(c0), np.ascontiguousarray(c1)
            self._kernel.mac_weights(
                _ptr(acc[0]), _ptr(acc[1]), _ptr(c0), _ptr(c1), *_strides(c0),
                _ptr(weights), *_strides(weights),
                self._p_ptr, k, batch, channels, terms, n, self._isa,
            )
        return acc[:, :, slice(None) if batched else 0, slice(None) if channelled else 0]

    def _mac_reference(self, c0, c1, weights, acc) -> None:
        """:meth:`weight_accumulate` into ``acc`` on :meth:`pointwise_accumulate_grouped`."""
        for h, ct in enumerate((c0, c1)):
            for o in range(weights.shape[1]):
                acc[h, :, :, o] = self.pointwise_accumulate_grouped(ct, weights[:, o], False)

    # -- decomposition and decryption on machine words ---------------------------

    def hoist(self, c1, base_bits: int, num_digits: int) -> np.ndarray:
        """Key switching's INTT -> Decompose -> NTT: eval-domain ``c1`` -> eval-domain digits.

        ``c1`` is a reduced eval-domain stack ``(k, n)`` or ``(k, B, n)``;
        the result ``(k, [B,] num_digits, n)`` holds, per limb, the
        transformed residues of the base-``2^base_bits`` digits of every
        CRT-composed coefficient, least significant digit first -- exactly
        :meth:`forward` of
        ``basis.decompose_stack(digit_decompose(basis.compose(inverse(c1))))``
        without a Python integer, accounted as those ``k B`` inverse and
        ``k B num_digits`` forward transforms.  The kernel (``rns_hoist``)
        runs a member's three stages from cache and writes each digit once,
        not once per limb (a limb reduces it only when ``2^base_bits >
        p_i``).  The reference runs the transforms and the word-level
        compose and split in turn.
        """
        c1 = np.ascontiguousarray(c1, dtype=np.int64)
        squeeze = c1.ndim == 2
        if squeeze:
            c1 = c1[:, None]
        if c1.ndim != 3 or c1.shape[0] != self.count or c1.shape[2] != self.n:
            raise ValueError(
                f"expected residue stack ({self.count}, batch, {self.n}), got {c1.shape}"
            )
        if not 1 <= base_bits <= MAX_WORD_BASE_BITS:
            raise ValueError(f"digit base must be 1..{MAX_WORD_BASE_BITS} bits, got {base_bits}")
        if num_digits * base_bits < self._garner.modulus.bit_length():
            raise ValueError("coefficients exceed the representable digit range")
        k, batch, n = c1.shape
        GLOBAL_COUNTERS.add_ntt(n, count=k * batch * (1 + num_digits))
        out = _lines((k, batch, num_digits, n))
        if self._kernel is not None:
            self._native_hoist(c1, out, base_bits)
        else:
            self._hoist_reference(c1, out, base_bits)
        return out[:, 0] if squeeze else out

    def _hoist_reference(self, c1, out, base_bits: int) -> None:
        """The hoist into contiguous ``out``: the transforms, word compose and split in turn."""
        coeff = self._transform(c1, False, count_ops=False, reduced=True)
        digits = split_words(compose_words(coeff, self._garner), base_bits, out.shape[2])
        out[:] = np.moveaxis(digits.view(np.int64), 0, 1)  # each limb's residue ...
        if (1 << base_bits) > self._min_modulus:
            out %= self._primes_i64[:, None, None, None]  # ... unless it exceeds p_i
        flat = out.reshape(self.count, -1, self.n)
        flat[:] = self._transform(flat, True, count_ops=False, reduced=True)

    def _native_hoist(self, c1, out, base_bits: int) -> None:
        """``rns_hoist`` of C-contiguous ``c1`` ``(k, B, n)`` into ``out`` ``(k, B, L, n)``."""
        k, batch, num_digits, n = out.shape
        if self._kernel.rns_hoist(
            _ptr(c1), _ptr(out), *self._hoist_tables, k, batch, n, self._garner.words32,
            num_digits, base_bits, self._isa,
        ):
            raise MemoryError(f"no {(k + num_digits) * n}-word scratch for the hoist's lane")

    def scale_round(self, coeff, plain_modulus: int) -> np.ndarray:
        """BFV decryption scaling ``round(t w / q) mod t`` of a ``(k, [B,] n)`` stack.

        ``coeff`` holds the reduced coefficient-domain residues of
        ``w = c0 + c1 s`` (of ``B`` ciphertexts); returns the ``([B,] n)``
        message coefficients as int64, equal to ``((2 t w + q) // (2 q)) %
        t`` on the composed big integers (ties and all) without creating
        one.  The kernel rounds ``B n`` columns in fixed point in one call
        and sends the few near a tie to the exact multiword rounding
        (``rns_scale_round``).
        """
        coeff = np.ascontiguousarray(coeff, dtype=np.int64)
        if coeff.shape[0] != self.count or coeff.shape[-1] != self.n or not 2 <= coeff.ndim <= 3:
            raise ValueError(
                f"expected coefficient stack ({self.count}, [B,] {self.n}), got {coeff.shape}"
            )
        if not 1 < plain_modulus < 1 << MAX_NTT_MODULUS_BITS:  # BfvParameters' bound
            raise ValueError(f"plain modulus must lie in (1, 2^{MAX_NTT_MODULUS_BITS})")
        if self._kernel is None:
            return scale_round_words(compose_words(coeff, self._garner), self._garner, plain_modulus)
        out = np.empty(coeff.shape[1:], dtype=np.int64)
        _, (_, *fixed_point) = _plain_tables(self.moduli, plain_modulus)
        self._kernel.rns_scale_round(
            _ptr(coeff), _ptr(out), *fixed_point, *self._garner_ptrs,
            self.count, out.size, self._garner.words32, plain_modulus,
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

        Every operand is a reduced eval-domain ``(k, n)`` stack, or ``(k, B
        n)`` for ``B`` polynomials side by side; returns ``(len(xs), k, B
        n)``.  Encryption's two public-key products and three adds (``xs``
        the key halves, ``y = u``, ``zs = (e0, e1)``, ``w = Delta m``) and
        decryption's phase ``c0 + c1 s`` (of a round's replies at once) are
        one ``rns_mul_add`` pass each, accounted as one :meth:`pointwise`
        per row and polynomial.
        """
        xs, zs, y = [_rows(x) for x in xs], [_rows(z) for z in zs], _rows(y)
        ws = [] if w is None else [_rows(w)]
        if not 1 <= len(xs) == len(zs) <= 2 or y.ndim != 2 or y.shape[0] != self.count or (
            y.shape[1] % self.n or any(a.shape != y.shape for a in (*xs, *zs, *ws))
        ):
            raise ValueError(f"expected one or two rows of ({self.count}, B * {self.n}) stacks")
        GLOBAL_COUNTERS.add_modmuls(len(xs) * y.size)
        if self._kernel is None:
            acc = np.stack(xs) * y + np.stack(zs)
            acc[0] += sum(ws)
            return acc % self._primes_i64[:, None]
        # x0 and x1, z0 and z1 share a limb stride in the kernel.
        if xs[0].strides != xs[-1].strides or zs[0].strides != zs[-1].strides:
            xs, zs = [np.ascontiguousarray(a) for a in xs], [np.ascontiguousarray(a) for a in zs]
        out = np.empty((len(xs), *y.shape), dtype=np.int64)
        out0 = _ptr(out)
        x1, z1 = (_ptr(xs[1]), _ptr(zs[1])) if len(xs) == 2 else (None, None)
        self._kernel.rns_mul_add(
            out0, out0 + out[0].nbytes, _ptr(xs[0]), x1, *_strides(xs[0]), _ptr(y),
            *_strides(y), _ptr(zs[0]), z1, *_strides(zs[0]),
            *((_ptr(ws[0]), *_strides(ws[0])) if ws else (None, 0)),
            self._p_ptr, self.count, y.shape[1],
        )
        return out

    def galois_key(self, a, neg_errors, secret, order, base_bits: int) -> np.ndarray:
        """One Galois key's ``uint32`` ``(2, k, T, n)`` stack in its slot order.

        ``a`` (the digit pairs' uniform draws) and ``neg_errors`` (their
        negated errors' evaluations) are reduced ``(k, T, n)`` stacks,
        ``secret`` is s's ``(k, n)`` evaluations and ``order`` the inverse of
        the element's eval map.  Pair ``j``, ``(-(a s + e) + 2^(base_bits j)
        s(x^g), a)``, lands with slot ``order[t]`` at ``t``, where ``s(x^g)``
        is ``s`` (``rns_galois_key``); accounted as one :meth:`pointwise` per pair.
        """
        a, neg_errors, secret, order = (
            np.ascontiguousarray(x, dtype=np.int64) for x in (a, neg_errors, secret, order)
        )
        k, terms, n = a.shape
        if (
            (k, n) != (self.count, self.n) or neg_errors.shape != a.shape
            or secret.shape != (k, n) or order.shape != (n,)
            or not 0 <= order.min() <= order.max() < n  # the kernel gathers unchecked
        ):
            raise ValueError("expected (k, T, n) draws and errors, a (k, n) secret, n slots")
        GLOBAL_COUNTERS.add_modmuls(k * terms * n)
        powers = np.array([[pow(2, base_bits * j, p) for j in range(terms)] for p in self.moduli])
        powers = powers.astype(np.int64)  # (k, T): w^j mod p_i, also for T = 0
        if self._kernel is None:
            primes = self._primes_i64[:, None, None]
            drawn, moved = (np.take(x, order, axis=-1) for x in (a, neg_errors))
            body = drawn * (primes - np.take(secret, order, axis=-1)[:, None]) + moved
            body += powers[..., None] * secret[:, None]
            return np.stack([body % primes, drawn]).astype(np.uint32)
        out = np.empty((2, k, terms, n), dtype=np.uint32)
        self._kernel.rns_galois_key(
            _ptr(out), _ptr(a), _ptr(neg_errors), _ptr(secret), _ptr(order), _ptr(powers),
            self._p_ptr, k, terms, n,
        )
        return out

    # -- layer programs --------------------------------------------------------

    def run_layer(self, program: "LayerProgram", inputs, keys) -> np.ndarray:
        """One linear layer call: ``program`` over the stacked input halves.

        ``inputs`` is the C-contiguous int64 :attr:`LayerProgram.input_shape`
        stack and ``keys[b]`` request ``b``'s :class:`~repro.bfv.keys.GaloisKeys`;
        returns the ``(2, k, B, U, n)`` output halves.  The inputs and every
        key the program names are checked before any op runs.  One
        ``rns_layer_run`` call runs every op; without the kernel the same ops
        run on the references.  The program's census is counted once.
        """
        k, n, batch = self.count, self.n, program.batch
        if (program.k, program.n) != (k, n) or len(keys) != batch or not (
            isinstance(inputs, np.ndarray) and inputs.shape == program.input_shape
            and inputs.dtype == np.int64 and inputs.flags.c_contiguous
        ):
            raise ValueError(
                f"a {program.input_shape} program of {batch} requests over ({k}, {n}) got "
                f"{np.shape(inputs)} inputs and {len(keys)} key sets"
            )
        table = [keys[b].key_for(elt) for elt in program.elts for b in range(batch)]
        for key in table:
            _check_key(key, program.num_digits, k, n)
        out = _lines(program.output_shape)
        buffers = [inputs, out, program.weights, program.maps,
                   *(_lines((size,)) for size in program.sizes[_MAPS + 1:])]
        GLOBAL_COUNTERS.fold(program.census.he_ops())
        if self._kernel is None:
            self._run_reference(program, buffers, table)
            return out
        keys = np.array([(key.address, key.depth) for key in table], dtype=np.int64)
        bases = np.array([_ptr(buffer) for buffer in buffers], dtype=np.uint64)
        if self._kernel.rns_layer_run(
            _ptr(program.table), len(program.records), _ptr(bases), _ptr(keys),
            _ptr(self._layer_tables), k, n, self._garner.words32, program.num_digits,
            program.base_bits, self._isa,
        ):
            raise MemoryError("no scratch row or job table for the layer call's lanes")
        return out

    def _run_reference(self, program: "LayerProgram", buffers, keys) -> None:
        """:meth:`run_layer` op by op on the references: the kernel-off interpreter."""

        def view(ref):
            region, offset, shape, strides = ref
            return np.ndarray(shape, np.int64, buffers[region], 8 * offset, np.multiply(strides, 8))

        for kind, *refs, extra in program.records:
            if kind == _HOIST:
                self._hoist_reference(view(refs[0]), view(refs[1]), program.base_bits)
            elif kind == _MAC:
                self._mac_reference(*view(refs[0]), view(refs[1]), view(refs[2]))
            elif kind == _KEYSWITCH:
                accumulate, jobs = extra
                jobs = [(m, e, keys[slot], r) for m, e, slot, r in jobs]
                digits, c0, out = map(view, refs)
                self._keyswitch_reference(digits, c0, program.maps, jobs, out, accumulate)
            else:
                src, dst = map(view, refs)
                dst[:] = (dst + src) % self._primes_i64[:, None] if extra else src

    def negacyclic_multiply(self, a, b) -> np.ndarray:
        """Full negacyclic product of coefficient-domain stacks."""
        return self.inverse(self.pointwise(self.forward(a), self.forward(b)))

    def __repr__(self) -> str:
        path = "native" if self.uses_native_kernel else "numpy"
        return f"RnsNttEngine(n={self.n}, k={self.count}, path={path})"


#: Op kinds of a layer program, numbered as ``rns_layer_run`` reads them.
_HOIST, _MAC, _KEYSWITCH, _COPY = range(4)
#: A layer call's regions by operand base; its scratch areas follow.
_INPUT, _OUTPUT, _WEIGHTS, _MAPS = range(4)


class _Ref(np.ndarray):
    """A view of a layer call's region: its addresses are offsets, its data never read;
    it prints no data, and every ufunc and numpy function but ``broadcast_to`` (a
    view) raises ``TypeError``."""

    def __array_finalize__(self, obj):
        self.region = getattr(obj, "region", None)

    def __repr__(self) -> str:
        return f"<layer call region {self.region} operand {self.shape}>"

    __str__ = __repr__

    def __array_ufunc__(self, ufunc, method, *args, **kwargs):
        raise TypeError(f"{ufunc.__name__} of a layer program operand, which has no data")

    def __array_function__(self, func, types, args, kwargs):
        if func is not np.broadcast_to:
            raise TypeError(f"{func.__name__} of a layer program operand, which has no data")
        return super().__array_function__(func, types, args, kwargs)


def _region(region: int, array: np.ndarray) -> _Ref:
    ref = array.view(_Ref)
    ref.region = region
    return ref


def _virtual(region: int, words: int) -> _Ref:
    """``words`` words of a region that has no memory yet: an address range
    over an 8-byte array, whose data must never be read."""
    return _region(region, as_strided(np.zeros(1, np.int64), (words,), (8,)))


class LayerProgram:
    """A linear layer call lowered once into the ops ``rns_layer_run`` runs.

    :mod:`repro.scheduling.plan` builds one per plan and batch size from
    numpy views of the call's regions -- :attr:`input` (the stacked
    ``(2, k, M, n)`` input halves), :attr:`output` (``(2, k, B, U, n)``),
    :attr:`weights` and :meth:`scratch` areas, each sized by its largest
    use -- whose addresses serve only as offsets: an op records each
    operand as ``(region, offset, shape, strides)`` in words and checks its
    indices and extent as it is added.  The ops are :meth:`hoist`,
    :meth:`mac` and :meth:`rotate` (one key-switch run table, and copies
    for the identity), each counted in :attr:`census` as the scheme's
    operators count it.  :meth:`finish` freezes :attr:`records` (for the
    reference interpreter) and :attr:`table` (the kernel's int64 words) and
    drops the views.  :meth:`RnsNttEngine.run_layer` runs the result,
    checking only its inputs and keys, from any number of threads at once.
    """

    def __init__(self, engine, params, batch: int, inputs: int, outputs: int, weights):
        k, n = engine.count, engine.n
        self.k, self.n, self.batch = k, n, batch
        self.base_bits, self.num_digits = params.a_dcmp_bits, params.l_ct
        self.input_shape, self.output_shape = (2, k, batch * inputs, n), (2, k, batch, outputs, n)
        #: Galois element -> its eval map's row; key slot ``row * batch + request``.
        self.elts: dict[int, int] = {}
        self.census = OpCounters()
        self.sizes = [math.prod(self.input_shape), math.prod(self.output_shape), weights.size, 0]
        self.input = _virtual(_INPUT, self.sizes[_INPUT]).reshape(self.input_shape)
        self.output = _virtual(_OUTPUT, self.sizes[_OUTPUT]).reshape(self.output_shape)
        #: Read in place: a memmapped ``.rpa`` section stays one.
        self.weights = _region(_WEIGHTS, np.ascontiguousarray(weights, dtype=np.int64))
        self._engine, self._records, self._areas = engine, [], {}
        self._bases = [_ptr(self.input), _ptr(self.output), _ptr(self.weights), 0]

    def scratch(self, name: str, shape) -> _Ref:
        """The first ``prod(shape)`` words of scratch area ``name``, C-contiguous."""
        if name not in self._areas:
            self._areas[name] = _virtual(len(self.sizes), 1 << 40)
            self._bases.append(_ptr(self._areas[name]))
            self.sizes.append(0)
        return self._areas[name][: math.prod(shape)].reshape(shape)

    def _ref(self, view, contiguous: bool = False) -> tuple:
        """``view`` as ``(region, offset, shape, strides)`` in words, checked against its region."""
        region = getattr(view, "region", None)
        offset = (_ptr(view) - self._bases[region]) // 8 if region is not None else -1
        strides = tuple(step // 8 for step in view.strides)
        reach = offset + sum((size - 1) * step for size, step in zip(view.shape, strides)) + 1
        if offset < 0 or min(strides) < 0 or strides[-1] != 1 or (
            contiguous and not view.flags.c_contiguous
        ):
            raise ValueError(f"operand {view.shape} is no row-major view of a layer call's region")
        if region > _MAPS:
            self.sizes[region] = max(self.sizes[region], reach)
        elif reach > self.sizes[region]:
            raise ValueError(f"operand {view.shape} reaches past its region")
        return region, offset, view.shape, strides

    def hoist(self, src) -> _Ref:
        """The key-switching digits ``(k, M, L, n)`` of ``src``'s c1 half, in scratch;
        ``src`` is ``(2, k, M, n)``, counted as :meth:`RnsNttEngine.hoist` counts."""
        k, members, n = src.shape[1:]
        digits = self.scratch("digits", (k, members, self.num_digits, n))
        self._records.append((_HOIST, self._ref(src[1], True), self._ref(digits), None))
        self.census.add_ntt(n, count=k * members * (1 + self.num_digits))
        return digits

    def mac(self, x, weights, out) -> None:
        """``out[h][:, b, o] = sum_t x[h][:, b, t] weights[:, o, t]`` for ``x`` ``(2, k, B,
        T, n)``, ``weights`` ``(k, O, T, n)`` and contiguous ``out``, counted as
        :meth:`~repro.bfv.scheme.BfvScheme.mul_plain_accumulate_grouped` counts."""
        _, k, batch, terms, n = x.shape
        channels = weights.shape[1]
        if weights.shape != (k, channels, terms, n) or out.shape != (2, k, batch, channels, n):
            raise ValueError(f"stack shapes differ: x {x.shape}, weights {weights.shape}, "
                             f"out {out.shape}")
        self._records.append((_MAC, self._ref(x), self._ref(weights), self._ref(out, True), None))
        self.census.he_mult += batch * channels * terms
        self.census.he_add += batch * channels * max(0, terms - 1)
        self.census.add_modmuls(2 * k * batch * channels * terms * n)

    def rotate(self, src, digits, elts, out, per_request: int, accumulate: bool = False) -> None:
        """Member ``m`` of ``src`` ``(2, k, M, n)`` under ``elts[m][s]`` and the key of
        request ``m // per_request`` into column ``s`` of member ``m`` of ``out`` ``(2, k,
        *shape, S, n)`` (the C-order index into ``shape``), or added there under ``accumulate``.

        :meth:`~repro.bfv.scheme.BfvScheme.rotate_rows_group` as ops: element
        1 is a copy, every other entry a job of one key-switch run table over
        ``digits`` (:meth:`hoist`), where jobs on one row (a stride-0 axis of
        ``out``) sum; a row in two runs is refused.
        """
        shape, columns = out.shape[2:-2], out.shape[-2]
        if not src.shape[2] == len(elts) == math.prod(shape) or {len(r) for r in elts} != {columns}:
            raise ValueError(f"{len(elts)} x {columns} elements do not fill out {out.shape}")
        jobs, copies = [], []
        for m, row in enumerate(elts):
            for s, elt in enumerate(row):
                if elt == 1:
                    slot = out[(slice(None), slice(None), *np.unravel_index(m, shape), s)]
                    copies.append((_COPY, self._ref(src[:, :, m]), self._ref(slot), accumulate))
                else:
                    e = self.elts.setdefault(elt, len(self.elts))
                    jobs.append((m, e, e * self.batch + m // per_request, m * columns + s))
        if jobs:
            if digits is None or digits.shape[:2] != src.shape[1:3]:
                raise ValueError(f"rotations of {src.shape} members need their digits")
            _run_rows(out, [job[3] for job in jobs])
            refs = (self._ref(digits), self._ref(src[0]), self._ref(out))
            self._records.append((_KEYSWITCH, *refs, (accumulate, tuple(jobs))))
            self.census.he_rotate += len(jobs)
            self.census.add_modmuls(2 * self.k * self.num_digits * self.n * len(jobs))
        self._records.extend(copies)

    def finish(self) -> "LayerProgram":
        """Freeze the program: the eval maps, :attr:`records` and :attr:`table`."""
        elts = tuple(self.elts)
        self.maps = self._engine.galois_maps(elts) if elts else np.zeros((0, self.n), np.int64)
        self.sizes[_MAPS] = self.maps.size
        words = []
        # Each op's words in the order of rns_layer_run's field enums; an
        # operand is (region, byte offset), strides are in words.
        for kind, *refs, extra in self._records:
            ops = [((region, 8 * offset), strides) for region, offset, _, strides in refs]
            if kind == _HOIST:
                (c1, _), (digits, _) = ops
                words += [kind, refs[0][2][1], *c1, *digits]
            elif kind == _MAC:
                (x, xs), (w, ws), (out, _) = ops
                (_, _, batch, terms, _), channels = refs[0][2], refs[1][2][1]
                words += [kind, batch, channels, terms, *x, *xs[:4], *w, *ws[:3], *out]
            elif kind == _KEYSWITCH:
                accumulate, jobs = extra
                (x, xs), (c0, cs), (out, os) = ops
                rows = _row_offsets(refs[2][2][2:-1], tuple(8 * s for s in os[2:-1]))
                words += [kind, len(jobs), accumulate, *x, *xs[:3], *c0, *cs[:2], _MAPS, 0,
                          *out, *os[:2]]
                words += [word for m, e, slot, r in jobs for word in (m, e, slot, rows[r])]
            else:
                (src, ss), (dst, ds) = ops
                words += [kind, extra, *src, *ss[:2], *dst, *ds[:2]]
        self.table = np.array(words, dtype=np.int64)
        self.table.flags.writeable = False
        self.records, self.weights = tuple(self._records), self.weights.view(np.ndarray)
        del self._engine, self._records, self._areas, self._bases, self.input, self.output
        return self
