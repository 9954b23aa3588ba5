"""The word-sized key-switch datapath against the routes it replaced.

Every fused or big-integer-free entry point of :class:`RnsNttEngine` must
return, bit for bit, what the plain numpy / object-integer reference
returns -- on the compiled path when a compiler is present; the fallback
runs those references, so there the check is that it wires them up
right -- and leave the modmul accounting where the reference left
it.  Also pins the loader's visible fallback and the short-key error.
"""

import copy
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import native
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv.decompose import digit_decompose, split_words
from repro.bfv.keys import GaloisKeys, KeySwitchKey
from repro.bfv.modmath import generate_ntt_primes
from repro.bfv.ntt_batch import RnsNttEngine
from repro.bfv.polynomial import eval_domain_galois_map, galois_automorphism_coeffs
from repro.bfv.rns import RnsBasis, compose_words, garner_tables, scale_round_words
from repro.scheduling import ConvPlan

N = 16

PATHS = [False] + ([None] if native.native_available() else [])
PATH_IDS = ["numpy"] + (["native"] if native.native_available() else [])

_ENGINES: dict = {}


def engine_for(moduli, use_native) -> RnsNttEngine:
    key = (tuple(moduli), use_native)
    if key not in _ENGINES:
        _ENGINES[key] = RnsNttEngine(N, moduli, use_native=use_native)
    return _ENGINES[key]


@st.composite
def bases(draw):
    """1-6 distinct NTT-friendly limbs of 20-30 bits, in drawn order."""
    sizes = draw(st.lists(st.integers(20, 30), min_size=1, max_size=6))
    pools = {bits: list(generate_ntt_primes(bits, N, sizes.count(bits))) for bits in set(sizes)}
    return [pools[bits].pop() for bits in sizes]


def residue_stack(data, moduli, tail):
    """Residues drawn per limb, with the edge values 0 and p - 1 mixed in."""
    rows = []
    for p in moduli:
        flat = data.draw(
            st.lists(
                st.one_of(st.sampled_from([0, 1, p - 1]), st.integers(0, p - 1)),
                min_size=int(np.prod(tail)), max_size=int(np.prod(tail)),
            )
        )
        rows.append(np.array(flat, dtype=np.int64).reshape(tail))
    return np.stack(rows)


def random_stack(moduli, tail, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, p, tail, dtype=np.int64) for p in moduli])


def key_stack(moduli, terms, seed):
    """A C-contiguous uint32 ``(2, k, terms, N)`` key-switch key stack."""
    stack = random_stack(moduli, (2, terms, N), seed).transpose(1, 0, 2, 3)
    return stack.astype(np.uint32, order="C")


def reference_rotation(engine, digits, c0, eval_map, key):
    """One hoisted rotation from numpy primitives, in natural slot order:
    un-permute the key (stored in the digits' order), permute the digits,
    two plain MACs, add the permuted c0."""
    x = digits[:, :, eval_map]
    body, a = key[..., eval_map].astype(np.int64)[:, :, : digits.shape[1]]
    acc0 = engine.pointwise_accumulate(x, body, count_ops=False)
    acc1 = engine.pointwise_accumulate(x, a, count_ops=False)
    primes = np.array(engine.moduli, dtype=np.int64)[:, None]
    return (c0[:, eval_map] + acc0) % primes, acc1


def rotation_out(engine, members, columns):
    return np.empty((2, len(engine.moduli), members, columns, N), dtype=np.int64)


def grid_jobs(keys):
    """Sched-IA's members x columns grid as a job table: member ``b`` under
    map ``s`` with ``keys[b][s]`` into row ``(b, s)``."""
    columns = len(keys[0])
    return [
        (b, s, key, b * columns + s) for b, row in enumerate(keys) for s, key in enumerate(row)
    ]


def reference_digits(basis, coeff, base_bits, num_digits, galois_elt=1):
    """compose -> automorphism -> digit_decompose -> per-limb %, all on objects."""
    composed = basis.compose(coeff)
    if galois_elt != 1:
        composed = galois_automorphism_coeffs(composed, galois_elt, basis.modulus)
    return basis.decompose_stack(digit_decompose(composed, base_bits, num_digits))


# -- limb compose and digit split -------------------------------------------------


class TestDecomposition:
    @pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
    @settings(max_examples=40, deadline=None)
    @given(moduli=bases(), base_bits=st.integers(4, 30), data=st.data())
    def test_digit_residues_equal_the_object_route(
        self, use_native, moduli, base_bits, data
    ):
        basis = RnsBasis(moduli)
        engine = engine_for(moduli, use_native)
        num_digits = -(-basis.bits // base_bits)
        galois_elt = data.draw(st.sampled_from([1, 3, 9, 2 * N - 1]))
        coeff = residue_stack(data, moduli, (N,))
        got = engine.digit_residues(coeff, base_bits, num_digits, galois_elt)
        ref = reference_digits(basis, coeff, base_bits, num_digits, galois_elt)
        assert got.dtype == np.int64 and np.array_equal(got, ref)

    @pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
    def test_wide_digits_are_reduced_per_limb(self, use_native):
        """2^Adcmp > p_i: a digit is *not* its own residue; no broadcast."""
        moduli = list(generate_ntt_primes(20, N, 2)) + list(generate_ntt_primes(30, N, 1))
        basis = RnsBasis(moduli)
        engine = engine_for(moduli, use_native)
        coeff = np.stack([np.full(N, p - 1, dtype=np.int64) for p in moduli])
        got = engine.digit_residues(coeff, 30, 3)
        ref = reference_digits(basis, coeff, 30, 3)
        assert np.array_equal(got, ref)
        assert not np.array_equal(got[0], got[2])  # limbs really differ

    @pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
    def test_batched_stack_matches_per_polynomial(self, use_native):
        moduli = generate_ntt_primes(25, N, 4)
        engine = engine_for(moduli, use_native)
        coeff = random_stack(moduli, (3, N), seed=5)
        got = engine.digit_residues(coeff, 16, 7, galois_elt=3)
        assert got.shape == (4, 3, 7, N)
        for b in range(3):
            single = engine.digit_residues(coeff[:, b], 16, 7, galois_elt=3)
            assert np.array_equal(got[:, b], single)

    def test_too_few_digits_is_an_error(self):
        moduli = generate_ntt_primes(25, N, 2)
        engine = engine_for(moduli, False)
        with pytest.raises(ValueError, match="representable digit range"):
            engine.digit_residues(random_stack(moduli, (N,), 0), 16, 3)

    @settings(max_examples=40, deadline=None)
    @given(moduli=bases(), base_bits=st.integers(1, 62), data=st.data())
    def test_word_helpers_equal_compose_and_digit_decompose(self, moduli, base_bits, data):
        basis = RnsBasis(moduli)
        coeff = residue_stack(data, moduli, (N,))
        words = compose_words(coeff, garner_tables(tuple(moduli)))
        composed = basis.compose(coeff)
        rebuilt = sum(words[w].astype(object) << (32 * w) for w in range(len(words)))
        assert np.array_equal(rebuilt, composed)
        num_digits = -(-basis.bits // base_bits)
        digits = split_words(words, base_bits, num_digits)
        ref = digit_decompose(composed, base_bits, num_digits)
        assert np.array_equal(digits.astype(object), np.stack(ref))


# -- fused multiply-accumulates ---------------------------------------------------


@pytest.fixture(scope="module", params=PATHS, ids=PATH_IDS)
def engine(request):
    return engine_for(generate_ntt_primes(28, N, 3), request.param)


class TestFusedMac:
    def test_keyswitch_plain_and_gathered(self, engine):
        """Hoisted digits go in as they are; digits taken after the
        automorphism (``apply_galois``) are scattered into the key's order
        first, and both give the reference rotation of the hoisted digits."""
        digits = random_stack(engine.moduli, (1, 7, N), 1)
        c0 = random_stack(engine.moduli, (1, N), 2)
        key = key_stack(engine.moduli, 7, 3)
        perm = np.random.default_rng(4).permutation(N)
        ref0, ref1 = reference_rotation(engine, digits[:, 0], c0[:, 0], perm, key)
        scattered = np.empty_like(digits)
        scattered[..., perm] = digits[..., perm]
        for x in (digits, scattered):
            out = rotation_out(engine, 1, 1)
            engine.keyswitch_rotate(x, c0, [perm], grid_jobs([[key]]), out, count_ops=False)
            assert np.array_equal(out[0, :, 0, 0], ref0)
            assert np.array_equal(out[1, :, 0, 0], ref1)

    def test_keyswitch_strided_client_slice(self, engine):
        """B = 2 members out of a wider digit group (strided members and
        terms), S = 3 columns, keys carrying more pairs than the call uses."""
        digits = random_stack(engine.moduli, (4, 6, N), 6)[:, ::2, :5]
        c0 = random_stack(engine.moduli, (2, N), 7)
        maps = [np.random.default_rng(8 + s).permutation(N) for s in range(3)]
        keys = [[key_stack(engine.moduli, 8, 10 * b + s) for s in range(3)] for b in range(2)]
        out = rotation_out(engine, 2, 3)
        engine.keyswitch_rotate(digits, c0, maps, grid_jobs(keys), out, count_ops=False)
        for b in range(2):
            for s in range(3):
                ref0, ref1 = reference_rotation(
                    engine, digits[:, b], c0[:, b], maps[s], keys[b][s]
                )
                assert np.array_equal(out[0, :, b, s], ref0)
                assert np.array_equal(out[1, :, b, s], ref1)

    def test_job_table_beyond_the_grid(self, engine):
        """Sched-PA's table: each member under its own map (one map shared
        by two jobs, a member read by two jobs), rows written out of member
        order, every row equal to the reference rotation."""
        digits = random_stack(engine.moduli, (3, 7, N), 80)
        c0 = random_stack(engine.moduli, (3, N), 81)
        maps = [np.random.default_rng(82 + m).permutation(N) for m in range(2)]
        keys = [key_stack(engine.moduli, 7, 85 + j) for j in range(4)]
        jobs = [(2, 0, keys[0], 1), (0, 1, keys[1], 3), (1, 0, keys[2], 0), (2, 1, keys[3], 2)]
        out = rotation_out(engine, 4, 1)
        engine.keyswitch_rotate(digits, c0, maps, jobs, out, count_ops=False)
        for b, m, key, row in jobs:
            ref0, ref1 = reference_rotation(engine, digits[:, b], c0[:, b], maps[m], key)
            assert np.array_equal(out[0, :, row, 0], ref0)
            assert np.array_equal(out[1, :, row, 0], ref1)

    @pytest.mark.parametrize("columns", [1, 3])
    def test_guard_padded_output_rows(self, engine, columns):
        """The job table writes exactly its rows: canaries on both sides of
        every output row, a limb stride unlike n, rows no job names (column
        0 here) untouched, and every written row equal to a single-job
        call."""
        k, pad, canary = len(engine.moduli), 5, -0x5A5A5A5A
        digits = random_stack(engine.moduli, (4, 6, N), 60)[:, ::2, :5]
        c0 = random_stack(engine.moduli, (2, N), 61)
        maps = [np.random.default_rng(62 + s).permutation(N) for s in range(columns)]
        keys = [
            [key_stack(engine.moduli, 5, 70 + 10 * b + s) for s in range(columns)]
            for b in range(2)
        ]
        jobs = [job for job in grid_jobs(keys) if job[1]]
        guarded = np.full((2, k, 2, columns, N + 2 * pad), canary, dtype=np.int64)
        out = guarded[..., pad : pad + N]
        engine.keyswitch_rotate(digits, c0, maps, jobs, out, count_ops=False)
        assert (guarded[..., :pad] == canary).all()
        assert (guarded[..., pad + N :] == canary).all()
        assert (out[:, :, :, 0] == canary).all()
        for b in range(2):
            for s in range(1, columns):
                single = rotation_out(engine, 1, 1)
                engine.keyswitch_rotate(
                    digits[:, b : b + 1], c0[:, b : b + 1], [maps[s]],
                    grid_jobs([[keys[b][s]]]), single, count_ops=False,
                )
                assert np.array_equal(out[:, :, b, s], single[:, :, 0, 0])

    def test_weight_mac_every_shape(self, engine):
        c0, c1 = (random_stack(engine.moduli, (4, 9, N), s) for s in (10, 11))
        weights = random_stack(engine.moduli, (3, 9, N), 12)
        ref = engine.pointwise_accumulate
        grouped = engine.pointwise_accumulate_grouped
        # plain: (k, T, n) x (k, T, n)
        acc0, acc1 = engine.weight_accumulate(c0[:, 0], c1[:, 0], weights[:, 0], count_ops=False)
        assert np.array_equal(acc0, ref(c0[:, 0], weights[:, 0], count_ops=False))
        assert np.array_equal(acc1, ref(c1[:, 0], weights[:, 0], count_ops=False))
        # grouped: (k, B, T, n) x (k, T, n)
        acc0, acc1 = engine.weight_accumulate(c0, c1, weights[:, 1], count_ops=False)
        assert np.array_equal(acc0, grouped(c0, weights[:, 1], count_ops=False))
        assert np.array_equal(acc1, grouped(c1, weights[:, 1], count_ops=False))
        # all output channels: (k, T, n) x (k, O, T, n)
        acc0, acc1 = engine.weight_accumulate(c0[:, 2], c1[:, 2], weights, count_ops=False)
        assert acc0.shape == (3, 3, N)
        for o in range(3):
            assert np.array_equal(acc0[:, o], ref(c0[:, 2], weights[:, o], count_ops=False))
            assert np.array_equal(acc1[:, o], ref(c1[:, 2], weights[:, o], count_ops=False))
        # the whole layer call: (k, B, T, n) x (k, O, T, n), into a given stack
        out = np.empty((2, 3, 4, 3, N), dtype=np.int64)
        acc0, acc1 = engine.weight_accumulate(c0, c1, weights, count_ops=False, out=out)
        assert acc0.shape == (3, 4, 3, N) and np.shares_memory(acc0, out)
        with pytest.raises(ValueError, match="out must be"):
            engine.weight_accumulate(c0, c1, weights, count_ops=False, out=out[:, :, :2])
        for o in range(3):
            assert np.array_equal(acc0[:, :, o], grouped(c0, weights[:, o], count_ops=False))
            assert np.array_equal(acc1[:, :, o], grouped(c1, weights[:, o], count_ops=False))

    @pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
    @pytest.mark.parametrize("terms", [7, 8, 15, 16, 17, 4096])
    def test_overflow_boundary_is_chunked(self, use_native, terms):
        """30-bit limbs, every residue p - 1: a 64-bit word holds 15 products
        (a signed one 7), so longer sums must reduce in between."""
        moduli = generate_ntt_primes(30, N, 2)
        eng = engine_for(moduli, use_native)
        top = np.stack([np.full((terms, N), p - 1, dtype=np.int64) for p in moduli])
        expected = np.stack(
            [np.full(N, terms * (p - 1) ** 2 % p, dtype=np.int64) for p in moduli]
        )
        ones = np.ones(N, dtype=np.int64)
        out = np.empty((2, 2, 2, 1, N), dtype=np.int64)
        eng.keyswitch_rotate(
            np.stack([top, top], axis=1), top[:, :2], [np.arange(N)],
            grid_jobs([[top[None].repeat(2, 0).astype(np.uint32)]] * 2), out,
            count_ops=False,
        )
        primes = np.array(moduli, dtype=np.int64)[:, None]
        assert np.array_equal(out[0, :, 0, 0], (expected + (primes - 1) * ones) % primes)
        assert np.array_equal(out[1, :, 1, 0], expected)
        for acc in eng.weight_accumulate(top, top, top, count_ops=False):
            assert np.array_equal(acc, expected)

    def test_memmapped_strided_weight_stack(self, engine, tmp_path):
        """An .rpa weight section: read-only memmap, sliced per output channel."""
        k = len(engine.moduli)
        stack = random_stack(engine.moduli, (4, 6, N), 20)
        path = tmp_path / "weights.bin"
        stack.tofile(path)
        mapped = np.memmap(path, dtype=np.int64, mode="r", shape=(k, 4, 6, N))
        c0, c1 = (random_stack(engine.moduli, (6, N), s) for s in (21, 22))
        acc0, acc1 = engine.weight_accumulate(c0, c1, mapped[:, 2], count_ops=False)
        assert np.array_equal(acc0, engine.pointwise_accumulate(c0, stack[:, 2], count_ops=False))
        assert np.array_equal(acc1, engine.pointwise_accumulate(c1, stack[:, 2], count_ops=False))
        # A term slice (Sched-PA's per-tap group) strides the term axis too.
        acc0, _ = engine.weight_accumulate(c0[:, 2:4], c1[:, 2:4], mapped[:, 1, 2:4], count_ops=False)
        assert np.array_equal(
            acc0, engine.pointwise_accumulate(c0[:, 2:4], stack[:, 1, 2:4], count_ops=False)
        )
        acc0, _ = engine.weight_accumulate(c0, c1, mapped[:, 1:3], count_ops=False)
        assert np.array_equal(acc0[:, 1], engine.pointwise_accumulate(c0, stack[:, 2], count_ops=False))

    def test_modmul_accounting_matches_the_reference(self, engine):
        digits, body, a = (random_stack(engine.moduli, (5, N), s) for s in (30, 31, 32))
        c0 = random_stack(engine.moduli, (2, 5, N), 33)
        weights = random_stack(engine.moduli, (3, 5, N), 34)

        def modmuls(fn):
            before = GLOBAL_COUNTERS.snapshot()
            fn()
            return GLOBAL_COUNTERS.diff(before).modmuls

        keys = [[key_stack(engine.moduli, 5, 35 + s) for s in range(3)]] * 2
        maps = [np.arange(N)] * 3
        assert modmuls(
            lambda: engine.keyswitch_rotate(
                np.stack([digits, digits], axis=1), c0[:, :, 0], maps, grid_jobs(keys),
                rotation_out(engine, 2, 3),
            )
        ) == 2 * 3 * modmuls(
            lambda: (engine.pointwise_accumulate(digits, body),
                     engine.pointwise_accumulate(digits, a))
        )
        assert modmuls(lambda: engine.weight_accumulate(c0, c0, weights)) == modmuls(
            lambda: [
                (engine.pointwise_accumulate_grouped(c0, weights[:, o]),
                 engine.pointwise_accumulate_grouped(c0, weights[:, o]))
                for o in range(3)
            ]
        )

    def test_shape_mismatch_is_an_error(self, engine):
        stack = random_stack(engine.moduli, (5, N), 40)
        digits, c0, key = stack[:, None], stack[:, :1], key_stack(engine.moduli, 5, 41)
        identity, out = [np.arange(N)], rotation_out(engine, 1, 1)
        with pytest.raises(ValueError, match="shapes differ"):
            engine.keyswitch_rotate(digits, stack[:, :2], identity, [(0, 0, key, 0)], out)
        with pytest.raises(ValueError, match="shapes differ"):
            engine.keyswitch_rotate(digits, c0, identity, [(0, 0, key, 0)], out[:, :2])
        with pytest.raises(ValueError, match="shapes differ"):
            engine.weight_accumulate(stack, stack, stack[:, :4])
        with pytest.raises(ValueError, match="eval map"):
            engine.keyswitch_rotate(digits, c0, [np.arange(1, N + 1)], [(0, 0, key, 0)], out)
        # The kernel indexes with members, maps and rows unchecked.
        for job, name in (
            ((1, 0, key, 0), "member"), ((-1, 0, key, 0), "member"),
            ((0, 1, key, 0), "map"), ((0, 0, key, 1), "output row"),
        ):
            with pytest.raises(ValueError, match=f"job's {name} index"):
                engine.keyswitch_rotate(digits, c0, identity, [job], out)
        with pytest.raises(ValueError, match="key stacks"):
            engine.keyswitch_rotate(digits, c0, identity, [(0, 0, key[:, :, :4].copy(), 0)], out)
        with pytest.raises(ValueError, match="key stacks"):
            engine.keyswitch_rotate(digits, c0, identity, [(0, 0, key.astype(np.int64), 0)], out)


#: keyswitch_rotate's bodies by the ``isa`` level that selects them (AVX2
#: hosts run the scalar one).
KS_BODIES = {"scalar": 0, "avx512f": 2}


class TestKeyswitchBodies:
    """Every key-switch body the host has against the numpy reference, bit
    for bit: rings from n = 2 (the vector body's tail only) to 8192, the
    served 25-bit and maximal 30-bit moduli, edge residues, term counts
    past the MAC chunk, B = 2 strided digit slices and the real ``3^s``
    and column eval maps."""

    @pytest.fixture(params=sorted(KS_BODIES), ids=sorted(KS_BODIES))
    def isa(self, request):
        if not native.native_available():
            pytest.skip("no compiled kernel")
        if KS_BODIES[request.param] > native.load_kernel().ntt_isa_max():
            pytest.skip(f"this CPU has no {request.param}")
        return KS_BODIES[request.param]

    @staticmethod
    def check(isa, n, bits, terms, fill):
        moduli = generate_ntt_primes(bits, n, 2)
        engine = RnsNttEngine(n, moduli)
        engine._isa = isa
        elts = sorted({pow(3, s, 2 * n) for s in (1, 2, 5)} | {2 * n - 1} - {1})
        maps = [eval_domain_galois_map(n, elt) for elt in elts]
        rng = np.random.default_rng(n + bits + terms)
        primes = np.array(moduli, dtype=np.int64)[:, None, None, None]
        wide = (2, 4, terms + 1, n)
        if fill == "random":
            wide = rng.integers(0, primes, wide)
        else:
            wide = np.broadcast_to(primes - 1 if fill == "p - 1" else 2**16 - 1, wide).copy()
        digits = wide[:, ::2, 1:]  # two members, strided, out of a wider stack
        keys = [
            [rng.integers(0, primes[:, :, 0], (2, 2, terms + 1, n)).astype(np.uint32)
             for _ in maps] for _ in range(2)
        ]
        if fill != "random":
            for row in keys:
                for key in row:
                    key[:] = (primes[:, 0, 0] - 1).astype(np.uint32)[None, :, None, None]
        c0 = rng.integers(0, primes[:, 0], (2, 2, n))
        out = np.empty((2, 2, 2, len(maps), n), dtype=np.int64)
        engine.keyswitch_rotate(digits, c0, maps, grid_jobs(keys), out, count_ops=False)
        for b in range(2):
            for s, eval_map in enumerate(maps):
                ref0, ref1 = reference_rotation(engine, digits[:, b], c0[:, b], eval_map, keys[b][s])
                assert np.array_equal(out[0, :, b, s], ref0), (b, s)
                assert np.array_equal(out[1, :, b, s], ref1), (b, s)

    @pytest.mark.parametrize("fill", ["random", "p - 1", "2^16 - 1"])
    @pytest.mark.parametrize("bits", [25, 30])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 2048, 8192])
    def test_matches_the_reference(self, isa, n, bits, fill):
        self.check(isa, n, bits, 7, fill)

    @pytest.mark.parametrize("terms", [16, 17, 40])
    @pytest.mark.parametrize("n", [2, 8, 64])
    def test_terms_past_the_chunk(self, isa, n, terms):
        """30-bit limbs hold 16 products of p - 1 per word: 17 and 40 terms
        reduce mid-sum, on the vector body and its scalar tail alike."""
        self.check(isa, n, 30, terms, "p - 1")


@pytest.mark.skipif(not native.native_available(), reason="no compiled kernel")
def test_native_and_numpy_paths_agree():
    moduli = generate_ntt_primes(27, N, 4)
    fast, slow = engine_for(moduli, None), engine_for(moduli, False)
    assert fast.uses_native_kernel and not slow.uses_native_kernel
    x, a, b = (random_stack(moduli, (2, 11, N), s) for s in (50, 51, 52))
    maps = [np.random.default_rng(53 + s).permutation(N) for s in range(2)]
    keys = [[key_stack(moduli, 11, 55 + 2 * m + s) for s in range(2)] for m in range(2)]
    outs = []
    for eng in (fast, slow):
        outs.append(np.empty((2, 4, 2, 2, N), dtype=np.int64))
        eng.keyswitch_rotate(x, a[:, :, 0], maps, grid_jobs(keys), outs[-1])
    assert np.array_equal(*outs)
    for got, ref in zip(fast.weight_accumulate(x, a, b), slow.weight_accumulate(x, a, b)):
        assert np.array_equal(got, ref)
    coeff = random_stack(moduli, (3, N), 54)
    assert np.array_equal(
        fast.digit_residues(coeff, 11, 10, 5), slow.digit_residues(coeff, 11, 10, 5)
    )
    assert np.array_equal(
        fast.scale_round(coeff[:, 0], 65537), slow.scale_round(coeff[:, 0], 65537)
    )


# -- decryption scaling -----------------------------------------------------------


class TestScaleRound:
    @pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
    @pytest.mark.parametrize("limbs,bits", [(1, 28), (2, 30), (4, 25), (6, 30)])
    def test_edges_and_ties_match_the_object_formula(self, use_native, limbs, bits):
        moduli = generate_ntt_primes(bits, N, limbs)
        basis = RnsBasis(moduli)
        engine = engine_for(moduli, use_native)
        q = basis.modulus
        for t in (3, 65537, (1 << 20) + 7, (1 << 30) + 3):
            # 0, q - 1, w ~ q, and both sides of every kind of half-way point
            # (q is odd, so (2j + 1) q / 2t is never an integer: the floor and
            # the ceiling straddle the tie).
            values = [0, 1, q - 1, q - 2, q // 2, q // 2 + 1]
            for j in (0, 1, t // 2, t - 1):
                tie = (2 * j + 1) * q // (2 * t)
                values += [tie, min(tie + 1, q - 1)]
            values = (values * N)[:N]
            composed = np.array(values, dtype=object)
            expected = (((composed * t * 2 + q) // (2 * q)) % t).astype(np.int64)
            got = engine.scale_round(basis.decompose(composed), t)
            assert np.array_equal(got, expected)

    @settings(max_examples=30, deadline=None)
    @given(moduli=bases(), data=st.data())
    def test_word_rounding_equals_the_object_formula(self, moduli, data):
        basis = RnsBasis(moduli)
        tables = garner_tables(tuple(moduli))
        t = data.draw(st.sampled_from([2, 257, 786433, (1 << 31) - 1]))
        coeff = residue_stack(data, moduli, (N,))
        q = basis.modulus
        expected = (((basis.compose(coeff) * t * 2 + q) // (2 * q)) % t).astype(np.int64)
        assert np.array_equal(
            scale_round_words(compose_words(coeff, tables), tables, t), expected
        )

    def test_decrypt_equals_rounding_of_raw_decrypt(self, small_scheme, small_keys):
        secret, public = small_keys
        params = small_scheme.params
        ct = small_scheme.encrypt_values(np.arange(params.n) - 7, public)
        w = small_scheme._raw_decrypt(ct, secret)
        t, q = params.plain_modulus, params.coeff_modulus
        expected = (((w * t * 2 + q) // (2 * q)) % t).astype(np.int64)
        assert np.array_equal(small_scheme.decrypt(ct, secret).coeffs, expected)


# -- satellites: the short key and the visible fallback ---------------------------


class TestShortKeySwitchKey:
    """A key with fewer pairs than l_ct used to drop the high digits silently."""

    @pytest.fixture(scope="class")
    def short_keys(self, small_scheme, small_keys, small_galois):
        elt = small_scheme.galois_elt_for_step(1)
        full = small_galois.key_for(elt)
        short = KeySwitchKey.from_pairs(full.pairs[:-1], full.base_bits, elt)
        return elt, GaloisKeys(keys={elt: short})

    def test_every_rotation_path_refuses(self, small_scheme, small_keys, short_keys):
        _, public = small_keys
        elt, keys = short_keys
        l_ct = small_scheme.params.l_ct
        ct = small_scheme.encrypt_values(np.arange(8), public)
        message = rf"Galois element {elt} has {l_ct - 1} digit pairs .* {l_ct} digits"
        with pytest.raises(ValueError, match=message):
            small_scheme.rotate_rows(ct, 1, keys)
        with pytest.raises(ValueError, match=message):
            small_scheme.rotate_rows_hoisted(small_scheme.hoist(ct), 1, keys)
        with pytest.raises(ValueError, match=message):
            small_scheme.rotate_rows_batch([ct, ct], 1, [keys, keys])
        with pytest.raises(ValueError, match=message):
            small_scheme.rotate_rows_group(small_scheme.hoist_group([ct]), [0, 1], [keys])

    def test_one_partials_element_is_refused_before_any_output(
        self, small_scheme, small_keys, small_galois, short_keys
    ):
        """Per-member steps: only member 1's element has a short key, and
        nothing -- not even member 0's rotation or identity copy -- lands
        in ``out``; a Sched-PA conv whose tap 1 needs that key refuses too."""
        _, public = small_keys
        elt, short = short_keys
        mixed = GaloisKeys(keys={**small_galois.keys, elt: short.keys[elt]})
        ct = small_scheme.encrypt_values(np.arange(8), public)
        group = small_scheme.hoist_group([ct, ct, ct])
        out = np.full((2, small_scheme.params.coeff_basis.count, 3, 1, small_scheme.params.n), -7)
        message = rf"Galois element {elt} has"
        with pytest.raises(ValueError, match=message):
            small_scheme.rotate_rows_group(group, [[2], [1], [0]], [mixed] * 3, out=out)
        assert (out == -7).all()
        plan = ConvPlan.compile(small_scheme, np.ones((1, 1, 2, 2), dtype=np.int64))
        assert 1 in plan.rotation_steps
        with pytest.raises(ValueError, match=message):
            plan.execute([ct], mixed)


class TestPerMemberSteps:
    """``rotate_rows_group`` with a ``(B, 1)`` step column: each member by its own step."""

    @pytest.fixture
    def calls(self, small_scheme, monkeypatch):
        seen = []
        original = small_scheme.engine.keyswitch_rotate

        def spy(*args, **kwargs):
            seen.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(small_scheme.engine, "keyswitch_rotate", spy)
        return seen

    def test_identity_only_group_makes_no_kernel_call(self, small_scheme, small_keys, small_galois, calls):
        _, public = small_keys
        cts = [small_scheme.encrypt_values(np.arange(4) + b, public) for b in range(2)]
        group = small_scheme.hoist_group(cts)
        before = GLOBAL_COUNTERS.snapshot()
        out = small_scheme.rotate_rows_group(group, [[0], [small_scheme.params.row_size]], [small_galois] * 2)
        assert calls == []
        assert not any(GLOBAL_COUNTERS.diff(before).he_ops().values())
        for b, ct in enumerate(cts):
            assert np.array_equal(out[0, :, b, 0], ct.c0.data)
            assert np.array_equal(out[1, :, b, 0], ct.c1.data)

    def test_repeated_element_is_one_map(self, small_scheme, small_keys, small_galois, calls):
        """Four members under two elements: one kernel call of four jobs over
        two maps (each checked once), every member equal to its own
        hoisted rotation."""
        _, public = small_keys
        cts = [small_scheme.encrypt_values(np.arange(8) * (b + 1), public) for b in range(4)]
        steps = [[3], [5], [3], [3]]
        out = small_scheme.rotate_rows_group(small_scheme.hoist_group(cts), steps, [small_galois] * 4)
        ((_, _, maps, jobs, _),) = calls
        assert len(maps) == 2 and [job[1] for job in jobs] == [0, 1, 0, 0]
        for b, ct in enumerate(cts):
            single = small_scheme.rotate_rows_hoisted(small_scheme.hoist(ct), steps[b][0], small_galois)
            assert np.array_equal(out[0, :, b, 0], single.c0.data)
            assert np.array_equal(out[1, :, b, 0], single.c1.data)


class TestVisibleFallback:
    def test_status_names_the_path(self):
        status = native.kernel_status()
        if native.native_available():
            assert status == {
                "ntt_path": "native",
                "ntt_isa": status["ntt_isa"],
                "lanes": status["lanes"],
                "ntt_fallback_reason": None,
                "fallbacks": 0,
            }
            assert status["ntt_isa"] in native.NTT_ISA_NAMES
            assert 1 <= status["lanes"] <= os.cpu_count()
        else:
            assert status["ntt_path"] == "numpy" and status["ntt_fallback_reason"]
            assert status["ntt_isa"] is None
            assert status["lanes"] is None

    def test_disabled_by_environment_is_a_reason_not_a_fallback(self, monkeypatch):
        monkeypatch.setenv(native.NATIVE_ENV_VAR, "0")
        kernel, reason = native._load()
        assert kernel is None and reason == f"disabled by {native.NATIVE_ENV_VAR}"

    @pytest.mark.skipif(not native.native_available(), reason="no compiled kernel")
    def test_cached_object_lacking_a_symbol_is_a_failed_load(self, monkeypatch):
        monkeypatch.setitem(native._SIGNATURES, "mac_from_the_future", [])
        kernel, reason = native._load()
        assert kernel is None and "lacks symbol mac_from_the_future" in reason

    def test_failed_load_is_logged_once_and_counted(self, monkeypatch, caplog):
        monkeypatch.setattr(native, "_load", lambda: (None, "kernel build failed (cc)"))
        monkeypatch.setattr(native, "_TRIED", False)
        monkeypatch.setattr(native, "_KERNEL", None)
        monkeypatch.setattr(native, "_REASON", None)
        with caplog.at_level("WARNING", logger="repro.bfv.native"):
            assert native.load_kernel() is None
            assert native.load_kernel() is None
        assert [r.message for r in caplog.records].count(
            "native kernel unavailable (kernel build failed (cc)); HE kernels "
            "run on the reference path, about eight times slower"
        ) == 1
        assert native.kernel_status() == {
            "ntt_path": "numpy",
            "ntt_isa": None,
            "lanes": None,
            "ntt_fallback_reason": "kernel build failed (cc)",
            "fallbacks": 1,
        }
        from repro.serving.metrics import MetricsRegistry, health_payload, prometheus_text

        health = health_payload(None)
        assert health["ntt_path"] == "numpy"
        assert health["ntt_fallback_reason"] == "kernel build failed (cc)"
        text = prometheus_text(MetricsRegistry().snapshot())
        assert 'repro_fallback_total{kind="native_to_numpy"} 1' in text

    def test_health_and_metrics_carry_the_path(self):
        from repro.serving.metrics import MetricsRegistry, health_payload, prometheus_text

        health = health_payload(None)
        assert health["ntt_path"] in ("native", "numpy")
        assert health["ntt_isa"] == native.kernel_status()["ntt_isa"]
        assert health["ntt_lanes"] == native.kernel_status()["lanes"]
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["fallbacks"] == {"native_to_numpy": native.kernel_status()["fallbacks"]}
        assert 'repro_fallback_total{kind="native_to_numpy"}' in prometheus_text(snapshot)


@pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
def test_group_call_equals_separate_hoisted_rotations(
    small_scheme, small_keys, small_galois, use_native
):
    """One rotate_rows_group call (B = 2, S in {1, 3}, the identity step
    among them) is byte-identical to S separate rotate_rows_hoisted calls
    per member, on either engine path."""
    _, public = small_keys
    params = small_scheme.params
    scheme = copy.copy(small_scheme)
    scheme.rng = np.random.default_rng(17)
    scheme.engine = RnsNttEngine(params.n, params.coeff_basis.primes, use_native=use_native)
    assert scheme.engine.uses_native_kernel == (use_native is None)
    cts = [scheme.encrypt_values(np.arange(8) * (b + 1), public) for b in range(2)]
    group = scheme.hoist_group(cts)
    for steps in ([5], [1, 0, 7]):
        out = scheme.rotate_rows_group(group, steps, [small_galois] * 2)
        for b, ct in enumerate(cts):
            hoisted = scheme.hoist(ct)
            for s, step in enumerate(steps):
                single = scheme.rotate_rows_hoisted(hoisted, step, small_galois)
                assert np.array_equal(out[0, :, b, s], single.c0.data)
                assert np.array_equal(out[1, :, b, s], single.c1.data)


def test_hoisted_digit_polys_are_views_of_the_stack(small_scheme, small_keys):
    _, public = small_keys
    hoisted = small_scheme.hoist(small_scheme.encrypt_values(np.arange(4), public))
    polys = hoisted.digit_polys
    assert len(polys) == small_scheme.params.l_ct
    assert all(np.shares_memory(p.data, hoisted.digit_stack()) for p in polys)


def test_scheme_counters_match_the_reference_census(small_scheme, small_keys, small_galois):
    """One hoisted rotation: 2 * l_ct * k * n modmuls, no NTT; one weight MAC
    over T terms: 2 * T * k * n modmuls, T HE_Mult, T - 1 HE_Add."""
    _, public = small_keys
    params = small_scheme.params
    k, n, l_ct = params.coeff_basis.count, params.n, params.l_ct
    ct = small_scheme.encrypt_values(np.arange(8), public)
    hoisted = small_scheme.hoist(ct)
    before = GLOBAL_COUNTERS.snapshot()
    small_scheme.rotate_rows_hoisted(hoisted, 3, small_galois)
    delta = GLOBAL_COUNTERS.diff(before)
    assert (delta.modmuls, delta.ntt, delta.he_rotate) == (2 * l_ct * k * n, 0, 1)
    stack = np.stack([ct.c0.data] * 5, axis=1)
    before = GLOBAL_COUNTERS.snapshot()
    layer = small_scheme.mul_plain_accumulate_grouped(
        stack[:, None], stack[:, None], np.stack([stack] * 3, axis=1)
    )
    delta = GLOBAL_COUNTERS.diff(before)
    assert len(layer) == 1 and len(layer[0]) == 3
    assert (delta.modmuls, delta.he_mult, delta.he_add) == (3 * 2 * 5 * k * n, 15, 12)
