"""The word-sized key-switch datapath against the routes it replaced.

Every fused or big-integer-free entry point of :class:`RnsNttEngine` must
return, bit for bit, what the plain numpy / object-integer reference
returns -- on the numpy path and, when a compiler is present, on the
compiled one -- and leave the modmul accounting where the reference left
it.  Also pins the loader's visible fallback and the short-key error.
"""

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
from repro.bfv.polynomial import galois_automorphism_coeffs
from repro.bfv.rns import RnsBasis, compose_words, garner_tables, scale_round_words

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
        digits, body, a = (random_stack(engine.moduli, (7, N), s) for s in (1, 2, 3))
        perm = np.random.default_rng(4).permutation(N)
        acc0, acc1 = engine.keyswitch_accumulate(digits, body, a, count_ops=False)
        assert np.array_equal(acc0, engine.pointwise_accumulate(digits, body, count_ops=False))
        assert np.array_equal(acc1, engine.pointwise_accumulate(digits, a, count_ops=False))
        acc0, acc1 = engine.keyswitch_accumulate(digits, body, a, perm, count_ops=False)
        gathered = digits[:, :, perm]
        assert np.array_equal(acc0, engine.pointwise_accumulate(gathered, body, count_ops=False))
        assert np.array_equal(acc1, engine.pointwise_accumulate(gathered, a, count_ops=False))

    def test_keyswitch_strided_client_slice(self, engine):
        """One client's digits out of a (k, B, l_ct, n) group stack."""
        group = random_stack(engine.moduli, (3, 5, N), 6)
        body, a = (random_stack(engine.moduli, (8, N), s)[:, :5] for s in (7, 8))
        acc0, acc1 = engine.keyswitch_accumulate(group[:, 1], body, a, count_ops=False)
        assert np.array_equal(
            acc0, engine.pointwise_accumulate(group[:, 1], body, count_ops=False)
        )
        assert np.array_equal(
            acc1, engine.pointwise_accumulate(group[:, 1], a, count_ops=False)
        )

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
        # the whole layer call: (k, B, T, n) x (k, O, T, n)
        acc0, acc1 = engine.weight_accumulate(c0, c1, weights, count_ops=False)
        assert acc0.shape == (3, 4, 3, N)
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
        for acc in eng.keyswitch_accumulate(top, top, top, count_ops=False):
            assert np.array_equal(acc, expected)
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

        assert modmuls(lambda: engine.keyswitch_accumulate(digits, body, a)) == modmuls(
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
        with pytest.raises(ValueError, match="shapes differ"):
            engine.keyswitch_accumulate(stack, stack[:, :4], stack[:, :4])
        with pytest.raises(ValueError, match="shapes differ"):
            engine.weight_accumulate(stack, stack, stack[:, :4])
        with pytest.raises(ValueError, match="eval_map"):
            engine.keyswitch_accumulate(stack, stack, stack, np.arange(1, N + 1))


@pytest.mark.skipif(not native.native_available(), reason="no compiled kernel")
def test_native_and_numpy_paths_agree():
    moduli = generate_ntt_primes(27, N, 4)
    fast, slow = engine_for(moduli, None), engine_for(moduli, False)
    assert fast.uses_native_kernel and not slow.uses_native_kernel
    x, a, b = (random_stack(moduli, (2, 11, N), s) for s in (50, 51, 52))
    perm = np.random.default_rng(53).permutation(N)
    for got, ref in zip(
        fast.keyswitch_accumulate(x[:, 0], a[:, 0], b[:, 0], perm),
        slow.keyswitch_accumulate(x[:, 0], a[:, 0], b[:, 0], perm),
    ):
        assert np.array_equal(got, ref)
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
        short = KeySwitchKey(pairs=full.pairs[:-1], base_bits=full.base_bits)
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


class TestVisibleFallback:
    def test_status_names_the_path(self):
        status = native.kernel_status()
        if native.native_available():
            assert status == {
                "ntt_path": "native",
                "ntt_isa": status["ntt_isa"],
                "ntt_fallback_reason": None,
                "fallbacks": 0,
            }
            assert status["ntt_isa"] in native.NTT_ISA_NAMES
        else:
            assert status["ntt_path"] == "numpy" and status["ntt_fallback_reason"]
            assert status["ntt_isa"] is None

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
            "run on the numpy path, several times slower"
        ) == 1
        assert native.kernel_status() == {
            "ntt_path": "numpy",
            "ntt_isa": None,
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
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["fallbacks"] == {"native_to_numpy": native.kernel_status()["fallbacks"]}
        assert 'repro_fallback_total{kind="native_to_numpy"}' in prometheus_text(snapshot)


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
