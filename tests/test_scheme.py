"""Integration tests for the full BFV scheme: the three HE operators."""

import numpy as np
import pytest

from repro.bfv import invariant_noise_budget
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv.decompose import digit_count


@pytest.fixture(scope="module")
def values(small_scheme):
    rng = np.random.default_rng(99)
    return rng.integers(0, 100, small_scheme.params.row_size)


class TestEncryptDecrypt:
    def test_roundtrip(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(values, public)
        decoded = small_scheme.decrypt_values(ct, secret, signed=False)
        assert np.array_equal(decoded[: len(values)], values)

    def test_fresh_budget_positive(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(values, public)
        assert invariant_noise_budget(small_scheme, ct, secret) > 5

    def test_signed_values(self, small_scheme, small_keys):
        secret, public = small_keys
        vals = np.array([-5, -1, 0, 1, 5])
        ct = small_scheme.encrypt_values(vals, public)
        assert np.array_equal(small_scheme.decrypt_values(ct, secret)[:5], vals)

    def test_fresh_ciphertexts_differ(self, small_scheme, small_keys, values):
        """Encryption must be randomized (IND-CPA sanity)."""
        _, public = small_keys
        ct1 = small_scheme.encrypt_values(values, public)
        ct2 = small_scheme.encrypt_values(values, public)
        assert not np.array_equal(ct1.c0.data, ct2.c0.data)


class TestAddition:
    def test_add(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(values, public)
        result = small_scheme.decrypt_values(
            small_scheme.add(ct, ct), secret, signed=False
        )
        t = small_scheme.params.plain_modulus
        assert np.array_equal(result[: len(values)], (2 * values) % t)

    def test_sub(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct1 = small_scheme.encrypt_values(values, public)
        ct2 = small_scheme.encrypt_values(values // 2, public)
        result = small_scheme.decrypt_values(
            small_scheme.sub(ct1, ct2), secret, signed=False
        )
        assert np.array_equal(result[: len(values)], values - values // 2)

    def test_add_plain(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(values, public)
        pt = small_scheme.encoder.encode(np.full(len(values), 3))
        result = small_scheme.decrypt_values(
            small_scheme.add_plain(ct, pt), secret, signed=False
        )
        assert np.array_equal(result[: len(values)], values + 3)

    def test_add_noise_is_additive(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(values, public)
        fresh = invariant_noise_budget(small_scheme, ct, secret)
        summed = small_scheme.add(ct, ct)
        after = invariant_noise_budget(small_scheme, summed, secret)
        assert fresh - 2.0 <= after <= fresh  # at most ~1 bit for doubling


class TestPlainMultiplication:
    def test_mul_plain(self, small_scheme, small_keys, values):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(values, public)
        weights = np.full(small_scheme.params.n, 7)
        plain = small_scheme.encode_for_mul(small_scheme.encoder.encode(weights))
        result = small_scheme.decrypt_values(
            small_scheme.mul_plain(ct, plain), secret, signed=False
        )
        t = small_scheme.params.plain_modulus
        assert np.array_equal(result[: len(values)], (7 * values) % t)

    def test_mul_plain_elementwise(self, small_scheme, small_keys):
        secret, public = small_keys
        n = small_scheme.params.n
        t = small_scheme.params.plain_modulus
        rng = np.random.default_rng(5)
        x = rng.integers(0, 50, n)
        w = rng.integers(0, 50, n)
        ct = small_scheme.encrypt_values(x, public)
        plain = small_scheme.encode_for_mul(small_scheme.encoder.encode(w))
        result = small_scheme.decrypt_values(
            small_scheme.mul_plain(ct, plain), secret, signed=False
        )
        assert np.array_equal(result, (x * w) % t)

    def test_windowed_mul_matches_plain(self, small_scheme, small_keys):
        secret, public = small_keys
        params = small_scheme.params
        rng = np.random.default_rng(6)
        x = rng.integers(0, 100, 40)
        w = rng.integers(0, params.plain_modulus, params.n, dtype=np.int64)
        windows = small_scheme.encrypt_windowed(x, public, params.l_pt)
        pt_w = small_scheme.encoder.encode(w)
        result = small_scheme.decrypt_values(
            small_scheme.mul_plain_windowed(windows, pt_w), secret, signed=False
        )
        expected = (x * w[:40]) % params.plain_modulus
        assert np.array_equal(result[:40], expected)

    def test_windowed_mul_saves_noise(self, small_scheme, small_keys):
        """Large-coefficient weights: windowing must beat direct mult."""
        secret, public = small_keys
        params = small_scheme.params
        rng = np.random.default_rng(7)
        x = rng.integers(0, 100, 20)
        w = rng.integers(0, params.plain_modulus, params.n, dtype=np.int64)
        pt_w = small_scheme.encoder.encode(w)
        windows = small_scheme.encrypt_windowed(x, public, params.l_pt)
        windowed = small_scheme.mul_plain_windowed(windows, pt_w)
        direct = small_scheme.mul_plain(
            small_scheme.encrypt_values(x, public), small_scheme.encode_for_mul(pt_w)
        )
        budget_windowed = invariant_noise_budget(small_scheme, windowed, secret)
        budget_direct = invariant_noise_budget(small_scheme, direct, secret)
        assert budget_windowed > budget_direct

    def test_windowed_mul_validates_count(self, small_scheme, small_keys):
        _, public = small_keys
        windows = small_scheme.encrypt_windowed(np.arange(4), public, 1)
        pt = small_scheme.encoder.encode(np.arange(4))
        if small_scheme.params.l_pt != 1:
            with pytest.raises(ValueError):
                small_scheme.mul_plain_windowed(windows, pt)


class TestRotation:
    @pytest.mark.parametrize("step", [1, 2, 5, 16])
    def test_rotate_rows(self, small_scheme, small_keys, small_galois, step):
        secret, public = small_keys
        row = small_scheme.params.row_size
        vals = np.arange(row)
        ct = small_scheme.encrypt(small_scheme.encoder.encode_row(vals), public)
        rotated = small_scheme.rotate_rows(ct, step, small_galois)
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(rotated, secret), signed=False
        )
        assert np.array_equal(decoded, np.roll(vals, -step))

    def test_rotation_composes(self, small_scheme, small_keys, small_galois):
        secret, public = small_keys
        row = small_scheme.params.row_size
        vals = np.arange(row)
        ct = small_scheme.encrypt(small_scheme.encoder.encode_row(vals), public)
        once = small_scheme.rotate_rows(ct, 3, small_galois)
        twice = small_scheme.rotate_rows(once, 5, small_galois)
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(twice, secret), signed=False
        )
        assert np.array_equal(decoded, np.roll(vals, -8))

    def test_rotate_columns_swaps_rows(self, small_scheme, small_keys):
        secret, public = small_keys
        column_key = small_scheme.generate_column_key(secret)
        row = small_scheme.params.row_size
        slots = np.concatenate([np.arange(row), np.arange(row) + 1000])
        ct = small_scheme.encrypt(small_scheme.encoder.encode(slots), public)
        swapped = small_scheme.rotate_columns(ct, column_key)
        decoded = small_scheme.decrypt_values(swapped, secret, signed=False)
        assert np.array_equal(decoded, np.concatenate([slots[row:], slots[:row]]))

    def test_rotation_noise_is_additive(self, small_scheme, small_keys, small_galois):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(40), public)
        fresh = invariant_noise_budget(small_scheme, ct, secret)
        rotated = small_scheme.rotate_rows(ct, 1, small_galois)
        after = invariant_noise_budget(small_scheme, rotated, secret)
        assert after > 0
        assert after >= fresh - 12  # small additive hit, not multiplicative

    @pytest.mark.parametrize("multiple", [0, 1, 2])
    def test_zero_step_rotation_is_free_copy(
        self, small_scheme, small_keys, small_galois, multiple
    ):
        """Steps that are multiples of the row size short-circuit: no key
        switch (even without a key for Galois element 1), no HE_Rotate."""
        secret, public = small_keys
        row = small_scheme.params.row_size
        vals = np.arange(row)
        ct = small_scheme.encrypt(small_scheme.encoder.encode_row(vals), public)
        assert 1 not in small_scheme.generate_galois_keys(secret, []).keys
        before = GLOBAL_COUNTERS.snapshot()
        rotated = small_scheme.rotate_rows(ct, multiple * row, small_galois)
        delta = GLOBAL_COUNTERS.diff(before)
        assert delta.he_rotate == 0
        assert delta.ntt == 0
        assert rotated is not ct  # an independent copy, not an alias
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(rotated, secret), signed=False
        )
        assert np.array_equal(decoded, vals)

    def test_zero_step_rotation_needs_no_keys(self, small_scheme, small_keys):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        from repro.bfv.keys import GaloisKeys

        rotated = small_scheme.rotate_rows(ct, 0, GaloisKeys())
        assert np.array_equal(rotated.c0.data, ct.c0.data)

    def test_missing_galois_key_raises(self, small_scheme, small_keys, small_galois):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        with pytest.raises(KeyError):
            small_scheme.rotate_rows(ct, 29, small_galois)

    def test_rotate_counts_match_paper_census(
        self, small_scheme, small_keys, small_galois
    ):
        """One HE_Rotate = 2*l_ct poly products + (l_ct + 1) NTTs per limb."""
        _, public = small_keys
        params = small_scheme.params
        ct = small_scheme.encrypt_values(np.arange(10), public)
        before = GLOBAL_COUNTERS.snapshot()
        small_scheme.rotate_rows(ct, 1, small_galois)
        delta = GLOBAL_COUNTERS.diff(before)
        limbs = params.coeff_basis.count
        assert delta.he_rotate == 1
        assert delta.ntt == (params.l_ct + 1) * limbs


class TestMulPlainAccumulate:
    def test_matches_mul_add_fold(self, small_scheme, small_keys):
        """The fused batched helper equals T mul_plains folded with add."""
        secret, public = small_keys
        rng = np.random.default_rng(5)
        row = small_scheme.params.row_size
        values = [rng.integers(0, 8, row) for _ in range(3)]
        weights = [rng.integers(0, 8, row) for _ in range(3)]
        cts = [
            small_scheme.encrypt(small_scheme.encoder.encode_row(v), public)
            for v in values
        ]
        plains = [
            small_scheme.encode_for_mul(small_scheme.encoder.encode_row(w))
            for w in weights
        ]
        stack = np.stack([p.poly.data for p in plains], axis=1)

        before = GLOBAL_COUNTERS.snapshot()
        fused = small_scheme.mul_plain_accumulate(cts, stack)
        delta = GLOBAL_COUNTERS.diff(before)
        assert delta.he_mult == 3
        assert delta.he_add == 2

        reference = None
        for ct, plain in zip(cts, plains):
            term = small_scheme.mul_plain(ct, plain)
            reference = term if reference is None else small_scheme.add(reference, term)
        fused_out = small_scheme.encoder.decode_row(
            small_scheme.decrypt(fused, secret), signed=False
        )
        ref_out = small_scheme.encoder.decode_row(
            small_scheme.decrypt(reference, secret), signed=False
        )
        assert np.array_equal(fused_out, ref_out)

    def test_shape_mismatch_rejected(self, small_scheme, small_keys):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        stack = np.zeros(
            (small_scheme.params.coeff_basis.count, 2, small_scheme.params.n),
            dtype=np.int64,
        )
        with pytest.raises(ValueError):
            small_scheme.mul_plain_accumulate([ct], stack)


class TestDigitCount:
    def test_l_ct_consistency(self, small_params):
        assert digit_count(
            small_params.coeff_modulus, small_params.a_dcmp_bits
        ) in (
            small_params.l_ct,
            small_params.l_ct + 1,
        )
