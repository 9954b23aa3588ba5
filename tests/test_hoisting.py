"""Tests for hoisted rotations (Gazelle's shared-decomposition trick)."""

import numpy as np
import pytest

from repro.bfv import invariant_noise_budget
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv.decompose import digit_decompose
from repro.bfv.polynomial import eval_domain_galois_map, galois_automorphism_coeffs


@pytest.fixture()
def row_ct(small_scheme, small_keys):
    _, public = small_keys
    values = np.arange(small_scheme.params.row_size)
    return values, small_scheme.encrypt(
        small_scheme.encoder.encode_row(values), public
    )


class TestHoistedCorrectness:
    @pytest.mark.parametrize("step", [1, 3, 7, 16])
    def test_matches_plain_rotation(
        self, small_scheme, small_keys, small_galois, row_ct, step
    ):
        secret, _ = small_keys
        values, ct = row_ct
        hoisted = small_scheme.hoist(ct)
        rotated = small_scheme.rotate_rows_hoisted(hoisted, step, small_galois)
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(rotated, secret), signed=False
        )
        assert np.array_equal(decoded, np.roll(values, -step))

    def test_same_result_as_unhoisted(
        self, small_scheme, small_keys, small_galois, row_ct
    ):
        secret, _ = small_keys
        values, ct = row_ct
        hoisted = small_scheme.hoist(ct)
        a = small_scheme.rotate_rows_hoisted(hoisted, 5, small_galois)
        b = small_scheme.rotate_rows(ct, 5, small_galois)
        da = small_scheme.encoder.decode_row(small_scheme.decrypt(a, secret))
        db = small_scheme.encoder.decode_row(small_scheme.decrypt(b, secret))
        assert np.array_equal(da, db)

    def test_noise_comparable_to_plain_path(
        self, small_scheme, small_keys, small_galois, row_ct
    ):
        secret, _ = small_keys
        _, ct = row_ct
        hoisted = small_scheme.hoist(ct)
        rotated = small_scheme.rotate_rows_hoisted(hoisted, 2, small_galois)
        plain = small_scheme.rotate_rows(ct, 2, small_galois)
        hoisted_budget = invariant_noise_budget(small_scheme, rotated, secret)
        plain_budget = invariant_noise_budget(small_scheme, plain, secret)
        assert abs(hoisted_budget - plain_budget) < 3.0

    def test_hoisted_output_composes_with_add(
        self, small_scheme, small_keys, small_galois, row_ct
    ):
        secret, _ = small_keys
        values, ct = row_ct
        hoisted = small_scheme.hoist(ct)
        r1 = small_scheme.rotate_rows_hoisted(hoisted, 1, small_galois)
        r2 = small_scheme.rotate_rows_hoisted(hoisted, 2, small_galois)
        total = small_scheme.add(r1, r2)
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(total, secret), signed=False
        )
        t = small_scheme.params.plain_modulus
        expected = (np.roll(values, -1) + np.roll(values, -2)) % t
        assert np.array_equal(decoded, expected)


class TestHoistedSavings:
    def test_no_ntts_after_hoisting(
        self, small_scheme, small_keys, small_galois, row_ct
    ):
        """Hoisting removes all NTTs from the per-rotation path."""
        _, ct = row_ct
        hoisted = small_scheme.hoist(ct)
        before = GLOBAL_COUNTERS.snapshot()
        for step in (1, 2, 3, 4):
            small_scheme.rotate_rows_hoisted(hoisted, step, small_galois)
        delta = GLOBAL_COUNTERS.diff(before)
        assert delta.ntt == 0
        assert delta.he_rotate == 4

    def test_hoist_pays_the_ntts_once(self, small_scheme, small_keys, row_ct):
        _, ct = row_ct
        params = small_scheme.params
        limbs = params.coeff_basis.count
        before = GLOBAL_COUNTERS.snapshot()
        small_scheme.hoist(ct)
        delta = GLOBAL_COUNTERS.diff(before)
        # One INTT (inside bigint_coeffs) + l_ct digit NTTs, per limb.
        assert delta.ntt == (params.l_ct + 1) * limbs


class TestResiduesEqualTheObjectRoute:
    """The word-sized decomposition is a faster route to the *same* numbers:
    ciphertext residues, not just decrypted slots, must equal what CRT
    compose on Python integers, shift-and-mask digits and per-product
    ``%`` produce."""

    @staticmethod
    def _reference_digit_evals(scheme, ct, galois_elt=1):
        params, engine = scheme.params, scheme.engine
        basis = params.coeff_basis
        coeffs = basis.compose(engine.inverse(ct.c1.data, count_ops=False))
        if galois_elt != 1:
            coeffs = galois_automorphism_coeffs(coeffs, galois_elt, basis.modulus)
        digits = digit_decompose(coeffs, params.a_dcmp_bits, params.l_ct)
        return engine.forward(basis.decompose_stack(digits), count_ops=False)

    @staticmethod
    def _reference_switch(scheme, c0, digit_evals, ksk, eval_map):
        engine, primes = scheme.engine, scheme.params.coeff_basis.primes_column
        pairs = ksk.pairs[: digit_evals.shape[1]]
        body = np.stack([b.data for b, _ in pairs], axis=1)
        a = np.stack([a.data for _, a in pairs], axis=1)
        acc0 = engine.pointwise_accumulate(digit_evals, body, count_ops=False)
        acc1 = engine.pointwise_accumulate(digit_evals, a, count_ops=False)
        return (c0.data[:, eval_map] + acc0) % primes, acc1

    def test_hoist_digits(self, small_scheme, row_ct):
        _, ct = row_ct
        hoisted = small_scheme.hoist(ct)
        assert np.array_equal(
            hoisted.digits, self._reference_digit_evals(small_scheme, ct)
        )
        assert np.array_equal(hoisted.c0.data, ct.c0.data)

    @pytest.mark.parametrize("step", [1, 5, 16])
    def test_hoisted_rotation(self, small_scheme, small_galois, row_ct, step):
        _, ct = row_ct
        elt = small_scheme.galois_elt_for_step(step)
        eval_map = eval_domain_galois_map(small_scheme.params.n, elt)
        digits = self._reference_digit_evals(small_scheme, ct)[:, :, eval_map]
        c0, c1 = self._reference_switch(
            small_scheme, ct.c0, digits, small_galois.key_for(elt), eval_map
        )
        got = small_scheme.rotate_rows_hoisted(small_scheme.hoist(ct), step, small_galois)
        assert np.array_equal(got.c0.data, c0) and np.array_equal(got.c1.data, c1)

    @pytest.mark.parametrize("step", [1, 5, 16])
    def test_apply_galois(self, small_scheme, small_galois, row_ct, step):
        """Un-hoisted: the automorphism runs on coefficients, before the split."""
        _, ct = row_ct
        elt = small_scheme.galois_elt_for_step(step)
        eval_map = eval_domain_galois_map(small_scheme.params.n, elt)
        digits = self._reference_digit_evals(small_scheme, ct, elt)
        c0, c1 = self._reference_switch(
            small_scheme, ct.c0, digits, small_galois.key_for(elt), eval_map
        )
        got = small_scheme.apply_galois(ct, elt, small_galois)
        assert np.array_equal(got.c0.data, c0) and np.array_equal(got.c1.data, c1)

    def test_group_rotation_equals_per_ciphertext(self, small_scheme, small_galois, row_ct):
        """Every (member, step) column of one group call, including the
        identity step, equals its own single rotation."""
        _, ct = row_ct
        other = small_scheme.add(ct, ct)
        group = small_scheme.hoist_group([ct, other])
        steps = [3, 0, 1]
        before = GLOBAL_COUNTERS.snapshot()
        rotated = small_scheme.rotate_rows_group(group, steps, [small_galois] * 2)
        assert GLOBAL_COUNTERS.diff(before).he_rotate == 2 * 2
        assert rotated.shape == (2, ct.c0.data.shape[0], 2, 3, small_scheme.params.n)
        for b, source in enumerate((ct, other)):
            for s, step in enumerate(steps):
                single = small_scheme.rotate_rows_hoisted(
                    small_scheme.hoist(source), step, small_galois
                )
                assert np.array_equal(rotated[0, :, b, s], single.c0.data)
                assert np.array_equal(rotated[1, :, b, s], single.c1.data)
            assert np.array_equal(rotated[0, :, b, 1], source.c0.data)
            assert np.array_equal(rotated[1, :, b, 1], source.c1.data)
