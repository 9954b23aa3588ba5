"""Unit + property tests for the RNS basis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv.modmath import generate_ntt_primes
from repro.bfv.ntt import MAX_NTT_MODULUS_BITS, NttContext
from repro.bfv.rns import RnsBasis, garner_tables


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.for_bit_budget(60, 256)


class TestConstruction:
    def test_bit_budget_met(self, basis):
        assert 58 <= basis.bits <= 62

    def test_limbs_stay_under_int64_safe_width(self, basis):
        for prime in basis.primes:
            assert prime.bit_length() <= 30

    def test_ntt_friendly(self, basis):
        for prime in basis.primes:
            assert prime % 512 == 1  # 2n = 512

    def test_large_budget_partitions(self):
        basis = RnsBasis.for_bit_budget(100, 1024)
        assert 98 <= basis.bits <= 102
        assert basis.count == 4

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RnsBasis([257, 257])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RnsBasis([])

    def test_rejects_limbs_at_the_limb_bound(self):
        """One bound for every limb: the transforms', 2^30.  Primes in
        [2^30, 2^31) -- which the compose could once take -- are refused
        where every basis is built, by the same constant as the NTT and the
        compose tables."""
        wide = generate_ntt_primes(31, 16, 2)
        assert all(1 << 30 <= p < 1 << 31 for p in wide)
        for primes in ([wide[0]], [generate_ntt_primes(30, 16, 1)[0], wide[-1]]):
            with pytest.raises(ValueError, match=rf"2\^{MAX_NTT_MODULUS_BITS}"):
                RnsBasis(primes)
        with pytest.raises(ValueError, match=rf"2\^{MAX_NTT_MODULUS_BITS}"):
            garner_tables((wide[0],))
        with pytest.raises(ValueError, match=str(MAX_NTT_MODULUS_BITS)):
            NttContext(16, wide[0])
        assert RnsBasis(generate_ntt_primes(30, 16, 2)).bits == 60  # below it: accepted

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            RnsBasis.for_bit_budget(10, 256)


class TestComposeDecompose:
    def test_roundtrip(self, basis):
        rng = np.random.default_rng(0)
        coeffs = np.array(
            [int(rng.integers(0, 1 << 57)) for _ in range(16)], dtype=object
        )
        assert np.array_equal(basis.compose(basis.decompose(coeffs)), coeffs)

    def test_values_reduced_mod_q(self, basis):
        q = basis.modulus
        coeffs = np.array([q + 5, 2 * q + 7], dtype=object)
        composed = basis.compose(basis.decompose(coeffs))
        assert list(composed) == [5, 7]

    def test_compose_validates_shape(self, basis):
        with pytest.raises(ValueError):
            basis.compose(np.zeros((basis.count + 1, 4), dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 59)), min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_roundtrip_property(self, values):
        basis = RnsBasis.for_bit_budget(60, 256)
        coeffs = np.array(values, dtype=object) % basis.modulus
        assert np.array_equal(basis.compose(basis.decompose(coeffs)), coeffs)

    def test_additive_homomorphism(self, basis):
        rng = np.random.default_rng(1)
        a = np.array([int(rng.integers(0, 1 << 50)) for _ in range(8)], dtype=object)
        b = np.array([int(rng.integers(0, 1 << 50)) for _ in range(8)], dtype=object)
        primes = np.array(basis.primes, dtype=np.int64)[:, None]
        summed = (basis.decompose(a) + basis.decompose(b)) % primes
        assert np.array_equal(basis.compose(summed), (a + b) % basis.modulus)
