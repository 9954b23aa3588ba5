"""Unit tests for RNS polynomials and Galois automorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import native
from repro.bfv.modmath import generate_ntt_primes
from repro.bfv.ntt_batch import RnsNttEngine, get_engine
from repro.bfv.polynomial import (
    Domain,
    RnsPolynomial,
    eval_domain_galois_map,
    galois_automorphism_coeffs,
)
from repro.bfv.rns import RnsBasis

N = 32
PATHS = [False] + ([None] if native.native_available() else [])
PATH_IDS = ["numpy"] + (["native"] if native.native_available() else [])


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.for_bit_budget(56, N)


@pytest.fixture(scope="module")
def engine(basis):
    return get_engine(N, basis.primes)


def random_poly(basis, seed):
    rng = np.random.default_rng(seed)
    coeffs = np.array([int(rng.integers(0, basis.modulus)) for _ in range(N)], dtype=object)
    return RnsPolynomial(basis, basis.decompose(coeffs), Domain.COEFF), coeffs


def to_eval(poly, engine):
    return RnsPolynomial(poly.basis, engine.forward(poly.data, reduced=True), Domain.EVAL)


class TestArithmetic:
    def test_add_matches_bigint(self, basis, engine):
        a, ca = random_poly(basis, 0)
        b, cb = random_poly(basis, 1)
        result = a.add(b).bigint_coeffs(engine)
        assert np.array_equal(result, (ca + cb) % basis.modulus)

    def test_sub_matches_bigint(self, basis, engine):
        a, ca = random_poly(basis, 2)
        b, cb = random_poly(basis, 3)
        result = a.sub(b).bigint_coeffs(engine)
        assert np.array_equal(result, (ca - cb) % basis.modulus)

    def test_pointwise_requires_eval_domain(self, basis, engine):
        a, _ = random_poly(basis, 6)
        b, _ = random_poly(basis, 7)
        with pytest.raises(ValueError):
            a.pointwise(b, engine)

    def test_domain_mismatch_rejected(self, basis, engine):
        a, _ = random_poly(basis, 8)
        b, _ = random_poly(basis, 9)
        with pytest.raises(ValueError):
            a.add(to_eval(b, engine))


class TestDomainConversion:
    def test_eval_roundtrip(self, basis, engine):
        a, ca = random_poly(basis, 10)
        back = to_eval(a, engine).to_coeff(engine)
        assert np.array_equal(back.bigint_coeffs(engine), ca)

    def test_pointwise_is_negacyclic_product(self, basis, engine):
        a, ca = random_poly(basis, 11)
        b, cb = random_poly(basis, 12)
        prod = to_eval(a, engine).pointwise(to_eval(b, engine), engine).to_coeff(engine)
        prod = prod.bigint_coeffs(engine)
        # Schoolbook negacyclic product over the big modulus.
        expected = np.zeros(N, dtype=object)
        for i in range(N):
            for j in range(N):
                term = int(ca[i]) * int(cb[j])
                if i + j >= N:
                    expected[i + j - N] -= term
                else:
                    expected[i + j] += term
        expected %= basis.modulus
        assert np.array_equal(prod, expected)


class TestGaloisAutomorphism:
    @pytest.mark.parametrize("galois_elt", [3, 9, 2 * N - 1])
    def test_coeff_domain_definition(self, galois_elt):
        modulus = 97 * 193
        rng = np.random.default_rng(13)
        coeffs = np.array([int(rng.integers(0, modulus)) for _ in range(N)], dtype=object)
        result = galois_automorphism_coeffs(coeffs, galois_elt, modulus)
        # Check against polynomial substitution x -> x^g evaluated termwise.
        expected = np.zeros(N, dtype=object)
        for i in range(N):
            exponent = i * galois_elt % (2 * N)
            sign = 1
            if exponent >= N:
                exponent -= N
                sign = -1
            expected[exponent] = (expected[exponent] + sign * int(coeffs[i])) % modulus
        assert np.array_equal(result, expected)

    def test_eval_map_is_permutation(self):
        mapping = eval_domain_galois_map(N, 3)
        assert sorted(mapping) == list(range(N))

    @pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
    @pytest.mark.parametrize("galois_elt", [3, 9, 2 * N - 1, pow(3, N // 2 - 1, 2 * N)])
    def test_eval_map_matches_coeff_automorphism(self, basis, galois_elt, use_native):
        """Permuting evaluations must equal transforming the automorphed poly,
        for row steps, the column element and the last row step."""
        engine = RnsNttEngine(N, basis.primes, use_native=use_native)
        a, ca = random_poly(basis, 14)
        rotated_coeffs = galois_automorphism_coeffs(ca, galois_elt, basis.modulus)
        direct = to_eval(RnsPolynomial(basis, basis.decompose(rotated_coeffs), Domain.COEFF), engine)
        permuted = to_eval(a, engine).data[:, eval_domain_galois_map(N, galois_elt)]
        assert np.array_equal(direct.data, permuted)

    def test_identity_element(self, basis, engine):
        a, ca = random_poly(basis, 15)
        result = galois_automorphism_coeffs(ca, 1, basis.modulus)
        assert np.array_equal(result, ca)


class TestValidation:
    def test_shape_validation(self, basis):
        with pytest.raises(ValueError):
            RnsPolynomial(basis, np.zeros((1, N), dtype=np.int64), Domain.COEFF)

    def test_zero_constructor(self, basis):
        poly = RnsPolynomial.zero(basis, N)
        assert poly.domain is Domain.EVAL
        assert not poly.data.any()

    def test_copy_is_independent(self, basis):
        a, _ = random_poly(basis, 16)
        b = a.copy()
        b.data[0, 0] = (b.data[0, 0] + 1) % basis.primes[0]
        assert a.data[0, 0] != b.data[0, 0]
