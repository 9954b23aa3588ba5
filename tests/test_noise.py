"""Tests for invariant noise budget measurement."""

import numpy as np
import pytest

from repro.bfv import invariant_noise_budget


class TestBudgetBasics:
    def test_fresh_budget_within_capacity(self, small_scheme, small_keys):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(10), public)
        budget = invariant_noise_budget(small_scheme, ct, secret)
        assert 0 < budget < small_scheme.params.noise_capacity_bits

    def test_budget_decreases_under_ops(self, small_scheme, small_keys, small_galois):
        secret, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(10), public)
        budgets = [invariant_noise_budget(small_scheme, ct, secret)]
        current = ct
        for _ in range(3):
            current = small_scheme.rotate_rows(current, 1, small_galois)
            budgets.append(invariant_noise_budget(small_scheme, current, secret))
        assert budgets == sorted(budgets, reverse=True) or all(
            later <= earlier + 0.5 for earlier, later in zip(budgets, budgets[1:])
        )

    def test_positive_budget_decrypts_correctly(self, small_scheme, small_keys):
        secret, public = small_keys
        values = np.arange(20)
        ct = small_scheme.encrypt_values(values, public)
        assert invariant_noise_budget(small_scheme, ct, secret) > 0
        assert np.array_equal(small_scheme.decrypt_values(ct, secret)[: len(values)], values)


class TestBudgetExhaustion:
    def test_repeated_mults_exhaust_budget(self, small_scheme, small_keys):
        """Chaining large-coefficient plaintext mults must eventually fail."""
        secret, public = small_keys
        params = small_scheme.params
        rng = np.random.default_rng(11)
        big = rng.integers(0, params.plain_modulus, params.n, dtype=np.int64)
        plain = small_scheme.encode_for_mul(small_scheme.encoder.encode(big))
        ct = small_scheme.encrypt_values(np.arange(4) + 1, public)
        budgets = []
        for _ in range(4):
            ct = small_scheme.mul_plain(ct, plain)
            budgets.append(invariant_noise_budget(small_scheme, ct, secret))
        # The measured budget saturates just above zero (|t w mod q| is
        # capped at q/2), so "exhausted" means driven to (almost) nothing.
        assert budgets[-1] < 1.0
        assert budgets[0] > budgets[-1]

    def test_exhausted_budget_corrupts_decryption(self, small_scheme, small_keys):
        secret, public = small_keys
        params = small_scheme.params
        rng = np.random.default_rng(12)
        big = rng.integers(0, params.plain_modulus, params.n, dtype=np.int64)
        plain = small_scheme.encode_for_mul(small_scheme.encoder.encode(big))
        values = np.arange(4) + 1
        ct = small_scheme.encrypt_values(values, public)
        expected = values.astype(object)
        for _ in range(6):
            ct = small_scheme.mul_plain(ct, plain)
            expected = expected * big[:4] % params.plain_modulus
        if invariant_noise_budget(small_scheme, ct, secret) < 1.0:
            decoded = small_scheme.decrypt_values(ct, secret, signed=False)
            assert not np.array_equal(decoded[:4], expected)
