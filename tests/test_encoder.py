"""Unit + property tests for the batch encoder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import BfvParameters
from repro.bfv.encoder import BatchEncoder


@pytest.fixture(scope="module")
def encoder():
    params = BfvParameters.create(
        n=64, plain_bits=18, coeff_bits=40, require_security=False
    )
    return BatchEncoder(params)


class TestRoundtrip:
    def test_unsigned_roundtrip(self, encoder):
        values = np.arange(encoder.slot_count)
        decoded = encoder.decode(encoder.encode(values), signed=False)
        assert np.array_equal(decoded, values)

    def test_signed_roundtrip(self, encoder):
        values = np.arange(-32, 32)
        decoded = encoder.decode(encoder.encode(values))
        assert np.array_equal(decoded, values)

    def test_partial_vector_zero_pads(self, encoder):
        values = np.array([5, 6, 7])
        decoded = encoder.decode(encoder.encode(values), signed=False)
        assert np.array_equal(decoded[:3], values)
        assert not decoded[3:].any()

    @given(st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=64))
    @settings(max_examples=30)
    def test_roundtrip_property(self, values):
        params = BfvParameters.create(
            n=64, plain_bits=18, coeff_bits=40, require_security=False
        )
        enc = BatchEncoder(params)
        decoded = enc.decode(enc.encode(np.array(values)))
        assert np.array_equal(decoded[: len(values)], np.array(values))

    def test_rejects_oversized(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode(np.zeros(encoder.slot_count + 1, dtype=np.int64))


class TestSlotStructure:
    def test_index_map_is_bijection(self, encoder):
        mapping = encoder.slot_to_eval
        assert sorted(mapping) == list(range(encoder.slot_count))

    def test_row_encode_isolates_rows(self, encoder):
        row0 = encoder.encode_row(np.array([1, 2, 3]), row=0)
        row1 = encoder.encode_row(np.array([4, 5, 6]), row=1)
        d0 = encoder.decode(row0, signed=False)
        d1 = encoder.decode(row1, signed=False)
        half = encoder.row_size
        assert np.array_equal(d0[:3], [1, 2, 3]) and not d0[half:].any()
        assert np.array_equal(d1[half : half + 3], [4, 5, 6]) and not d1[:half].any()

    def test_row_decode(self, encoder):
        pt = encoder.encode_row(np.array([9, 8, 7]), row=1)
        assert np.array_equal(encoder.decode_row(pt, row=1)[:3], [9, 8, 7])

    def test_row_rejects_oversized(self, encoder):
        with pytest.raises(ValueError):
            encoder.encode_row(np.zeros(encoder.row_size + 1, dtype=np.int64))


class TestSemantics:
    def test_slotwise_addition(self, encoder):
        """Encoding is a ring homomorphism: slot add == poly add."""
        t = encoder.params.plain_modulus
        a = np.arange(encoder.slot_count)
        b = np.arange(encoder.slot_count) * 3
        pa, pb = encoder.encode(a), encoder.encode(b)
        summed = type(pa)((pa.coeffs + pb.coeffs) % t)
        assert np.array_equal(encoder.decode(summed, signed=False), (a + b) % t)

    def test_constant_vector_is_constant_polynomial(self, encoder):
        pt = encoder.encode(np.full(encoder.slot_count, 7))
        assert pt.coeffs[0] == 7
        assert not pt.coeffs[1:].any()
