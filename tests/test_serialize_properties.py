"""Property-based round-trip and corruption tests for ``bfv/serialize``.

The serving runtime feeds every byte that crosses a process or network
boundary through this module, so its contract must hold *pointwise*:

* round-trips are exact for arbitrary (in-range) content, and
* **every single-byte corruption of a valid blob either raises or
  decodes to the very same polynomials** -- never silently to different
  ones.  Structural checks catch headers and sizes; the body CRC-32
  catches the dangerous case of a bit-flip that lands inside a valid
  residue range (which would otherwise decrypt to garbage).

Hypothesis drives the random content; the corruption sweeps are
exhaustive over byte positions with a seeded flip value per position.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfv import BfvParameters, BfvScheme
from repro.bfv.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    deserialize_plaintext,
    serialize_ciphertext,
    serialize_galois_keys,
    serialize_plaintext,
)

# One tiny shared context: hypothesis re-runs bodies many times and the
# corruption sweeps decode thousands of blobs, so blobs must be small.
_PARAMS = BfvParameters.create(
    n=64, plain_bits=18, coeff_bits=54, a_dcmp_bits=10, require_security=False
)
_SCHEME = BfvScheme(_PARAMS, seed=5)
_SECRET, _PUBLIC = _SCHEME.keygen()

# A fixed ciphertext/blob pair for the mutation properties: hypothesis
# replays examples, so the subject must not change between draws.
_CORRUPTION_CT = _SCHEME.encrypt_values(np.arange(8), _PUBLIC)
_CORRUPTION_BLOB = serialize_ciphertext(_CORRUPTION_CT, _PARAMS)

values = st.lists(
    st.integers(min_value=0, max_value=_PARAMS.plain_modulus - 1),
    min_size=1,
    max_size=_PARAMS.n,
)


def _ct_polys(ct):
    return ct.c0.data.copy(), ct.c1.data.copy()


def _keys_polys(keys):
    return {
        element: [
            (body.data.copy(), a.data.copy()) for body, a in key.pairs
        ]
        for element, key in keys.keys.items()
    }


class TestRoundTrips:
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(values)
    def test_plaintext_roundtrip_exact(self, vals):
        pt = _SCHEME.encoder.encode_row(
            np.pad(np.array(vals, dtype=np.int64), (0, _PARAMS.row_size - 0))[
                : _PARAMS.row_size
            ]
        )
        restored = deserialize_plaintext(serialize_plaintext(pt))
        assert np.array_equal(restored.coeffs, pt.coeffs)

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(values)
    def test_ciphertext_roundtrip_byte_exact(self, vals):
        ct = _SCHEME.encrypt_values(np.array(vals, dtype=np.int64), _PUBLIC)
        restored = deserialize_ciphertext(
            serialize_ciphertext(ct, _PARAMS), _PARAMS
        )
        assert np.array_equal(restored.c0.data, ct.c0.data)
        assert np.array_equal(restored.c1.data, ct.c1.data)

    @settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=3))
    def test_galois_keys_roundtrip_byte_exact(self, steps):
        """Version-3 key blobs: the slot-ordered stacks come back verbatim,
        and a hoisted group rotated under the restored keys equals, byte
        for byte, the same rotation under the keys that were generated."""
        keys = _SCHEME.generate_galois_keys(_SECRET, sorted(steps))
        restored = deserialize_galois_keys(
            serialize_galois_keys(keys, _PARAMS), _PARAMS
        )
        assert _keys_polys(restored).keys() == _keys_polys(keys).keys()
        for element, pairs in _keys_polys(keys).items():
            assert restored.keys[element].stack.tobytes() == keys.keys[element].stack.tobytes()
            for (b0, a0), (b1, a1) in zip(pairs, _keys_polys(restored)[element]):
                assert np.array_equal(b0, b1) and np.array_equal(a0, a1)
        group = _SCHEME.hoist_group([_CORRUPTION_CT])
        local = _SCHEME.rotate_rows_group(group, sorted(steps), [keys])
        shipped = _SCHEME.rotate_rows_group(group, sorted(steps), [restored])
        assert shipped.tobytes() == local.tobytes()

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(st.binary(min_size=0, max_size=64))
    def test_random_bytes_never_crash_differently(self, junk):
        """Garbage input raises ValueError -- not struct/index errors."""
        for payload in (junk, b"RPRO" + junk):
            with pytest.raises(ValueError):
                deserialize_ciphertext(payload, _PARAMS)


_PRIMES = np.array(_PARAMS.coeff_basis.primes, dtype=np.int64)[:, None]
positions = st.tuples(
    st.integers(0, 1), st.integers(0, len(_PRIMES) - 1), st.integers(0, _PARAMS.n - 1)
)


class TestNarrowFormatEdges:
    """The ``<u4`` body: ``p_i - 1`` is the largest residue that travels,
    ``p_i`` the smallest that is refused, and the encoder never wraps."""

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(positions, min_size=1, max_size=16))
    def test_top_residues_roundtrip_exactly(self, spots):
        ct = _CORRUPTION_CT.copy()
        for half, limb, index in spots:
            (ct.c0, ct.c1)[half].data[limb, index] = _PRIMES[limb, 0] - 1
        restored = deserialize_ciphertext(serialize_ciphertext(ct, _PARAMS), _PARAMS)
        assert np.array_equal(restored.c0.data, ct.c0.data)
        assert np.array_equal(restored.c1.data, ct.c1.data)

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(spot=positions, word=st.sampled_from(["p_i", "0xFFFFFFFF"]))
    def test_p_i_and_all_ones_rejected_behind_a_valid_crc(
        self, spot, word, rewrite_header
    ):
        half, limb, index = spot
        start = 8 + int.from_bytes(_CORRUPTION_BLOB[4:8], "little")
        words = np.frombuffer(_CORRUPTION_BLOB, dtype="<u4", offset=start)
        words = words.reshape(2, len(_PRIMES), _PARAMS.n).copy()
        words[half, limb, index] = _PRIMES[limb, 0] if word == "p_i" else 0xFFFFFFFF
        blob = rewrite_header(
            _CORRUPTION_BLOB[:start] + words.tobytes(),
            lambda header: header.update(crc32=zlib.crc32(words)),
        )
        with pytest.raises(ValueError, match=f"^ciphertext c{half} contains residues"):
            deserialize_ciphertext(blob, _PARAMS)

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(positions, st.one_of(st.integers(-(2**63), -1), st.integers(2**32, 2**63 - 1)))
    def test_encoder_rejects_what_does_not_fit_a_word(self, spot, value):
        half, limb, index = spot
        ct = _SCHEME.encrypt_values(np.arange(4), _PUBLIC)
        (ct.c0, ct.c1)[half].data[limb, index] = value
        with pytest.raises(ValueError, match=r"outside \[0, 2\^32\)"):
            serialize_ciphertext(ct, _PARAMS)
        pt = _SCHEME.encoder.encode([1])
        pt.coeffs[index] = value
        with pytest.raises(ValueError, match=r"outside \[0, 2\^32\)"):
            serialize_plaintext(pt)


def _sweep_corruptions(blob, positions, decode, check_equal, rng):
    """Flip one byte per position; decoding must raise or be identical."""
    silent = []
    for index in positions:
        corrupted = bytearray(blob)
        corrupted[index] ^= int(rng.integers(1, 256))
        try:
            decoded = decode(bytes(corrupted))
        except ValueError:
            continue
        if not check_equal(decoded):
            silent.append(index)
    assert not silent, (
        f"{len(silent)} single-byte corruption(s) decoded to different "
        f"polynomials at offsets {silent[:10]}..."
    )


class TestSingleByteCorruption:
    """Every byte of every blob kind, one seeded flip each."""

    def test_ciphertext_corruption_never_silent(self):
        rng = np.random.default_rng(2024)
        ct = _SCHEME.encrypt_values(np.arange(16), _PUBLIC)
        blob = serialize_ciphertext(ct, _PARAMS)
        c0, c1 = _ct_polys(ct)
        _sweep_corruptions(
            blob,
            range(len(blob)),
            lambda b: deserialize_ciphertext(b, _PARAMS),
            lambda ct2: np.array_equal(ct2.c0.data, c0)
            and np.array_equal(ct2.c1.data, c1),
            rng,
        )

    def test_plaintext_corruption_never_silent(self):
        rng = np.random.default_rng(2025)
        pt = _SCHEME.encoder.encode_row(np.arange(_PARAMS.row_size))
        blob = serialize_plaintext(pt)
        coeffs = pt.coeffs.copy()
        _sweep_corruptions(
            blob,
            range(len(blob)),
            deserialize_plaintext,
            lambda pt2: np.array_equal(pt2.coeffs, coeffs),
            rng,
        )

    def test_galois_keys_corruption_never_silent(self):
        rng = np.random.default_rng(2026)
        keys = _SCHEME.generate_galois_keys(_SECRET, [1, 2])
        blob = serialize_galois_keys(keys, _PARAMS)
        original = _keys_polys(keys)

        def equal(restored):
            polys = _keys_polys(restored)
            if polys.keys() != original.keys():
                return False
            return all(
                np.array_equal(b0, b1) and np.array_equal(a0, a1)
                for element in original
                for (b0, a0), (b1, a1) in zip(original[element], polys[element])
            )

        # Header exhaustively; body sampled (every byte of a key blob
        # is CRC-covered identically, so a seeded sample pins the same
        # property without thousands of redundant decodes).
        header_len = int.from_bytes(blob[4:8], "little")
        body_positions = rng.choice(
            np.arange(8 + header_len, len(blob)), size=512, replace=False
        )
        positions = list(range(8 + header_len)) + sorted(int(p) for p in body_positions)
        _sweep_corruptions(
            blob,
            positions,
            lambda b: deserialize_galois_keys(b, _PARAMS),
            equal,
            rng,
        )

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.binary(min_size=1, max_size=32),
    )
    def test_truncation_and_extension_never_silent(self, cut_frac, tail):
        ct = _CORRUPTION_CT
        blob = _CORRUPTION_BLOB
        c0, c1 = _ct_polys(ct)
        cut = min(len(blob) - 1, int(cut_frac * len(blob)))
        for mutated in (blob[:cut], blob + tail):
            try:
                decoded = deserialize_ciphertext(bytes(mutated), _PARAMS)
            except ValueError:
                continue
            assert np.array_equal(decoded.c0.data, c0)
            assert np.array_equal(decoded.c1.data, c1)
