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
Every property runs on both codecs: the kernel's (``rns_pack`` /
``rns_unpack`` / ``crc32_bytes`` behind a header template) and the numpy /
zlib reference; ``TestKernelCodec`` holds the two to the same bytes, the
same stacks and the same error text.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bfv import BfvParameters, BfvScheme, native, serialize
from repro.bfv.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    serialize_ciphertext,
    serialize_galois_keys,
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


KERNEL = native.load_kernel()
needs_kernel = pytest.mark.skipif(KERNEL is None, reason="native kernel unavailable")


def _frames(kernel):
    frames = {}
    return lambda params: frames.setdefault(params, serialize._Frame(params, kernel))


@pytest.fixture(scope="module", params=["kernel", "reference"])
def codec(request):
    """Every blob of a test through one codec."""
    if request.param == "kernel" and KERNEL is None:
        pytest.skip("native kernel unavailable")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_frame", _frames(KERNEL if request.param == "kernel" else None))
        yield request.param


def _ct_polys(ct):
    return ct.c0.data.copy(), ct.c1.data.copy()


def _keys_polys(keys):
    return {
        element: [
            (body.data.copy(), a.data.copy()) for body, a in key.pairs
        ]
        for element, key in keys.keys.items()
    }


@pytest.mark.usefixtures("codec")
class TestRoundTrips:
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


@pytest.mark.usefixtures("codec")
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


@pytest.mark.usefixtures("codec")
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


def _on(kernel, fn, *args):
    """``fn(*args)`` on one codec: what it returns, or its ValueError's text."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(serialize, "_frame", _frames(kernel))
        try:
            return fn(*args)
        except ValueError as exc:
            return f"ValueError: {exc}"


def _body(blob):
    return 8 + int.from_bytes(blob[4:8], "little")


def _with_words(blob, edit, rewrite_header):
    """The blob with its body words passed through ``edit`` and a CRC that fits."""
    words = np.frombuffer(blob, dtype="<u4", offset=_body(blob)).copy()
    edit(words)
    return rewrite_header(blob[: _body(blob)] + words.tobytes(),
                          lambda header: header.update(crc32=zlib.crc32(words)))


def _crc_minus_one(rewrite_header):
    """``rewrite_header`` writing ``"crc32": -1``, the kernel's out-of-range
    return: a blob carrying it must not pass as one whose CRC checked."""
    return lambda blob, edit: rewrite_header(blob, lambda header: header.update(crc32=-1))


@needs_kernel
class TestKernelCodec:
    """The kernel codec and the reference: the same bytes, the same stacks
    and the same ``ValueError`` text for every blob, good or bad."""

    @staticmethod
    def _same_decode(decode, blob):
        fast, ref = _on(KERNEL, decode, blob, _PARAMS), _on(None, decode, blob, _PARAMS)
        if isinstance(ref, str):
            assert fast == ref
        elif decode is deserialize_ciphertext:
            assert fast.c0.data.tobytes() == ref.c0.data.tobytes()
            assert fast.c1.data.tobytes() == ref.c1.data.tobytes()
        else:
            assert fast.keys.keys() == ref.keys.keys()
            for element, key in ref.keys.items():
                assert fast.keys[element].stack.tobytes() == key.stack.tobytes()
        return ref

    @settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
    @given(vals=values, data=st.data())
    def test_ciphertexts_agree(self, vals, data, rewrite_header):
        ct = _SCHEME.encrypt_values(np.array(vals, dtype=np.int64), _PUBLIC)
        blob = _on(KERNEL, serialize_ciphertext, ct, _PARAMS)
        assert blob == _on(None, serialize_ciphertext, ct, _PARAMS)
        decoded = self._same_decode(deserialize_ciphertext, blob)
        assert decoded.c0.data.tobytes() == ct.c0.data.tobytes()
        with pytest.MonkeyPatch.context() as patch:  # the kernel codec's body passes alone
            patch.setattr(serialize, "_frame", _frames(KERNEL))
            patch.setattr(serialize, "_pack", None)
            patch.setattr(serialize, "_read_residues", None)
            assert serialize_ciphertext(deserialize_ciphertext(blob, _PARAMS), _PARAMS) == blob
        half, limb, index = data.draw(positions)
        at = (half * len(_PRIMES) + limb) * _PARAMS.n + index
        flip = _body(blob) + 4 * at + data.draw(st.integers(0, 3))
        cases = {
            "bad CRC": blob[:flip] + bytes([blob[flip] ^ 1]) + blob[flip + 1:],
            "residue at p_i": _with_words(
                blob, lambda w: w.__setitem__(at, _PRIMES[limb, 0]), rewrite_header),
            "residue 2^32 - 1": _with_words(
                blob, lambda w: w.__setitem__(at, 0xFFFFFFFF), rewrite_header),
            "CRC -1, residue at p_i": _with_words(blob, lambda w: w.__setitem__(at, _PRIMES[limb, 0]),
                                                  _crc_minus_one(rewrite_header)),
            "short": blob[:-4],
            "long": blob + bytes(4),
            "extra field": rewrite_header(blob, lambda h: h.update(a=1)),
            "other CRC": rewrite_header(blob, lambda h: h.update(crc32=h["crc32"] ^ 1)),
        }
        for name, variant in cases.items():
            outcome = self._same_decode(deserialize_ciphertext, variant)
            if name.startswith("residue"):
                assert outcome == (f"ValueError: ciphertext c{half} contains residues "
                                   "outside [0, p_i)"), name
            elif name.startswith("CRC"):
                assert outcome == "ValueError: ciphertext body fails its CRC-32 (corrupted blob)"
            elif name == "extra field":
                assert outcome.c1.data.tobytes() == ct.c1.data.tobytes(), name
            else:
                assert isinstance(outcome, str), name

    @settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=3),
           data=st.data())
    def test_galois_keys_agree(self, steps, data, rewrite_header):
        keys = _SCHEME.generate_galois_keys(_SECRET, sorted(steps))
        blob = _on(KERNEL, serialize_galois_keys, keys, _PARAMS)
        assert blob == _on(None, serialize_galois_keys, keys, _PARAMS)
        self._same_decode(deserialize_galois_keys, blob)
        count = (len(blob) - _body(blob)) // 4
        at = data.draw(st.integers(0, count - 1))
        limb = at // (_PARAMS.l_ct * _PARAMS.n) % len(_PRIMES)
        at_p_i = lambda w: w.__setitem__(at, _PRIMES[limb, 0])  # noqa: E731
        outcomes = [self._same_decode(deserialize_galois_keys, variant) for variant in (
            blob[:-1] + bytes([blob[-1] ^ 1]),
            _with_words(blob, at_p_i, rewrite_header),
            blob[:-4],
            _with_words(blob, at_p_i, _crc_minus_one(rewrite_header)),
        )]
        assert all(isinstance(outcome, str) for outcome in outcomes)
        assert outcomes[-1] == "ValueError: galois_keys body fails its CRC-32 (corrupted blob)"

    def test_crc32_bytes_is_zlibs_at_every_length_and_offset(self):
        raw = os.urandom(4096 + 16)
        buffer = ctypes.create_string_buffer(raw, len(raw))
        base = ctypes.addressof(buffer)
        for offset in range(16):
            for length in range(4097):
                expected = zlib.crc32(raw[offset : offset + length])
                assert KERNEL.crc32_bytes(base + offset, length, 0) == expected
                cut = length // 3
                head = KERNEL.crc32_bytes(base + offset, cut, 0)
                assert KERNEL.crc32_bytes(base + offset + cut, length - cut, head) == expected
        words = np.frombuffer(raw, dtype=np.int64, count=512)
        assert serialize.crc32(words, 7) == zlib.crc32(words, 7)
        assert serialize.crc32(raw) == zlib.crc32(raw)


#: SHA-256 of one ciphertext blob and one Galois key set (the format of
#: version 3 as the reference writes it), pinned on both codecs.
BLOB_PINS = {
    "ciphertext": "bcf8ba38ca674d1e7f23180320ce9404c4b807c96621d3dcf082c5edc5e80b83",
    "galois_keys": "1440ac4277df572abfc067c32e82924417e5e1ca83b73c42f7d9a05b9cafc042",
}


def test_blob_pins(codec):
    scheme = BfvScheme(_PARAMS, seed=11)
    secret, public = scheme.keygen()
    blobs = {
        "ciphertext": serialize_ciphertext(scheme.encrypt_values(np.arange(8), public), _PARAMS),
        "galois_keys": serialize_galois_keys(scheme.generate_galois_keys(secret, [1, 2]), _PARAMS),
    }
    assert {name: hashlib.sha256(blob).hexdigest() for name, blob in blobs.items()} == BLOB_PINS
