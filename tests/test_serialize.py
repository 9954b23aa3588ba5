"""Tests for the wire format (parameters, ciphertexts, Galois keys)."""

import doctest

import numpy as np
import pytest

import repro.bfv.serialize
from repro.bfv import BfvParameters, BfvScheme
from repro.bfv.keys import GaloisKeys
from repro.bfv.polynomial import Domain, RnsPolynomial
from repro.bfv.scheme import Ciphertext
from repro.bfv.serialize import (
    deserialize_ciphertext,
    deserialize_galois_keys,
    params_from_dict,
    params_to_dict,
    serialize_ciphertext,
    serialize_galois_keys,
)
from repro.protocol.messages import ciphertext_bytes

#: The served parameter set (the demo model's, ``tests/test_serving.py``).
BENCH_PARAMS = BfvParameters.create(
    n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16, require_security=False
)


def test_module_doctests_pass():
    """The module docstring's round trip and error examples hold."""
    result = doctest.testmod(repro.bfv.serialize)
    assert result.attempted > 0 and result.failed == 0


class TestParams:
    def test_roundtrip(self, small_params):
        data = params_to_dict(small_params)
        restored = params_from_dict(data)
        assert restored.n == small_params.n
        assert restored.plain_modulus == small_params.plain_modulus
        assert restored.coeff_basis.primes == small_params.coeff_basis.primes
        assert restored.l_ct == small_params.l_ct

    def test_json_safe(self, small_params):
        import json

        json.dumps(params_to_dict(small_params))


class TestCiphertext:
    def test_roundtrip_decrypts(self, small_scheme, small_keys):
        secret, public = small_keys
        values = np.arange(20)
        ct = small_scheme.encrypt_values(values, public)
        blob = serialize_ciphertext(ct, small_scheme.params)
        restored = deserialize_ciphertext(blob, small_scheme.params)
        decoded = small_scheme.decrypt_values(restored, secret, signed=False)
        assert np.array_equal(decoded[:20], values)

    def test_restored_ciphertext_still_computes(
        self, small_scheme, small_keys, small_galois
    ):
        secret, public = small_keys
        values = np.arange(small_scheme.params.row_size)
        ct = small_scheme.encrypt(small_scheme.encoder.encode_row(values), public)
        blob = serialize_ciphertext(ct, small_scheme.params)
        restored = deserialize_ciphertext(blob, small_scheme.params)
        rotated = small_scheme.rotate_rows(restored, 1, small_galois)
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(rotated, secret), signed=False
        )
        assert np.array_equal(decoded, np.roll(values, -1))

    def test_wire_bytes_are_four_per_residue_near_the_paper(self):
        """``2 k n * 4`` bytes: within 1.3x of Gazelle's ``2 n log q`` bits."""
        basis, n = BENCH_PARAMS.coeff_basis, BENCH_PARAMS.n
        zero = RnsPolynomial(basis, np.zeros((basis.count, n), np.int64), Domain.EVAL)
        blob = serialize_ciphertext(Ciphertext(zero, zero), BENCH_PARAMS)
        data_bytes = 2 * basis.count * n * 4
        assert data_bytes < len(blob) < data_bytes + 2048  # header on top
        assert data_bytes <= 1.3 * ciphertext_bytes(BENCH_PARAMS)

    def test_wire_size(self, small_scheme, small_keys):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        blob = serialize_ciphertext(ct, small_scheme.params)
        params = small_scheme.params
        data_bytes = 2 * params.coeff_basis.count * params.n * 4
        assert len(blob) > data_bytes  # header on top of payload
        assert len(blob) < data_bytes + 2048

    def test_parameter_mismatch_detected(self, small_scheme, small_keys):
        from repro.bfv import BfvParameters

        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        blob = serialize_ciphertext(ct, small_scheme.params)
        other = BfvParameters.create(
            n=small_scheme.params.n,
            plain_bits=18,
            coeff_bits=40,
            require_security=False,
        )
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob, other)


class TestGaloisKeys:
    def test_roundtrip_rotates_correctly(self, small_scheme, small_keys):
        from repro.bfv.serialize import (
            deserialize_galois_keys,
            serialize_galois_keys,
        )

        secret, public = small_keys
        keys = small_scheme.generate_galois_keys(secret, [1, 3])
        blob = serialize_galois_keys(keys, small_scheme.params)
        restored = deserialize_galois_keys(blob, small_scheme.params)
        values = np.arange(small_scheme.params.row_size)
        ct = small_scheme.encrypt(small_scheme.encoder.encode_row(values), public)
        rotated = small_scheme.rotate_rows(ct, 3, restored)
        decoded = small_scheme.encoder.decode_row(
            small_scheme.decrypt(rotated, secret), signed=False
        )
        assert np.array_equal(decoded, np.roll(values, -3))

    def test_blob_is_the_resident_stacks_and_roundtrips_byte_exact(self, small_params):
        """The body is every key's ``(2, k, l_ct, n)`` uint32 stack,
        verbatim, elements ascending -- and decoding then re-encoding a
        fixed-seed key set gives the same bytes."""
        scheme = BfvScheme(small_params, seed=11)
        secret, _ = scheme.keygen()
        keys = scheme.generate_galois_keys(secret, [1, 2, 5])
        blob = serialize_galois_keys(keys, small_params)
        header_len = int.from_bytes(blob[4:8], "little")
        assert blob[8 + header_len :] == b"".join(
            keys.keys[element].stack.tobytes() for element in sorted(keys.keys)
        )
        restored = deserialize_galois_keys(blob, small_params)
        assert all(key.stack.dtype == np.uint32 for key in restored.keys.values())
        assert serialize_galois_keys(restored, small_params) == blob

    def test_empty_key_set_roundtrips(self, small_params):
        blob = serialize_galois_keys(GaloisKeys(), small_params)
        assert deserialize_galois_keys(blob, small_params).keys == {}

    def test_type_validation(self, small_scheme):
        from repro.bfv.serialize import serialize_galois_keys

        with pytest.raises(TypeError):
            serialize_galois_keys("not keys", small_scheme.params)

    def test_kind_mismatch(self, small_scheme, small_keys):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        blob = serialize_ciphertext(ct, small_scheme.params)
        with pytest.raises(ValueError, match="expected galois_keys, got 'ciphertext'"):
            deserialize_galois_keys(blob, small_scheme.params)


class TestMalformedBlobs:
    """Corrupt or mismatched wire data must raise, never mis-deserialize."""

    @pytest.fixture()
    def ct_blob(self, small_scheme, small_keys):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(8), public)
        return serialize_ciphertext(ct, small_scheme.params)

    def test_truncated_ciphertext_body(self, ct_blob, small_params):
        with pytest.raises(ValueError, match="expected"):
            deserialize_ciphertext(ct_blob[:-100], small_params)

    def test_oversized_ciphertext_body(self, ct_blob, small_params):
        with pytest.raises(ValueError, match="body has"):
            deserialize_ciphertext(ct_blob + b"\x00" * 64, small_params)

    def test_truncated_header(self, ct_blob, small_params):
        with pytest.raises(ValueError, match="truncated|not a repro"):
            deserialize_ciphertext(ct_blob[:10], small_params)

    def test_header_not_json(self, small_params):
        import struct

        blob = b"RPRO" + struct.pack("<I", 8) + b"not json" + b"\x00" * 16
        with pytest.raises(ValueError, match="malformed"):
            deserialize_ciphertext(blob, small_params)

    @staticmethod
    def _patch_body(blob: bytes, offset: int, value: bytes) -> bytes:
        """Overwrite body bytes and re-seal the header CRC.

        Lets tests exercise the *semantic* validators (residue ranges)
        behind the checksum, the way an attacker -- not line noise --
        would have to.
        """
        import json
        import struct
        import zlib

        header_len = int.from_bytes(blob[4:8], "little")
        body = bytearray(blob[8 + header_len :])
        body[offset : offset + len(value)] = value
        header = json.loads(blob[8 : 8 + header_len].decode())
        header["crc32"] = zlib.crc32(bytes(body))
        new_header = json.dumps(header, sort_keys=True).encode()
        return (
            blob[:4] + struct.pack("<I", len(new_header)) + new_header + bytes(body)
        )

    def test_out_of_range_residues_rejected(self, ct_blob, small_params):
        """Residues >= p_i would be silently reduced downstream; reject them."""
        bad = self._patch_body(ct_blob, 0, (2**32 - 1).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="^ciphertext c0 contains residues outside"):
            deserialize_ciphertext(bad, small_params)

    def test_in_range_body_corruption_fails_crc(self, ct_blob, small_params):
        """A bit-flip landing inside a valid residue range must not decode.

        Every structural check would pass (right size, right header,
        residues in [0, p_i)); only the body CRC stands between this
        blob and a silently different polynomial.
        """
        header_len = int.from_bytes(ct_blob[4:8], "little")
        bad = bytearray(ct_blob)
        bad[8 + header_len] ^= 0x01  # LSB of the first residue: stays in range
        with pytest.raises(ValueError, match="CRC"):
            deserialize_ciphertext(bytes(bad), small_params)

    def test_body_bytes_must_name_the_body(self, ct_blob, small_params, rewrite_header):
        """The CRC is checked against a body of the declared size only, so a
        header whose ``body_bytes`` is not the body's length is refused --
        else a wrong size would carry an altered residue past the CRC."""
        bad = bytearray(rewrite_header(ct_blob, lambda h: h.update(body_bytes=h["body_bytes"] + 1)))
        bad[8 + int.from_bytes(bad[4:8], "little")] ^= 0x01  # stays in range
        with pytest.raises(ValueError, match="^ciphertext header body_bytes=4097 does not match"):
            deserialize_ciphertext(bytes(bad), small_params)

    def test_wrong_n_rejected(self, small_scheme, small_keys):
        from repro.bfv import BfvParameters

        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(4), public)
        blob = serialize_ciphertext(ct, small_scheme.params)
        other = BfvParameters.create(
            n=512,
            plain_bits=18,
            coeff_bits=60,
            w_dcmp_bits=6,
            a_dcmp_bits=12,
            require_security=False,
        )
        with pytest.raises(ValueError):
            deserialize_ciphertext(blob, other)

    def test_galois_base_bits_mismatch(self, small_scheme, small_keys):
        """A key blob under a different Adcmp must not key-switch garbage."""
        from dataclasses import replace

        from repro.bfv.serialize import (
            deserialize_galois_keys,
            serialize_galois_keys,
        )

        secret, _ = small_keys
        keys = small_scheme.generate_galois_keys(secret, [1])
        blob = serialize_galois_keys(keys, small_scheme.params)
        other = replace(small_scheme.params, a_dcmp_bits=10)
        with pytest.raises(ValueError, match="base|pairs"):
            deserialize_galois_keys(blob, other)

    def test_galois_invalid_element_rejected(self, small_scheme, small_keys):
        import json
        import struct

        from repro.bfv.serialize import (
            deserialize_galois_keys,
            serialize_galois_keys,
        )

        secret, _ = small_keys
        keys = small_scheme.generate_galois_keys(secret, [1])
        blob = serialize_galois_keys(keys, small_scheme.params)
        header_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + header_len].decode())
        header["elements"] = [4]  # even => not a valid Galois element
        new_header = json.dumps(header, sort_keys=True).encode()
        patched = (
            blob[:4]
            + struct.pack("<I", len(new_header))
            + new_header
            + blob[8 + header_len :]
        )
        with pytest.raises(ValueError, match="Galois element"):
            deserialize_galois_keys(patched, small_scheme.params)

    @pytest.mark.parametrize("elements", [[3, 3], [9, 3]])
    def test_galois_elements_out_of_order_rejected(
        self, small_scheme, small_keys, rewrite_header, elements
    ):
        """A forged list naming element 3 twice would bind 3 to element 9's
        body (every step-1 rotation under the wrong key, no error); a
        descending list is refused the same way."""
        secret, _ = small_keys
        keys = small_scheme.generate_galois_keys(secret, [1, 2])
        assert sorted(keys.keys) == [3, 9]
        blob = rewrite_header(
            serialize_galois_keys(keys, small_scheme.params),
            lambda h: h.update(elements=elements),
        )
        with pytest.raises(ValueError, match="^Galois element 3 is out of ascending order$"):
            deserialize_galois_keys(blob, small_scheme.params)

    @pytest.mark.parametrize("value", [2**62, -1])
    def test_galois_out_of_range_in_the_last_pair_of_the_last_key(
        self, small_scheme, small_keys, value
    ):
        """The one-pass range check still names the offending polynomial.

        An 8-byte (int64-width) value lands on the last two ``<u4``
        residues: ``-1`` makes both ``0xFFFFFFFF``, ``2**62`` makes the
        last ``2**30``, above both primes of ``small_params``.
        """
        from repro.bfv.serialize import (
            deserialize_galois_keys,
            serialize_galois_keys,
        )

        secret, _ = small_keys
        keys = small_scheme.generate_galois_keys(secret, [1, 2])
        blob = serialize_galois_keys(keys, small_scheme.params)
        header_len = int.from_bytes(blob[4:8], "little")
        last = len(blob) - 8 - header_len - 8
        bad = self._patch_body(blob, last, value.to_bytes(8, "little", signed=True))
        element = max(keys.keys)
        with pytest.raises(
            ValueError,
            match=rf"^galois key {element} a contains residues outside \[0, p_i\)$",
        ):
            deserialize_galois_keys(bad, small_scheme.params)

    def test_galois_truncated_body(self, small_scheme, small_keys):
        from repro.bfv.serialize import (
            deserialize_galois_keys,
            serialize_galois_keys,
        )

        secret, _ = small_keys
        keys = small_scheme.generate_galois_keys(secret, [1, 2])
        blob = serialize_galois_keys(keys, small_scheme.params)
        with pytest.raises(ValueError, match="body has"):
            deserialize_galois_keys(blob[:-8], small_scheme.params)


VERSION_1 = (
    r"^serialization format version 1 \(64-bit residues\) is not read by "
    r"this build \(version 3\)$"
)
VERSION_2 = (
    r"^serialization format version 2 \(natural-order Galois keys\) is not "
    r"read by this build \(version 3\)$"
)


class TestVersionSkew:
    """An int64 (version 1) blob and a version-2 blob, whose Galois keys
    were in natural slot order, are refused by name, never misread."""

    @pytest.mark.parametrize("kind", ["ciphertext", "galois_keys"])
    def test_version_2_rejected_before_the_body(
        self, small_scheme, small_keys, small_galois, rewrite_header, kind
    ):
        _, public = small_keys
        params = small_scheme.params
        if kind == "ciphertext":
            blob = serialize_ciphertext(small_scheme.encrypt_values(np.arange(8), public), params)
            decode = deserialize_ciphertext
        else:
            blob = serialize_galois_keys(small_galois, params)
            decode = deserialize_galois_keys
        old = rewrite_header(blob, lambda h: h.update(version=2))
        header_end = len(old) - (len(blob) - 8 - int.from_bytes(blob[4:8], "little"))
        for body in (old, old[:header_end]):  # whole, and with no body at all
            with pytest.raises(ValueError, match=VERSION_2):
                decode(body, params)

    def test_version_1_ciphertext_rejected(
        self, small_scheme, small_keys, version1_wire
    ):
        _, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(8), public)
        blob = version1_wire.ciphertext(ct, small_scheme.params)
        with pytest.raises(ValueError, match=VERSION_1):
            deserialize_ciphertext(blob, small_scheme.params)

    def test_version_1_galois_keys_rejected(
        self, small_scheme, small_galois, version1_wire
    ):
        blob = version1_wire.galois_keys(small_galois, small_scheme.params)
        with pytest.raises(ValueError, match=VERSION_1):
            deserialize_galois_keys(blob, small_scheme.params)

    def test_other_versions_rejected_before_the_body(
        self, small_scheme, small_keys, rewrite_header
    ):
        _, public = small_keys
        ct = serialize_ciphertext(
            small_scheme.encrypt_values([1], public), small_scheme.params
        )
        for version in (4, "3", None):
            blob = rewrite_header(ct[:-4], lambda h: h.update(version=version))
            with pytest.raises(
                ValueError, match=rf"^serialization format version {version!r} is not"
            ):
                deserialize_ciphertext(blob, small_scheme.params)


class TestMalformedHeaders:
    """A header field of the wrong type raises ValueError, whatever it is."""

    CASES = {
        "galois params not a dict": ("galois_keys", lambda h: h.update(params=[1])),
        "galois elements missing": ("galois_keys", lambda h: h.pop("elements")),
        "galois elements not a list": ("galois_keys", lambda h: h.update(elements=5)),
        "galois elements not ints": ("galois_keys", lambda h: h.update(elements=["3"])),
        "galois base_bits null": ("galois_keys", lambda h: h.update(base_bits=None)),
        "ciphertext n null": ("ciphertext", lambda h: h.update(n=None)),
        "ciphertext limbs a string": ("ciphertext", lambda h: h.update(limbs="2")),
        "ciphertext n missing": ("ciphertext", lambda h: h.pop("n")),
    }

    @staticmethod
    def blob(kind, scheme, keys):
        secret, public = keys
        if kind == "galois_keys":
            galois = scheme.generate_galois_keys(secret, [1])
            return serialize_galois_keys(galois, scheme.params)
        return serialize_ciphertext(scheme.encrypt_values([1], public), scheme.params)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_raises_value_error(self, case, small_scheme, small_keys, rewrite_header):
        kind, edit = self.CASES[case]
        blob = rewrite_header(self.blob(kind, small_scheme, small_keys), edit)
        decode = {
            "galois_keys": lambda b: deserialize_galois_keys(b, small_scheme.params),
            "ciphertext": lambda b: deserialize_ciphertext(b, small_scheme.params),
        }[kind]
        with pytest.raises(ValueError, match="header"):
            decode(blob)
