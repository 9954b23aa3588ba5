"""Serialization for parameters, plaintexts, ciphertexts, and Galois keys.

The Gazelle protocol ships ciphertexts over the network every layer; this
module provides the wire format: a small JSON header (so the peer can
validate parameter compatibility) followed by little-endian int64 residue
data.  Sizes match :func:`repro.protocol.messages.ciphertext_bytes` up to
the header.

Deserialization is strict: every header field is validated against the
local parameter set, body lengths are checked before any array is built,
and residues are range-checked against the RNS primes -- a malformed or
truncated blob raises :class:`ValueError` with a reason instead of
silently corrupting polynomials.  (Residue data is read as explicit
little-endian ``<i8``, so blobs are portable across host endianness.)
The header additionally seals the binary body with a CRC-32, so a
bit-flip *inside* an in-range residue -- which every structural check
would wave through and which would therefore decrypt to a different
polynomial -- is rejected too (the property pinned by
``tests/test_serialize_properties.py``).

A round trip through the wire format preserves ciphertexts exactly:

>>> import numpy as np
>>> from repro.bfv import BfvParameters, BfvScheme
>>> params = BfvParameters.create(
...     n=256, plain_bits=18, coeff_bits=60, a_dcmp_bits=12,
...     require_security=False,
... )
>>> scheme = BfvScheme(params, seed=0)
>>> secret, public = scheme.keygen()
>>> ct = scheme.encrypt_values(np.arange(8), public)
>>> restored = deserialize_ciphertext(serialize_ciphertext(ct, params), params)
>>> scheme.decrypt_values(restored, secret, signed=False)[:8].tolist()
[0, 1, 2, 3, 4, 5, 6, 7]

while malformed input fails loudly:

>>> deserialize_ciphertext(b"garbage", params)
Traceback (most recent call last):
    ...
ValueError: not a repro-serialized object
>>> blob = serialize_ciphertext(ct, params)
>>> deserialize_ciphertext(blob[: len(blob) // 2], params)  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
ValueError: ciphertext body has ... bytes, expected 8192
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .encoder import Plaintext
from .params import BfvParameters
from .polynomial import Domain, RnsPolynomial
from .rns import RnsBasis
from .scheme import Ciphertext

_MAGIC = b"RPRO"


def params_to_dict(params: BfvParameters) -> dict:
    """JSON-safe description sufficient to reconstruct the parameters."""
    return {
        "n": params.n,
        "plain_modulus": params.plain_modulus,
        "coeff_primes": list(params.coeff_basis.primes),
        "w_dcmp_bits": params.w_dcmp_bits,
        "a_dcmp_bits": params.a_dcmp_bits,
        "sigma": params.sigma,
    }


def params_from_dict(data: dict, require_security: bool = False) -> BfvParameters:
    """Inverse of :func:`params_to_dict`."""
    return BfvParameters(
        n=int(data["n"]),
        plain_modulus=int(data["plain_modulus"]),
        coeff_basis=RnsBasis([int(p) for p in data["coeff_primes"]]),
        w_dcmp_bits=int(data["w_dcmp_bits"]),
        a_dcmp_bits=int(data["a_dcmp_bits"]),
        sigma=float(data["sigma"]),
        require_security=require_security,
    )


def _pack(header: dict, arrays: list[np.ndarray]) -> bytes:
    body = b"".join(
        np.ascontiguousarray(array, dtype="<i8").tobytes() for array in arrays
    )
    # Seal the body: length + CRC-32 travel inside the (JSON-validated)
    # header, so any single-byte body corruption fails the checksum and
    # any truncation/extension fails the length comparison downstream.
    header = {**header, "body_bytes": len(body), "crc32": zlib.crc32(body)}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return b"".join(
        [_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, body]
    )


def _unpack(blob: bytes) -> tuple[dict, memoryview]:
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise ValueError("not a repro-serialized object")
    (header_len,) = struct.unpack_from("<I", blob, 4)
    if 8 + header_len > len(blob):
        raise ValueError(
            f"truncated blob: header claims {header_len} bytes, "
            f"{len(blob) - 8} available"
        )
    try:
        header = json.loads(blob[8 : 8 + header_len].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed serialization header: {exc}") from exc
    if not isinstance(header, dict) or "kind" not in header:
        raise ValueError("serialization header missing 'kind'")
    body = memoryview(blob)[8 + header_len :]
    declared, crc = header.get("body_bytes"), header.get("crc32")
    if not isinstance(declared, int) or not isinstance(crc, int):
        raise ValueError("serialization header missing integrity fields")
    # A size mismatch is left to the kind-specific body checks (their
    # errors name the expected size); when sizes agree, the checksum is
    # what catches in-range residue corruption.
    if len(body) == declared and zlib.crc32(body) != crc:
        raise ValueError(
            f"{header['kind']} body fails its CRC-32 (corrupted blob)"
        )
    return header, body


def _expect_kind(header: dict, kind: str) -> None:
    if header["kind"] != kind:
        raise ValueError(f"expected {kind}, got {header['kind']!r}")


def _check_body_size(body: memoryview, count: int, what: str) -> None:
    """Require the binary body to hold exactly ``count`` int64 values."""
    if len(body) != count * 8:
        raise ValueError(
            f"{what} body has {len(body)} bytes, expected {count * 8}"
        )


def _read_residues(
    body: memoryview, offset_values: int, params: BfvParameters, what: str
) -> np.ndarray:
    """Read one (limbs, n) residue stack, validating the value ranges.

    Out-of-range residues would be silently reduced by the NTT engine's
    input normalisation -- i.e. a corrupt blob would *decrypt to garbage*
    rather than fail -- so range violations are rejected here.
    """
    limbs, n = params.coeff_basis.count, params.n
    count = limbs * n
    data = np.frombuffer(
        body, dtype="<i8", count=count, offset=offset_values * 8
    ).reshape(limbs, n)
    if (data < 0).any() or (data >= params.coeff_basis.primes_column).any():
        raise ValueError(f"{what} contains residues outside [0, p_i)")
    return data.astype(np.int64, copy=True)


def _header_matches_params(header: dict, params: BfvParameters, what: str) -> None:
    if header.get("params", {}).get("coeff_primes") != list(params.coeff_basis.primes):
        raise ValueError(f"{what} was produced under different parameters")
    if int(header.get("n", -1)) != params.n:
        raise ValueError(
            f"{what} header n={header.get('n')} does not match params n={params.n}"
        )
    if int(header.get("limbs", -1)) != params.coeff_basis.count:
        raise ValueError(
            f"{what} header limbs={header.get('limbs')} does not match "
            f"params limbs={params.coeff_basis.count}"
        )


def serialize_plaintext(plaintext: Plaintext) -> bytes:
    header = {"kind": "plaintext", "n": int(plaintext.coeffs.shape[0])}
    return _pack(header, [plaintext.coeffs])


def deserialize_plaintext(blob: bytes) -> Plaintext:
    header, body = _unpack(blob)
    _expect_kind(header, "plaintext")
    n = int(header["n"])
    if n <= 0:
        raise ValueError(f"plaintext header has invalid n={n}")
    _check_body_size(body, n, "plaintext")
    coeffs = np.frombuffer(body, dtype="<i8", count=n)
    return Plaintext(coeffs.copy())


def serialize_ciphertext(ct: Ciphertext, params: BfvParameters) -> bytes:
    header = {
        "kind": "ciphertext",
        "n": params.n,
        "limbs": params.coeff_basis.count,
        "params": params_to_dict(params),
    }
    return _pack(header, [ct.c0.data, ct.c1.data])


def deserialize_ciphertext(blob: bytes, params: BfvParameters) -> Ciphertext:
    header, body = _unpack(blob)
    _expect_kind(header, "ciphertext")
    _header_matches_params(header, params, "ciphertext")
    count = params.coeff_basis.count * params.n
    _check_body_size(body, 2 * count, "ciphertext")
    c0 = _read_residues(body, 0, params, "ciphertext c0")
    c1 = _read_residues(body, count, params, "ciphertext c1")
    return Ciphertext(
        RnsPolynomial(params.coeff_basis, c0, Domain.EVAL),
        RnsPolynomial(params.coeff_basis, c1, Domain.EVAL),
    )


def ciphertext_wire_bytes(params: BfvParameters) -> int:
    """Exact serialized ciphertext size (data only, excluding header)."""
    return 2 * params.coeff_basis.count * params.n * 8


def serialize_galois_keys(keys, params: BfvParameters) -> bytes:
    """Serialize Galois keys (the client ships these to the cloud once)."""
    from .keys import GaloisKeys

    if not isinstance(keys, GaloisKeys):
        raise TypeError("expected GaloisKeys")
    elements = sorted(keys.keys)
    header = {
        "kind": "galois_keys",
        "n": params.n,
        "limbs": params.coeff_basis.count,
        "elements": elements,
        "pairs_per_key": params.l_ct,
        "base_bits": params.a_dcmp_bits,
        "params": params_to_dict(params),
    }
    arrays = []
    for element in elements:
        stack = keys.keys[element].stack
        if stack.shape[2] != params.l_ct:
            raise ValueError(
                f"key for element {element} has {stack.shape[2]} pairs, "
                f"expected l_ct={params.l_ct}"
            )
        # (2, k, l_ct, n) -> pair-major (body, a) polynomials, widened to <i8.
        arrays.append(stack.transpose(2, 0, 1, 3))
    return _pack(header, arrays)


def deserialize_galois_keys(blob: bytes, params: BfvParameters):
    from .keys import GaloisKeys, KeySwitchKey

    header, body = _unpack(blob)
    _expect_kind(header, "galois_keys")
    _header_matches_params(header, params, "galois keys")
    if int(header.get("base_bits", -1)) != params.a_dcmp_bits:
        raise ValueError(
            f"galois keys use decomposition base 2^{header.get('base_bits')}, "
            f"params expect 2^{params.a_dcmp_bits}"
        )
    pairs_per_key = int(header.get("pairs_per_key", 0))
    if pairs_per_key != params.l_ct:
        raise ValueError(
            f"galois keys carry {pairs_per_key} pairs per key, "
            f"params expect l_ct={params.l_ct}"
        )
    elements = [int(element) for element in header["elements"]]
    two_n = 2 * params.n
    for element in elements:
        if not (0 < element < two_n) or element % 2 == 0:
            raise ValueError(f"invalid Galois element {element} (n={params.n})")
    basis, n = params.coeff_basis, params.n
    _check_body_size(
        body, len(elements) * pairs_per_key * 2 * basis.count * n, "galois keys"
    )
    data = np.frombuffer(body, dtype="<i8").reshape(
        len(elements), pairs_per_key, 2, basis.count, n
    )
    # One range pass over the whole body (a negative residue reads as a
    # huge unsigned one); the polynomial-by-polynomial scan only runs to
    # name the first offender.
    top = data.view("<u8").reshape(-1, basis.count, n).max(axis=(0, 2), initial=0)
    if (top >= np.array(basis.primes, dtype=np.uint64)).any():
        bad = ((data < 0) | (data >= basis.primes_column)).any(axis=(3, 4))
        element, _, half = np.argwhere(bad)[0]
        raise ValueError(
            f"galois key {elements[element]} {('body', 'a')[half]} contains "
            "residues outside [0, p_i)"
        )
    # Narrow straight into each key's (2, k, l_ct, n) uint32 stack.
    stacks = data.transpose(0, 2, 3, 1, 4).astype(np.uint32, order="C")
    keys = GaloisKeys()
    for element, stack in zip(elements, stacks):
        keys.keys[element] = KeySwitchKey(stack, header["base_bits"], basis)
    return keys
