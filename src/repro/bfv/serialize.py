"""Serialization for parameters, ciphertexts, and Galois keys.

The Gazelle protocol ships ciphertexts over the network every layer; this
module provides the wire format: a small JSON header (so the peer can
validate parameter compatibility) followed by little-endian ``<u4``
words.  Every limb modulus is below 2^30, so a ciphertext is exactly
``2 * k * n * 4`` bytes plus the header; Galois keys go out as their
resident ``(2, k, l_ct, n)`` ``uint32`` stacks, in the digits' slot order
and elements strictly ascending.  The encoder rejects a value outside
``[0, 2^32)`` instead of wrapping it.

Every header carries ``"version": 3``; any other (1: the int64 format,
which had no field; 2: Galois keys in natural slot order) is rejected by
name before the body is read.  Deserialization is strict: header fields
are type-checked and validated against the local parameters, body lengths
are checked before any array is built, and residues are range-checked
against the RNS primes -- a malformed blob raises :class:`ValueError`
with a reason instead of silently corrupting polynomials.  The header
also seals the body with a CRC-32, so a bit-flip *inside* an in-range
residue -- which would decrypt to a different polynomial -- is rejected
too (the property pinned by ``tests/test_serialize_properties.py``).

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
ValueError: ciphertext body has ... bytes, expected 4096
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from .params import BfvParameters
from .polynomial import Domain, RnsPolynomial
from .rns import RnsBasis
from .scheme import Ciphertext

_MAGIC = b"RPRO"
_VERSION = 3
_OLD_VERSIONS = {1: " (64-bit residues)", 2: " (natural-order Galois keys)"}
_WORD = np.dtype("<u4")
_TYPES = {int: "an int", list: "a list of ints", dict: "an object"}


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
    for array in arrays:  # uint32 fits by type; a negative int64 reads as a huge uint64
        if array.dtype != _WORD and np.asarray(array, np.int64).view(np.uint64).max() >> 32:
            raise ValueError(f"{header['kind']} holds values outside [0, 2^32)")
    body = [np.ascontiguousarray(array, dtype=_WORD) for array in arrays]
    crc = 0
    for words in body:  # the arrays' buffers, so the blob is the one copy
        crc = zlib.crc32(words, crc)
    # Seal the body: length + CRC-32 travel inside the (JSON-validated)
    # header, so any single-byte body corruption fails the checksum and
    # any truncation/extension fails the length comparison downstream.
    header = {**header, "version": _VERSION,
              "body_bytes": sum(words.nbytes for words in body), "crc32": crc}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return b"".join(
        [_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes, *body]
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
    version = header.get("version", 1)
    if version != _VERSION:
        name = _OLD_VERSIONS.get(version, "") if type(version) is int else ""
        raise ValueError(
            f"serialization format version {version!r}{name} is not read "
            f"by this build (version {_VERSION})"
        )
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


def header_field(header: dict, name: str, kind: type = int, what: str = ""):
    """``header[name]`` if it is a ``kind`` (an int, a list of ints or a
    dict); anything else, or nothing, raises :class:`ValueError` naming
    ``what`` (default: the header's kind).  Wire frames and ``.rpa``
    section tables are read with it too."""
    value = header.get(name)
    items = value if isinstance(value, list) else [value]
    if not isinstance(value, kind) or (
        kind is not dict and not all(isinstance(item, int) for item in items)
    ):
        raise ValueError(
            f"{what or header['kind']} header {name!r} is not {_TYPES[kind]}"
        )
    return value


def _expect_kind(header: dict, kind: str) -> None:
    if header["kind"] != kind:
        raise ValueError(f"expected {kind}, got {header['kind']!r}")


def _check_body_size(body: memoryview, count: int, what: str) -> None:
    """Require the binary body to hold exactly ``count`` ``<u4`` words."""
    if len(body) != count * 4:
        raise ValueError(
            f"{what} body has {len(body)} bytes, expected {count * 4}"
        )


def _read_residues(body: memoryview, basis: RnsBasis, width: int, name) -> np.ndarray:
    """The body as a ``(halves, k, width)`` word view, every residue below p_i.

    The NTT engine would silently reduce an out-of-range residue -- a
    corrupt blob would *decrypt to garbage* -- so one max per limb rejects
    it; the per-half scan only runs to ``name`` the first offender.
    """
    data = np.frombuffer(body, dtype=_WORD).reshape(-1, basis.count, width)
    if (data.max(axis=(0, 2), initial=0) >= basis.primes_column[:, 0]).any():
        bad = (data >= basis.primes_column).any(axis=(1, 2))
        raise ValueError(
            f"{name(int(np.argmax(bad)))} contains residues outside [0, p_i)"
        )
    return data


def _header_matches_params(header: dict, params: BfvParameters, what: str) -> None:
    if header_field(header, "params", dict).get("coeff_primes") != list(params.coeff_basis.primes):
        raise ValueError(f"{what} was produced under different parameters")
    for name, value in (("n", params.n), ("limbs", params.coeff_basis.count)):
        if header_field(header, name) != value:
            raise ValueError(
                f"{what} header {name}={header[name]} does not match "
                f"params {name}={value}"
            )


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
    basis = params.coeff_basis
    _check_body_size(body, 2 * basis.count * params.n, "ciphertext")
    c0, c1 = _read_residues(body, basis, params.n, lambda half: f"ciphertext c{half}")
    return Ciphertext(
        RnsPolynomial(basis, c0.astype(np.int64), Domain.EVAL),
        RnsPolynomial(basis, c1.astype(np.int64), Domain.EVAL),
    )


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
    stacks = [keys.keys[element].stack for element in elements]
    if any(stack.shape[2] != params.l_ct for stack in stacks):
        raise ValueError(f"every key must carry l_ct={params.l_ct} pairs")
    return _pack(header, stacks)


def deserialize_galois_keys(blob: bytes, params: BfvParameters):
    from .keys import GaloisKeys, KeySwitchKey

    header, body = _unpack(blob)
    _expect_kind(header, "galois_keys")
    _header_matches_params(header, params, "galois keys")
    if header_field(header, "base_bits") != params.a_dcmp_bits:
        raise ValueError(
            f"galois keys use decomposition base 2^{header['base_bits']}, "
            f"params expect 2^{params.a_dcmp_bits}"
        )
    pairs_per_key = header_field(header, "pairs_per_key")
    if pairs_per_key != params.l_ct:
        raise ValueError(
            f"galois keys carry {pairs_per_key} pairs per key, "
            f"params expect l_ct={params.l_ct}"
        )
    elements = header_field(header, "elements", list)
    for before, element in zip([0] + elements, elements):
        if not (0 < element < 2 * params.n) or element % 2 == 0:
            raise ValueError(f"invalid Galois element {element} (n={params.n})")
        if element <= before:  # a repeat would bind the element to another body
            raise ValueError(f"Galois element {element} is out of ascending order")
    basis, n = params.coeff_basis, params.n
    _check_body_size(
        body, len(elements) * pairs_per_key * 2 * basis.count * n, "galois keys"
    )
    # Each key's (2, k, l_ct, n) stack as it sits on the wire: one range
    # pass over the whole body, one copy out of the blob.
    data = _read_residues(
        body, basis, pairs_per_key * n,
        lambda half: f"galois key {elements[half // 2]} {('body', 'a')[half % 2]}",
    )
    stacks = data.reshape(len(elements), 2, basis.count, pairs_per_key, n).copy()
    keys = GaloisKeys()
    for element, stack in zip(elements, stacks):
        keys.keys[element] = KeySwitchKey(stack, params.a_dcmp_bits, element, basis)
    return keys
