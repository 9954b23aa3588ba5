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

With the compiled kernel loaded, a blob's body is one kernel pass: the
range check, the word narrowing or widening and the CRC-32 (folded with
carry-less multiplies), a cache-sized block at a time.  A ciphertext
header is written from a per-parameter template with the CRC's digits
filled in; decode validates every header as the reference does, and any
failure reruns the numpy/zlib reference below, so the bytes, the decoded
stacks and the error messages are the same on both.

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
import sys
import zlib
from functools import lru_cache

import numpy as np

from . import native
from .native import address
from .params import BfvParameters
from .polynomial import Domain, RnsPolynomial
from .rns import RnsBasis
from .scheme import Ciphertext

_MAGIC = b"RPRO"
_LEN = struct.Struct("<I")
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


def crc32(data, value: int = 0) -> int:
    """``zlib.crc32(data, value)`` of a bytes object or a C-contiguous array,
    folded by the kernel's ``crc32_bytes`` when it loaded (``.rpa`` sections
    and the bodies ``_pack`` frames)."""
    kernel = native.load_kernel()
    if kernel is None:
        return zlib.crc32(data, value)
    if isinstance(data, np.ndarray):
        return kernel.crc32_bytes(address(data), data.nbytes, value)
    return kernel.crc32_bytes(data, len(data), value)


class _Frame:
    """One parameter set's codec on the kernel.

    ``head`` and ``tail`` are ``serialize_ciphertext``'s header as
    ``json.dumps(..., sort_keys=True)`` writes it, split around the value
    of ``"crc32"``, so a header is the two with the CRC's digits between.
    ``pack`` / ``unpack`` are the kernel's ``rns_pack`` / ``rns_unpack``,
    taken once so no blob takes the loader's lock; None without the
    kernel, when the references run.
    """

    def __init__(self, params: BfvParameters, kernel):
        basis = params.coeff_basis
        self.shape = (basis.count, params.n)
        self.count = basis.count * params.n
        header = {**_ciphertext_header(params), "version": _VERSION,
                  "body_bytes": 2 * self.count * 4, "crc32": -1}
        head, self.tail = json.dumps(header, sort_keys=True).encode().split(b'"crc32": -1')
        self.head = head + b'"crc32": '
        self.primes = np.array(basis.primes, dtype=np.uint64)
        self.p_ptr = address(self.primes)
        native_words = kernel is not None and sys.byteorder == "little"  # the body is <u4
        self.pack, self.unpack = (kernel.rns_pack, kernel.rns_unpack) if native_words else (None, None)

    def packable(self, data: np.ndarray) -> bool:
        return data.dtype == np.int64 and data.shape == self.shape and data.flags.c_contiguous

    def blob(self, crc: int, body: np.ndarray) -> bytes:
        digits = b"%d" % crc
        header_len = len(self.head) + len(digits) + len(self.tail)
        return b"".join((_MAGIC, _LEN.pack(header_len), self.head, digits, self.tail, body))

    def read_body(self, out: np.ndarray, blob: bytes, body: memoryview, header: dict) -> None:
        """``out``, ``(halves, k, width)``, filled from the body by rns_unpack
        (the range check, the copy and the CRC in one pass); a bare ValueError
        when a residue is out of range (its -1) or the CRC is not the header's."""
        crc = self.unpack(address(out), blob, len(blob) - len(body), out.shape[0],
                          self.p_ptr, self.shape[0], out.shape[2], out.dtype == np.int64)
        if crc < 0 or crc != header["crc32"]:
            raise ValueError(f"{header['kind']} body fails its CRC-32 or range check")


@lru_cache(maxsize=64)
def _frame(params: BfvParameters) -> _Frame:
    return _Frame(params, native.load_kernel())


def _pack(header: dict, arrays: list[np.ndarray]) -> bytes:
    for array in arrays:  # uint32 fits by type; a negative int64 reads as a huge uint64
        if array.dtype != _WORD and np.asarray(array, np.int64).view(np.uint64).max() >> 32:
            raise ValueError(f"{header['kind']} holds values outside [0, 2^32)")
    body = [np.ascontiguousarray(array, dtype=_WORD) for array in arrays]
    crc = 0
    for words in body:  # the arrays' buffers, so the blob is the one copy
        crc = crc32(words, crc)
    # Seal the body: length + CRC-32 travel inside the (JSON-validated)
    # header, so any single-byte body corruption fails the checksum and
    # any truncation/extension fails the length comparison downstream.
    header = {**header, "version": _VERSION,
              "body_bytes": sum(words.nbytes for words in body), "crc32": crc}
    header_bytes = json.dumps(header, sort_keys=True).encode()
    return b"".join([_MAGIC, _LEN.pack(len(header_bytes)), header_bytes, *body])


def _unpack(blob: bytes, verify: bool = True) -> tuple[dict, memoryview]:
    """Header and body of a blob; ``verify=False`` leaves the CRC to the caller."""
    if len(blob) < 8 or blob[:4] != _MAGIC:
        raise ValueError("not a repro-serialized object")
    (header_len,) = _LEN.unpack_from(blob, 4)
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
    # errors name the expected size, and they refuse a declared size that
    # is not the body's); when sizes agree, the checksum is what catches
    # in-range residue corruption.
    if verify and len(body) == declared and zlib.crc32(body) != crc:
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


def _check_body_size(body: memoryview, count: int, what: str, header: dict) -> None:
    """Require the binary body to hold exactly ``count`` ``<u4`` words, as
    the header's ``body_bytes`` says: ``_unpack`` checks the CRC only of a
    body of the declared size."""
    if len(body) != count * 4:
        raise ValueError(
            f"{what} body has {len(body)} bytes, expected {count * 4}"
        )
    if header["body_bytes"] != len(body):
        raise ValueError(
            f"{what} header body_bytes={header['body_bytes']} does not match "
            f"its {len(body)}-byte body"
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


def _ciphertext_header(params: BfvParameters) -> dict:
    return {
        "kind": "ciphertext",
        "n": params.n,
        "limbs": params.coeff_basis.count,
        "params": params_to_dict(params),
    }


def serialize_ciphertext(ct: Ciphertext, params: BfvParameters) -> bytes:
    frame = _frame(params)
    c0, c1 = ct.c0.data, ct.c1.data
    if frame.pack is not None and frame.packable(c0) and frame.packable(c1):
        # rns_pack: the range check, the narrowing and the CRC in one pass
        body = np.empty(2 * frame.count, np.uint32)
        out = address(body)
        crc = frame.pack(out, address(c0), frame.count, 0)
        if crc >= 0:
            crc = frame.pack(out + 4 * frame.count, address(c1), frame.count, crc)
        if crc >= 0:
            return frame.blob(crc, body)
    return _pack(_ciphertext_header(params), [c0, c1])


def deserialize_ciphertext(blob: bytes, params: BfvParameters) -> Ciphertext:
    return _decode(_ciphertext, blob, params)


def _decode(read, blob: bytes, params: BfvParameters):
    """``read(blob, params, frame)`` on the kernel codec, and on the reference
    (frame None) without the kernel or when it fails, to name the failure."""
    frame = _frame(params)
    if frame.unpack is not None and type(blob) is bytes:
        try:
            return read(blob, params, frame)
        except ValueError:
            pass
    return read(blob, params, None)


def _ciphertext(blob: bytes, params: BfvParameters, frame: _Frame | None) -> Ciphertext:
    header, body = _unpack(blob, verify=frame is None)
    _expect_kind(header, "ciphertext")
    _header_matches_params(header, params, "ciphertext")
    basis = params.coeff_basis
    _check_body_size(body, 2 * basis.count * params.n, "ciphertext", header)
    if frame is None:
        words = _read_residues(body, basis, params.n, lambda half: f"ciphertext c{half}")
        c0, c1 = words.astype(np.int64)
    else:
        c0, c1 = out = np.empty((2, *frame.shape), np.int64)
        frame.read_body(out, blob, body, header)
    return Ciphertext(RnsPolynomial(basis, c0, Domain.EVAL), RnsPolynomial(basis, c1, Domain.EVAL))


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
    return _decode(_galois_keys, blob, params)


def _galois_keys(blob: bytes, params: BfvParameters, frame: _Frame | None):
    from .keys import GaloisKeys, KeySwitchKey

    header, body = _unpack(blob, verify=frame is None)
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
        body, len(elements) * pairs_per_key * 2 * basis.count * n, "galois keys", header
    )
    # Each key's (2, k, l_ct, n) stack as it sits on the wire: one range
    # pass over the whole body, one copy out of the blob.
    shape = (len(elements), 2, basis.count, pairs_per_key, n)
    if frame is None:
        stacks = _read_residues(
            body, basis, pairs_per_key * n,
            lambda half: f"galois key {elements[half // 2]} {('body', 'a')[half % 2]}",
        ).reshape(shape).copy()
    else:
        stacks = np.empty(shape, np.uint32)
        frame.read_body(stacks.reshape(2 * len(elements), basis.count, pairs_per_key * n),
                        blob, body, header)
    keys = GaloisKeys()
    for element, stack in zip(elements, stacks):
        keys.keys[element] = KeySwitchKey(stack, params.a_dcmp_bits, element, basis)
    return keys
