"""The ``.rpa`` container: versioned, integrity-hashed, memmap-friendly.

A repro artifact is one file holding a small JSON header plus raw
little-endian int64 array sections, laid out so the sections can be
``np.memmap``'d read-only straight off disk:

.. code-block:: text

    b"RPAF" | u32 version | 32-byte header SHA-256 | u32 header length |
    header JSON | zero pad | section 0 | zero pad | section 1 | ...

* The **header** records, per section, a name, an offset *relative to the
  data area*, a shape, a dtype, and a SHA-256 digest.  Keeping offsets
  relative means the header's own length never feeds back into the
  offsets it describes (no fixed-point layout pass).
* The **data area** starts at the first :data:`SECTION_ALIGN` boundary
  after the header and every section offset is :data:`SECTION_ALIGN`
  aligned, so each mapped array is page-aligned: ``N`` server processes
  mapping one artifact share its weight pages through the OS page cache
  instead of each holding a private copy.
* **Integrity is checked before anything is trusted**: the magic and
  version gate parsing, a SHA-256 digest covers the header bytes, and
  each section carries both a CRC-32 checksum and a SHA-256 digest.  The
  default load verifies every section's CRC-32 (the kernel's carry-less
  ``crc32_bytes``, ~4 GB/s through zlib without it -- catches truncation
  and bit flips without giving back the warm start it exists for); ``verify="full"`` additionally checks the SHA-256 digests for
  audit-grade verification.  A truncated, bit-flipped, or version-skewed
  file raises :class:`ArtifactError` with a specific reason instead of
  handing corrupt residues to the NTT engine.

This extends the :mod:`repro.bfv.serialize` conventions (JSON header +
validated little-endian int64 bodies) to file scale; the wire format
stays copy-based because ciphertexts are transient, while artifacts are
long-lived and read-shared.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from ..bfv.serialize import crc32, header_field

MAGIC = b"RPAF"

#: Bump on any incompatible layout or header-schema change.
FORMAT_VERSION = 1

#: Section (and data-area) alignment; one page on every deployment target.
SECTION_ALIGN = 4096

_PREFIX = struct.Struct("<4sI32sI")  # magic, version, header sha256, header len


class ArtifactError(ValueError):
    """A malformed, corrupted, or incompatible artifact file."""


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN


def write_container(path, header: dict, arrays: dict[str, np.ndarray]) -> int:
    """Write ``arrays`` plus a described ``header`` as one ``.rpa`` file.

    ``header`` must be JSON-safe; the section table and format version are
    added here.  Returns the total file size in bytes.
    """
    sections = []
    payload: list[np.ndarray] = []
    rel = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array, dtype="<i8")
        sections.append(
            {
                "name": str(name),
                "offset": rel,
                "shape": [int(dim) for dim in array.shape],
                "dtype": "<i8",
                "crc32": crc32(array),
                "sha256": hashlib.sha256(array).hexdigest(),
            }
        )
        payload.append(array)
        rel = _align(rel + array.nbytes)

    full_header = dict(header)
    full_header["format_version"] = FORMAT_VERSION
    full_header["sections"] = sections
    header_bytes = json.dumps(full_header, sort_keys=True).encode()
    data_start = _align(_PREFIX.size + len(header_bytes))

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write to a sibling temp file and rename into place: recompiling an
    # artifact that live servers have memmapped must not truncate the
    # inode under them (SIGBUS on their next page fault), and a crash
    # mid-write must not leave a corrupt file at the final path.
    tmp_path = path.with_name(path.name + ".tmp")
    try:
        with open(tmp_path, "wb") as handle:
            handle.write(
                _PREFIX.pack(
                    MAGIC,
                    FORMAT_VERSION,
                    hashlib.sha256(header_bytes).digest(),
                    len(header_bytes),
                )
            )
            handle.write(header_bytes)
            handle.write(b"\0" * (data_start - _PREFIX.size - len(header_bytes)))
            position = 0
            for section, array in zip(sections, payload):
                handle.write(b"\0" * (section["offset"] - position))
                # tofile streams the buffer directly -- no tobytes() copy
                # of a potentially large weight section.
                array.tofile(handle)
                position = section["offset"] + array.nbytes
            size = handle.tell()
        os.replace(tmp_path, path)
    except BaseException:
        tmp_path.unlink(missing_ok=True)
        raise
    return size


def read_container(
    path, verify: bool | str = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Map an ``.rpa`` file; return ``(header, name -> int64 array view)``.

    The returned arrays are read-only views over one shared ``np.memmap``
    -- nothing is copied and no transform runs.  ``verify`` selects the
    integrity level:

    ``True`` (default)
        Check every section's CRC-32 -- catches truncation and bit flips
        at memory speed, preserving the warm-start win.
    ``"full"``
        Additionally check every section's SHA-256 digest (audit-grade).
    ``False``
        Trust the file; only the header digest and section bounds are
        checked.  For hot restart loops on files this process just wrote.
        It skips the CRC-32 and SHA-256 passes here, and with them
        :func:`~repro.artifacts.store.load_artifact`'s range check of the
        weight residues against their limbs' moduli.

    Any other value raises -- a typo like ``verify="FULL"`` must not
    silently degrade to a weaker check than the caller asked for.
    """
    if verify not in (True, False, "full"):
        raise ValueError(
            f"verify must be True, False, or 'full', got {verify!r}"
        )
    path = Path(path)
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise ArtifactError(f"cannot read artifact {path}: {exc}") from exc
    if size < _PREFIX.size:
        raise ArtifactError(
            f"{path.name}: {size} bytes is too short for an artifact prefix"
        )
    with open(path, "rb") as handle:
        prefix = handle.read(_PREFIX.size)
    magic, version, header_digest, header_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise ArtifactError(f"{path.name}: not a repro model artifact")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path.name}: artifact format version {version}, "
            f"this build reads version {FORMAT_VERSION}"
        )
    if _PREFIX.size + header_len > size:
        raise ArtifactError(
            f"{path.name}: truncated artifact (header claims {header_len} "
            f"bytes, {size - _PREFIX.size} available)"
        )

    mapped = np.memmap(path, dtype=np.uint8, mode="r")
    header_view = mapped[_PREFIX.size : _PREFIX.size + header_len]
    if hashlib.sha256(header_view).digest() != header_digest:
        raise ArtifactError(f"{path.name}: artifact header corrupted")
    try:
        header = json.loads(bytes(header_view).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path.name}: malformed artifact header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("sections"), list):
        raise ArtifactError(f"{path.name}: artifact header missing section table")

    data_start = _align(_PREFIX.size + header_len)
    arrays: dict[str, np.ndarray] = {}
    for index, section in enumerate(header["sections"]):
        label = f"section {index}"
        try:
            if not isinstance(section, dict):
                raise ValueError(f"{label} is not an object")
            name = str(section.get("name", index))
            label = f"section {name!r}"
            shape = header_field(section, "shape", list, label)
            offset = header_field(section, "offset", int, label)
            crc = header_field(section, "crc32", int, label) if verify else None
            if min(shape, default=0) < 0:
                raise ValueError(f"{label} has a negative dimension in {shape}")
        except ValueError as exc:
            raise ArtifactError(f"{path.name}: {exc}") from exc
        if section.get("dtype") != "<i8":
            raise ArtifactError(
                f"{path.name}: section {name!r} has unsupported dtype "
                f"{section.get('dtype')!r}"
            )
        count = math.prod(shape)
        start = data_start + offset
        end = start + count * 8
        if offset % 8 or start < data_start or end > size:
            raise ArtifactError(
                f"{path.name}: truncated artifact (section {name!r} spans "
                f"bytes {start}..{end} of a {size}-byte file)"
            )
        view = mapped[start:end]
        if verify:
            if crc32(view) != crc:
                raise ArtifactError(
                    f"{path.name}: section {name!r} corrupted (CRC-32 mismatch)"
                )
            if verify == "full" and (
                hashlib.sha256(view).hexdigest() != section.get("sha256")
            ):
                raise ArtifactError(
                    f"{path.name}: section {name!r} corrupted (SHA-256 mismatch)"
                )
        arrays[name] = view.view("<i8").reshape(shape)
    return header, arrays
