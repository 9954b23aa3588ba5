"""Zero-copy shared-memory ring for shard-channel ciphertext slabs.

The queue-backed shard channel pickles every ``(k, B, n)`` int64
residue stack through a ``multiprocessing.Queue`` pair -- on the demo
deployment that serialization dominates the sharded path's cost
(``shards.pickled_bytes_per_task`` in ``benchmarks/e2e``).  This module
removes the bulk payload from
the pickled path: each worker channel gets a :class:`ShmRing`, a
fixed-capacity single-producer/single-consumer byte ring over
``multiprocessing.shared_memory``, and ciphertext slabs are written
into it as raw page-aligned bytes.  Only a small control frame (the
usual :mod:`repro.serving.wire` message, its blobs replaced by a
:data:`~repro.serving.wire.SLAB_META_KEY` descriptor carrying the ring
offset, byte count, and CRC) still crosses the queue.

Ring layout (one shared-memory segment)::

    offset 0      u64 write_pos   free-running byte counter (producer-owned)
    offset 64     u64 read_pos    free-running byte counter (consumer-owned)
    offset 4096   data area       ``capacity`` bytes, ring-addressed

Records in the data area are 8-byte aligned so int64 residue slabs land
aligned, and each is sealed twice::

    u32 magic "RGR1" | u32 length | u32 crc32(payload) | u32 crc32(header)
    payload ... | zero padding to a multiple of 8

``write_pos``/``read_pos`` are monotonic byte counters (``index = pos %
capacity``), so *full* (``write - read + record > capacity``) and
*empty* (``write == read``) are unambiguous even across wraparound.
The producer publishes a record by advancing ``write_pos`` only after
the full record is written; the consumer advances ``read_pos`` only
after the record validated.  A consumer that observes a record whose
header CRC, magic, length, or payload CRC does not hold raises
:class:`RingCorruption` *without* advancing -- a half-written record
left by a SIGKILLed producer can therefore never be mis-read as data,
which is what lets the shard supervisor treat rings like queues: a dead
incarnation's rings are discarded wholesale and fresh ones are built
for the respawn.

Fairness/robustness properties (pinned by ``tests/test_shm_ring.py``):
FIFO order is exact, wraparound is invisible to payload content,
full/empty boundaries raise at once (:class:`RingFull` /
:class:`RingEmpty`) but never tear, and every single-byte corruption of
a sealed record is rejected.
"""

from __future__ import annotations

import struct
import zlib
from multiprocessing import shared_memory

from .wire import (
    SLAB_META_KEY,
    Message,
    decode_message,
    encode_message,
    slab_descriptor,
    split_slab,
)

#: The data area starts one page in, so int64 slabs are page-disjoint
#: from the position words (and never share a cache line with them).
DATA_OFFSET = 4096

_WRITE_POS = 0
_READ_POS = 64
_POS = struct.Struct("<Q")
#: Record header: magic, payload length, payload CRC-32, header CRC-32
#: (over the first three fields).
_RECORD = struct.Struct("<IIII")
_MAGIC = 0x31524752  # b"RGR1", little-endian


class RingError(RuntimeError):
    """Base class for ring-protocol failures."""


class RingFull(RingError):
    """No room for the record."""


class RingEmpty(RingError):
    """No published record."""


class RingCorruption(RingError):
    """A record failed validation (header CRC, magic, length, or payload
    CRC); ``read_pos`` is left untouched so the damage is inspectable."""


class SlabTooLarge(RingError):
    """The payload cannot fit the ring even when empty."""


def _align8(count: int) -> int:
    return (count + 7) & ~7


class ShmRing:
    """A CRC-sealed SPSC byte ring over one shared-memory segment.

    One process pushes, one process pops (the shard fabric gives every
    worker channel its own pair of rings, so the constraint is free).
    ``push``/``pop`` never wait: the control frame on the mp queue is the
    wakeup, and the slab is always pushed before the frame is sent, so a
    consumer holding a frame finds its record already published.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool):
        self._shm = shm
        self._owner = owner
        self.capacity = shm.size - DATA_OFFSET

    @classmethod
    def create(cls, capacity: int) -> "ShmRing":
        """Allocate a fresh ring with at least ``capacity`` data bytes."""
        capacity = max(int(capacity), DATA_OFFSET)
        capacity = (capacity + DATA_OFFSET - 1) // DATA_OFFSET * DATA_OFFSET
        shm = shared_memory.SharedMemory(
            create=True, size=DATA_OFFSET + capacity
        )
        # Fresh segments are zero-filled, so both positions start at 0.
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        """Map an existing ring by name (spawn-context workers)."""
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    def __reduce__(self):
        # Spawn-context Process args are pickled; the child re-attaches
        # by name (fork-context children just inherit the mapping).
        return (ShmRing.attach, (self.name,))

    @property
    def name(self) -> str:
        return self._shm.name

    # -- position words ------------------------------------------------------

    def _load(self, offset: int) -> int:
        return _POS.unpack_from(self._shm.buf, offset)[0]

    def _store(self, offset: int, value: int) -> None:
        _POS.pack_into(self._shm.buf, offset, value)

    def used_bytes(self) -> int:
        return self._load(_WRITE_POS) - self._load(_READ_POS)

    # -- ring-addressed byte I/O --------------------------------------------

    def _write(self, index: int, data: bytes) -> None:
        buf = self._shm.buf
        end = index + len(data)
        if end <= self.capacity:
            buf[DATA_OFFSET + index : DATA_OFFSET + end] = data
        else:
            first = self.capacity - index
            buf[DATA_OFFSET + index : DATA_OFFSET + self.capacity] = data[:first]
            buf[DATA_OFFSET : DATA_OFFSET + end - self.capacity] = data[first:]

    def _read(self, index: int, count: int) -> bytes:
        buf = self._shm.buf
        end = index + count
        if end <= self.capacity:
            return bytes(buf[DATA_OFFSET + index : DATA_OFFSET + end])
        first = self.capacity - index
        return bytes(buf[DATA_OFFSET + index : DATA_OFFSET + self.capacity]) + bytes(
            buf[DATA_OFFSET : DATA_OFFSET + end - self.capacity]
        )

    # -- the protocol --------------------------------------------------------

    def record_bytes(self, payload_len: int) -> int:
        """Ring bytes one record of ``payload_len`` payload bytes occupies."""
        return _RECORD.size + _align8(int(payload_len))

    def push(self, payload: bytes) -> int:
        """Seal and publish one record; returns its data-area offset.

        Raises :class:`SlabTooLarge` if the payload can never fit and
        :class:`RingFull` if it does not fit now.
        """
        record = self.record_bytes(len(payload))
        if record > self.capacity:
            raise SlabTooLarge(
                f"record of {record} bytes exceeds ring capacity "
                f"{self.capacity}"
            )
        write = self._load(_WRITE_POS)
        free = self.capacity - (write - self._load(_READ_POS))
        if free < record:
            raise RingFull(f"no room for {record} bytes ({free} free)")
        offset = write % self.capacity
        payload_crc = zlib.crc32(payload) & 0xFFFFFFFF
        head = struct.pack("<III", _MAGIC, len(payload), payload_crc)
        header = head + struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF)
        self._write(offset, header)
        self._write((offset + _RECORD.size) % self.capacity, payload)
        # Publish only after the whole record is in place: a consumer
        # never sees a partially written record as available bytes.
        self._store(_WRITE_POS, write + record)
        return offset

    def pop(self) -> tuple[int, bytes]:
        """Validate and consume the oldest record -> ``(offset, payload)``.

        Raises :class:`RingEmpty` when no record is published and
        :class:`RingCorruption` (without advancing ``read_pos``) when the
        record fails any check.
        """
        write = self._load(_WRITE_POS)
        read = self._load(_READ_POS)
        if write <= read:
            raise RingEmpty("no published record")
        offset = read % self.capacity
        header = self._read(offset, _RECORD.size)
        magic, length, payload_crc, header_crc = _RECORD.unpack(header)
        if (zlib.crc32(header[:12]) & 0xFFFFFFFF) != header_crc:
            raise RingCorruption("record header CRC mismatch")
        if magic != _MAGIC:
            raise RingCorruption(f"bad record magic 0x{magic:08x}")
        record = self.record_bytes(length)
        if length > self.capacity - _RECORD.size or write - read < record:
            raise RingCorruption(
                f"record length {length} exceeds published bytes"
            )
        payload = self._read((offset + _RECORD.size) % self.capacity, length)
        if (zlib.crc32(payload) & 0xFFFFFFFF) != payload_crc:
            raise RingCorruption("record payload CRC mismatch")
        self._store(_READ_POS, read + record)
        return offset, payload

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - double unlink
            pass


def retire_ring(ring: ShmRing | None) -> None:
    """Best-effort close + unlink for a ring that may still have readers.

    A superseded incarnation's collector can race this with a last pop;
    ``mmap`` then refuses to close while buffer exports exist
    (``BufferError``).  The name is unlinked regardless, so the segment
    is freed once every mapping drops.
    """
    if ring is None:
        return
    try:
        ring.unlink()
    except OSError:  # pragma: no cover - defensive
        pass
    try:
        ring.close()
    except (BufferError, OSError):  # pragma: no cover - racing reader
        pass


def flip_ring_byte(ring: ShmRing, data_index: int, xor: int = 0x40) -> None:
    """Fault-injection hook: XOR one byte of the ring's data area.

    The chaos and property suites use this to model a torn or corrupted
    slab; any nonzero ``xor`` inside a sealed record must surface as
    :class:`RingCorruption` on the next :meth:`ShmRing.pop`.
    """
    index = DATA_OFFSET + (int(data_index) % ring.capacity)
    ring._shm.buf[index] ^= xor & 0xFF


# -- frame packing ------------------------------------------------------------


def pack_into_ring(message: Message, ring: ShmRing | None) -> tuple[bytes, int]:
    """Encode ``message`` for a shm channel -> ``(control frame, slab bytes)``.

    The blobs are concatenated into one slab pushed onto ``ring``; the
    returned control frame carries only the meta plus a
    :func:`~repro.serving.wire.slab_descriptor`.  When the ring is
    absent, full, or too small for the slab, the message is encoded
    in-band unchanged (slab bytes 0) at once -- the consumer handles
    both shapes, so a full ring or an oversized layer degrades that one
    frame to the queue path instead of waiting or failing.
    """
    if ring is None or not message.blobs:
        return encode_message(message), 0
    slab = b"".join(message.blobs)
    try:
        offset = ring.push(slab)
    except (RingFull, SlabTooLarge):
        return encode_message(message), 0
    meta = dict(message.meta)
    meta[SLAB_META_KEY] = slab_descriptor(
        offset, slab, [len(blob) for blob in message.blobs]
    )
    return encode_message(Message(message.kind, meta, [])), len(slab)


def unpack_from_ring(payload: bytes, ring: ShmRing | None) -> tuple[Message, int]:
    """Decode a control frame, resolving its slab -> ``(message, slab bytes)``.

    A frame without a slab descriptor decodes as-is (slab bytes 0).
    Otherwise the next ring record is popped and cross-checked against
    the descriptor (offset, byte count, CRC, blob lengths); any mismatch
    raises :class:`RingCorruption`.  The producer publishes a slab before
    it queues the slab's frame, so a frame whose record is missing is a
    desync, raised as :class:`RingCorruption` too -- never waited for.
    """
    message = decode_message(payload)
    descriptor = message.meta.pop(SLAB_META_KEY, None)
    if descriptor is None:
        return message, 0
    if ring is None:
        raise RingCorruption(
            "frame references a shared-memory slab but the channel has no ring"
        )
    try:
        offset, slab = ring.pop()
    except RingEmpty as exc:
        raise RingCorruption(
            "frame references a shared-memory slab the ring does not hold"
        ) from exc
    try:
        message.blobs = split_slab(descriptor, offset, slab)
    except ValueError as exc:
        raise RingCorruption(str(exc)) from exc
    return message, len(slab)
