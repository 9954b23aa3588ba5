"""Property suite for the shared-memory slab ring (``serving/shm_ring``).

The ring is the zero-copy half of the shm shard channel: if its SPSC
protocol tears a record, misorders payloads, or accepts a corrupted
slab, workers decode garbage ciphertexts and the bit-identity contract
dies silently.  So the protocol is pinned the same way the wire codecs
are (``test_serialize_properties.py``):

* FIFO round-trips are exact for arbitrary payloads, including across
  many wraparounds of the data area (free-running position counters);
* full/empty boundaries raise at once (:class:`RingFull` /
  :class:`RingEmpty`) rather than wait or tear, and an impossible
  payload raises :class:`SlabTooLarge` up front;
* a concurrent producer/consumer pair over the ring preserves the exact
  push sequence;
* **every single-byte corruption of a sealed record (header or slab)
  raises** :class:`RingCorruption` without advancing ``read_pos`` -- the
  record is still intact and consumable once the byte is restored;
* ``pack_into_ring``/``unpack_from_ring`` round-trip wire messages
  through the ring, degrade to in-band encoding when the ring cannot
  take the slab, and reject descriptor/slab mismatches.

Hypothesis drives payload content and sizes; the corruption sweep is
exhaustive over byte positions, mirroring the serializer suite.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serving.shm_ring import (
    DATA_OFFSET,
    RingCorruption,
    RingEmpty,
    RingFull,
    ShmRing,
    SlabTooLarge,
    flip_ring_byte,
    pack_into_ring,
    retire_ring,
    unpack_from_ring,
)
from repro.serving.wire import SLAB_META_KEY, Message, decode_message

#: One data page of capacity -- the smallest ring -- so modest payload
#: streams wrap the data area many times.
SMALL_CAPACITY = DATA_OFFSET

payloads = st.lists(
    st.binary(min_size=0, max_size=600), min_size=1, max_size=40
)


@pytest.fixture
def ring():
    ring = ShmRing.create(SMALL_CAPACITY)
    yield ring
    retire_ring(ring)


class TestFifoRoundTrip:
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(payloads)
    def test_interleaved_push_pop_is_exact_fifo(self, items):
        """Alternating push/pop round-trips every payload byte-exactly.

        The cumulative byte stream of up to 40 x 600-byte records over a
        4 KiB data area crosses the wraparound boundary repeatedly, so
        record splitting at the ring edge is exercised by construction.
        """
        ring = ShmRing.create(SMALL_CAPACITY)
        try:
            for payload in items:
                ring.push(payload)
                _offset, out = ring.pop()
                assert out == payload
            assert ring.used_bytes() == 0
        finally:
            retire_ring(ring)

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
    @given(payloads)
    def test_queued_records_preserve_order(self, items):
        """Multiple in-flight records pop back in exact push order."""
        ring = ShmRing.create(SMALL_CAPACITY)
        try:
            queued = []
            for payload in items:
                try:
                    ring.push(payload)
                except RingFull:
                    _offset, out = ring.pop()
                    assert out == queued.pop(0)
                    ring.push(payload)
                queued.append(payload)
            for expected in queued:
                _offset, out = ring.pop()
                assert out == expected
        finally:
            retire_ring(ring)

    def test_positions_are_free_running(self, ring):
        """write/read positions never reset, so 'full' and 'empty' stay
        unambiguous after the counters pass many multiples of capacity."""
        payload = bytes(range(256)) * 4  # 1024B payload, 1040B record
        for _ in range(50):  # ~52 KiB through a 4 KiB ring
            ring.push(payload)
            _offset, out = ring.pop()
            assert out == payload
        assert ring._load(0) == ring._load(64) > ring.capacity


class TestBoundaries:
    def test_pop_empty_raises(self, ring):
        with pytest.raises(RingEmpty):
            ring.pop()

    def test_push_full_raises_and_recovers(self, ring):
        payload = b"x" * 1000
        pushed = 0
        with pytest.raises(RingFull):
            for _ in range(100):
                ring.push(payload)
                pushed += 1
        assert pushed == ring.capacity // ring.record_bytes(len(payload))
        ring.pop()
        ring.push(payload)  # freed space is reusable
        for _ in range(pushed):
            _offset, out = ring.pop()
            assert out == payload

    def test_exact_capacity_record_fits(self, ring):
        payload = b"y" * (ring.capacity - 16)
        assert ring.record_bytes(len(payload)) == ring.capacity
        ring.push(payload)
        _offset, out = ring.pop()
        assert out == payload

    def test_slab_too_large_raises_immediately(self, ring):
        with pytest.raises(SlabTooLarge):
            # Not RingFull: no amount of popping would make room.
            ring.push(b"z" * (ring.capacity + 1))


class TestConcurrent:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_producer_consumer_interleaving_is_exact(self, seed):
        """A real cross-thread producer/consumer preserves the sequence.

        Payload sizes are seeded so runs are reproducible.  The ring
        never waits, so the consumer retries ``pop`` while the ring is
        empty and the producer retries ``push`` while it is full; every
        full/empty transition interleaving the scheduler produces must
        still deliver the exact sequence.
        """
        import random

        rng = random.Random(seed)
        items = [
            rng.randbytes(rng.randrange(0, 900)) for _ in range(60)
        ]
        ring = ShmRing.create(SMALL_CAPACITY)
        errors = []

        def retry(operation, busy):
            while True:
                try:
                    return operation()
                except busy:
                    time.sleep(0)  # yield to the other side

        def produce():
            try:
                for payload in items:
                    retry(lambda: ring.push(payload), RingFull)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        try:
            producer = threading.Thread(target=produce)
            producer.start()
            received = [retry(ring.pop, RingEmpty)[1] for _ in items]
            producer.join(timeout=10.0)
            assert not errors
            assert received == items
            assert ring.used_bytes() == 0
        finally:
            retire_ring(ring)


class TestCorruption:
    def test_every_record_byte_flip_is_rejected_then_recoverable(self, ring):
        """Exhaustive sweep: any flipped bit in header or slab raises.

        ``pop`` must raise :class:`RingCorruption` without advancing
        ``read_pos``, so after restoring the byte the very same record
        pops clean -- corruption detection never consumes data.
        (Alignment padding is excluded: it is outside both CRCs and
        outside the payload, so flipping it is harmless by layout.)
        """
        payload = bytes(range(251))  # prime length: exercises padding
        offset = ring.push(payload)
        silent = []
        for index in range(16 + len(payload)):  # header + payload bytes
            flip_ring_byte(ring, offset + index)
            try:
                ring.pop()
            except RingCorruption:
                pass
            else:
                silent.append(index)
            flip_ring_byte(ring, offset + index)  # restore
        assert not silent, (
            f"{len(silent)} single-byte corruption(s) were accepted at "
            f"record offsets {silent[:10]}..."
        )
        _offset, out = ring.pop()
        assert out == payload

    def test_corruption_of_queued_slab_is_detected_by_unpack(self, ring):
        message = Message("task", {"task": "t0"}, [b"a" * 500, b"b" * 300])
        frame, slab_bytes = pack_into_ring(message, ring)
        assert slab_bytes == 800
        flip_ring_byte(ring, 16 + 123)  # a byte inside the slab
        with pytest.raises(RingCorruption):
            unpack_from_ring(frame, ring)


class TestFramePacking:
    def test_round_trip_moves_blobs_off_the_frame(self, ring):
        message = Message(
            "task", {"task": "t1", "attempt": 2}, [b"p" * 700, b"", b"q" * 41]
        )
        frame, slab_bytes = pack_into_ring(message, ring)
        assert slab_bytes == 741
        assert len(frame) < 300  # control frame: meta + descriptor only
        assert SLAB_META_KEY in decode_message(frame).meta
        restored, got = unpack_from_ring(frame, ring)
        assert got == slab_bytes
        assert restored.kind == message.kind
        assert restored.blobs == message.blobs
        assert restored.meta["task"] == "t1"
        assert SLAB_META_KEY not in restored.meta

    def test_no_ring_or_no_blobs_encodes_inline(self, ring):
        bare = Message("ping", {"task": "t2"})
        frame, slab_bytes = pack_into_ring(bare, ring)
        assert slab_bytes == 0
        restored, got = unpack_from_ring(frame, ring)
        assert got == 0 and restored.kind == "ping"
        blobby = Message("task", {"task": "t3"}, [b"inline" * 10])
        frame, slab_bytes = pack_into_ring(blobby, None)
        assert slab_bytes == 0
        restored, _ = unpack_from_ring(frame, None)
        assert restored.blobs == blobby.blobs

    def test_oversized_slab_degrades_to_inline(self, ring):
        message = Message(
            "task", {"task": "t4"}, [b"w" * (ring.capacity + 100)]
        )
        frame, slab_bytes = pack_into_ring(message, ring)
        assert slab_bytes == 0  # SlabTooLarge -> in-band fallback
        restored, got = unpack_from_ring(frame, ring)
        assert got == 0
        assert restored.blobs == message.blobs
        assert ring.used_bytes() == 0  # nothing left behind in the ring

    def test_full_ring_degrades_to_inline(self, ring):
        ring.push(b"f" * (ring.capacity - 16))  # fill it
        message = Message("task", {"task": "t5"}, [b"v" * 100])
        frame, slab_bytes = pack_into_ring(message, ring)
        assert slab_bytes == 0  # RingFull -> in-band fallback
        restored, _ = unpack_from_ring(frame, ring)
        assert restored.blobs == message.blobs

    def test_descriptor_slab_mismatch_is_rejected(self, ring):
        """A frame must resolve against *its own* slab, not whichever
        record happens to be next (e.g. after a torn predecessor)."""
        stray = Message("task", {"task": "t6"}, [b"stray" * 20])
        _frame_stray, _ = pack_into_ring(stray, ring)
        mine = Message("task", {"task": "t7"}, [b"mine" * 25])
        frame_mine, _ = pack_into_ring(mine, ring)
        # Popping for frame_mine first yields the stray slab -> mismatch.
        with pytest.raises(RingCorruption):
            unpack_from_ring(frame_mine, ring)

    def test_frame_whose_record_is_missing_is_corruption(self, ring):
        """The slab is published before its frame is queued, so a frame
        that finds the ring empty is a desync, raised at once."""
        frame, _ = pack_into_ring(Message("task", {"task": "t9"}, [b"z" * 64]), ring)
        ring.pop()  # the record is gone before its frame arrives
        with pytest.raises(RingCorruption, match="does not hold"):
            unpack_from_ring(frame, ring)

    def test_slab_frame_without_ring_is_corruption(self, ring):
        message = Message("task", {"task": "t8"}, [b"x" * 50])
        frame, _ = pack_into_ring(message, ring)
        with pytest.raises(RingCorruption):
            unpack_from_ring(frame, None)
