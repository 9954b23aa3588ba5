"""Admission control: per-tenant token buckets and a bounded job queue.

The serving engine asks :class:`AdmissionController` before it spends
HE compute on a ``linear`` round (handshakes and key uploads are control
plane and always admitted).  Admission can refuse for two reasons:

* the **bounded job queue** is full -- more rounds are in flight than
  the deployment wants queued behind the batcher, or
* the session's **tenant token bucket** is empty -- that tenant has
  exceeded its sustained requests/second (with a configurable burst).

A refusal is not an error: the engine replies with a ``busy`` wire
message carrying a ``retry_after_s`` hint, and :class:`ClientSession`
sleeps and retries transparently.  Because every protocol round is
deterministic and replayable (the same property PR 6's connection-retry
relies on), a retried round completes with bit-identical ciphertexts --
backpressure never changes what is computed, only when.

Token buckets take an injectable ``clock`` so tests can drive time
deterministically instead of sleeping.
"""

from __future__ import annotations

import threading
import time

from .wire import Message

__all__ = ["AdmissionController", "TokenBucket", "busy_message"]

#: The ``retry_after_s`` hint of a queue-full refusal, from admission
#: and from the gateway's own load shedding alike.
DEFAULT_RETRY_AFTER_S = 0.05


def busy_message(retry_after_s: float, reason: str) -> Message:
    """The wire-level backpressure reply (`Retry-After` as meta)."""
    return Message(
        "busy", {"retry_after_s": round(float(retry_after_s), 4), "reason": reason}
    )


class TokenBucket:
    """Classic token bucket: ``rate_per_s`` sustained, ``burst`` capacity.

    ``try_acquire`` never blocks: it returns ``0.0`` when a token was
    taken, else the seconds until one accrues (the caller's retry hint).
    """

    def __init__(self, rate_per_s: float, burst: float, clock=time.monotonic):
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        self.rate_per_s = float(rate_per_s)
        self.burst = max(1.0, float(burst))
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self) -> float:
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate_per_s
            )
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return 0.0
            return (1.0 - self._tokens) / self.rate_per_s


class AdmissionController:
    """Queue-depth and per-tenant rate admission for the serving engine.

    ``rate_per_tenant <= 0`` disables rate limiting; ``max_queue_depth
    <= 0`` disables the queue bound -- the default controller admits
    everything and only counts rounds in flight.

    Protocol: the engine calls :meth:`try_admit` with the session's
    tenant (which the engine keeps on the session) before a linear round.
    ``None`` means admitted *and* an in-flight slot is held -- the engine
    must :meth:`release` it when the round finishes (success or error).
    A float means refused; the value is the suggested retry delay.
    """

    def __init__(
        self,
        rate_per_tenant: float = 0.0,
        burst: float = 0.0,
        max_queue_depth: int = 0,
        clock=time.monotonic,
    ):
        self.rate_per_tenant = float(rate_per_tenant)
        self.burst = float(burst) if burst > 0 else max(1.0, 2 * self.rate_per_tenant)
        self.max_queue_depth = int(max_queue_depth)
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._inflight = 0
        #: refusals issued, by reason (observability)
        self.rejections = {"queue": 0, "rate": 0}

    def try_admit(self, tenant: str) -> float | None:
        with self._lock:
            if self.max_queue_depth > 0 and self._inflight >= self.max_queue_depth:
                self.rejections["queue"] += 1
                return DEFAULT_RETRY_AFTER_S
            bucket = None
            if self.rate_per_tenant > 0:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = self._buckets[tenant] = TokenBucket(
                        self.rate_per_tenant, self.burst, clock=self._clock
                    )
            if bucket is not None:
                wait = bucket.try_acquire()
                if wait > 0:
                    self.rejections["rate"] += 1
                    return max(wait, 1e-3)
            self._inflight += 1
            return None

    def release(self) -> None:
        with self._lock:
            self._inflight -= 1

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._inflight

    def stats(self) -> dict:
        with self._lock:
            return {
                "queue_depth": self._inflight,
                "max_queue_depth": self.max_queue_depth,
                "rate_per_tenant": self.rate_per_tenant,
                "rejections": dict(self.rejections),
            }
