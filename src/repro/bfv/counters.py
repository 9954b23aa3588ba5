"""Global operation accounting for HE kernels.

The Cheetah paper reports performance as the total number of underlying
integer multiplications (Section IV-A): every HE operator is reduced to
modular multiplications (5 integer multiplications each under Barrett
reduction) and NTT butterflies (3 integer multiplications each under
Harvey's butterfly).  This module provides the single counter object that
every kernel in :mod:`repro.bfv` increments, so measured op counts can be
validated against HE-PTune's analytical model (Table IV).

The counters are profiling aids, not synchronised state: increments are
plain ``+=`` with no lock, so censuses are only exact for
single-threaded workloads.  Under the concurrent serving runtime
(:mod:`repro.serving`) interleaved read-modify-writes can drop
increments -- do not assert on counter values around multi-threaded
runs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Integer multiplications per modular multiplication (Barrett reduction).
BARRETT_INT_MULTS = 5

#: Integer multiplications per NTT butterfly (Harvey's butterfly).
HARVEY_INT_MULTS = 3

#: The operation tallies of :class:`OpCounters` (everything but the
#: kernel timers): the set that crosses process boundaries in shard
#: result frames and lands in ``he_ops`` span attributes.
HE_OP_FIELDS = ("he_mult", "he_add", "he_rotate", "ntt", "modmuls", "butterflies")


@dataclass
class OpCounters:
    """Mutable tally of HE-level and integer-level operations.

    Attributes mirror the hot kernels profiled in Figure 7 of the paper:
    ``HE_Mult``, ``HE_Add``, ``HE_Rotate`` and ``NTT``.
    """

    he_mult: int = 0
    he_add: int = 0
    he_rotate: int = 0
    ntt: int = 0
    modmuls: int = 0
    butterflies: int = 0
    kernel_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def int_mults(self) -> int:
        """Total integer multiplications per the paper's accounting."""
        return self.modmuls * BARRETT_INT_MULTS + self.butterflies * HARVEY_INT_MULTS

    def add_modmuls(self, count: int) -> None:
        self.modmuls += count

    def add_ntt(self, n: int, count: int = 1) -> None:
        """Record ``count`` n-point NTTs (n/2 * log2(n) butterflies each)."""
        self.ntt += count
        self.butterflies += count * (n // 2) * (n.bit_length() - 1)

    def add_time(self, kernel: str, seconds: float) -> None:
        self.kernel_seconds[kernel] = self.kernel_seconds.get(kernel, 0.0) + seconds

    def he_ops(self) -> dict[str, int]:
        """The :data:`HE_OP_FIELDS` tallies as a plain (JSON-able) dict."""
        return {name: getattr(self, name) for name in HE_OP_FIELDS}

    def fold(self, ops, sign: int = 1) -> None:
        """Add (``sign=-1``: subtract) an :meth:`he_ops`-shaped mapping."""
        for name in HE_OP_FIELDS:
            setattr(self, name, getattr(self, name) + sign * int(ops.get(name, 0)))

    def reset(self) -> None:
        self.he_mult = 0
        self.he_add = 0
        self.he_rotate = 0
        self.ntt = 0
        self.modmuls = 0
        self.butterflies = 0
        self.kernel_seconds = {}

    def snapshot(self) -> "OpCounters":
        """Return an independent copy of the current tallies."""
        copy = OpCounters(
            he_mult=self.he_mult,
            he_add=self.he_add,
            he_rotate=self.he_rotate,
            ntt=self.ntt,
            modmuls=self.modmuls,
            butterflies=self.butterflies,
        )
        copy.kernel_seconds = dict(self.kernel_seconds)
        return copy

    def diff(self, earlier: "OpCounters") -> "OpCounters":
        """Return the delta between this tally and an earlier snapshot."""
        delta = OpCounters(
            he_mult=self.he_mult - earlier.he_mult,
            he_add=self.he_add - earlier.he_add,
            he_rotate=self.he_rotate - earlier.he_rotate,
            ntt=self.ntt - earlier.ntt,
            modmuls=self.modmuls - earlier.modmuls,
            butterflies=self.butterflies - earlier.butterflies,
        )
        delta.kernel_seconds = {
            name: seconds - earlier.kernel_seconds.get(name, 0.0)
            for name, seconds in self.kernel_seconds.items()
        }
        return delta

    @contextmanager
    def timed(self, kernel: str):
        """Context manager accumulating wall-clock time for ``kernel``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(kernel, time.perf_counter() - start)


#: Process-wide counter used by default throughout :mod:`repro.bfv`.
GLOBAL_COUNTERS = OpCounters()


@contextmanager
def counting():
    """Yield a fresh snapshot-diff view over the global counters.

    Example::

        with counting() as delta:
            scheme.rotate_rows(ct, 1, galois_keys)
        print(delta().he_rotate)  # -> 1
    """
    before = GLOBAL_COUNTERS.snapshot()
    yield lambda: GLOBAL_COUNTERS.diff(before)
