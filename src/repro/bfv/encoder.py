"""Batch (SIMD slot) encoder for BFV plaintexts.

With a prime plaintext modulus t = 1 mod 2n, the ring R_t splits into n
evaluation slots (Section III-B, "Encoding (Packing) Data to Polynomial").
Following SEAL's convention, the n slots form a 2 x (n/2) matrix: Galois
automorphisms x -> x^(3^k) rotate each row cyclically by k positions and
x -> x^(2n-1) swaps the rows.  The schedulers in :mod:`repro.scheduling`
pack activations within a single row so only row rotations are needed.
"""

from __future__ import annotations

import numpy as np

from .modmath import centered
from .ntt_batch import get_engine
from .params import BfvParameters


class Plaintext:
    """A plaintext polynomial: coefficients mod t, length n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=np.int64)

    def __repr__(self) -> str:
        return f"Plaintext(n={self.coeffs.shape[-1]})"


class BatchEncoder:
    """Encode integer vectors into plaintext slots and back."""

    def __init__(self, params: BfvParameters):
        self.params = params
        # Single-limb engine over the plaintext modulus (memoized, so all
        # encoders for one parameter set share twiddle tables).
        self.engine = get_engine(params.n, (params.plain_modulus,))
        self.context = self.engine.contexts[0]
        self._slot_to_eval = self._build_index_map(params.n)
        self._eval_to_slot = np.argsort(self._slot_to_eval)

    @staticmethod
    def _build_index_map(n: int) -> np.ndarray:
        """Map slot s to the NTT evaluation index of its root.

        Row 0 slot j uses the root psi^(3^j mod 2n); row 1 slot j uses
        psi^(-3^j mod 2n).  NTT index i holds the evaluation at
        psi^(2i+1), so the exponent e maps to index (e - 1) / 2.
        """
        row = n // 2
        mapping = np.empty(n, dtype=np.int64)
        exponent = 1
        for j in range(row):
            mapping[j] = (exponent - 1) // 2
            mapping[row + j] = (2 * n - exponent - 1) // 2
            exponent = exponent * 3 % (2 * n)
        return mapping

    @property
    def slot_count(self) -> int:
        return self.params.n

    @property
    def row_size(self) -> int:
        return self.params.n // 2

    def encode(self, values: np.ndarray) -> Plaintext:
        """Encode up to n integers (signed ok) into a plaintext.

        Slot value i lands at evaluation point i of the t-NTT; the
        returned plaintext holds *coefficients* mod t (one inverse NTT
        from the slot values), which is the representation every scheme
        operation consumes.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1 or values.shape[0] > self.slot_count:
            raise ValueError(f"expected <= {self.slot_count} values, got {values.shape}")
        t = self.params.plain_modulus
        slots = np.zeros(self.slot_count, dtype=np.int64)
        slots[: values.shape[0]] = values % t
        evals = np.zeros(self.slot_count, dtype=np.int64)
        evals[self._slot_to_eval] = slots
        coeffs = self.engine.inverse(evals[None, :], count_ops=False)[0]
        return Plaintext(coeffs)

    def decode(self, plaintext: Plaintext, signed: bool = True) -> np.ndarray:
        """Decode a plaintext back to its n slot values (a ``(B, n)`` one row by row).

        ``signed=True`` centers values into ``(-t/2, t/2]`` (fixed-point
        convention); ``signed=False`` returns raw residues in ``[0, t)``
        -- what the protocol uses for masked values, where wraparound mod
        t is meaningful.
        """
        evals = self.engine.forward(plaintext.coeffs[None], count_ops=False)[0]
        slots = evals[..., self._slot_to_eval]
        if signed:
            return centered(slots, self.params.plain_modulus).astype(np.int64)
        return slots

    def encode_row(self, values: np.ndarray, row: int = 0) -> Plaintext:
        """Encode up to n/2 values into one row of the 2 x (n/2) slot matrix
        (zeros elsewhere), so row rotations cover the whole payload."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape[0] > self.row_size:
            raise ValueError(f"row holds {self.row_size} slots, got {values.shape[0]}")
        slots = np.zeros(self.slot_count, dtype=np.int64)
        slots[row * self.row_size : row * self.row_size + values.shape[0]] = values
        return self.encode(slots)

    def encode_rows(self, rows: np.ndarray, row: int = 0) -> np.ndarray:
        """Batch :meth:`encode_row`: (T, <=row_size) values -> (T, n) coefficients.

        One inverse NTT over the whole batch; row i of the result is
        bit-identical to ``encode_row(rows[i], row).coeffs``.  Used by the
        offline weight-encoding pass of :mod:`repro.scheduling.plan`, so
        ops are not counted.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] > self.row_size:
            raise ValueError(
                f"expected (T, <={self.row_size}) row values, got {rows.shape}"
            )
        t = self.params.plain_modulus
        slots = np.zeros((rows.shape[0], self.slot_count), dtype=np.int64)
        slots[:, row * self.row_size : row * self.row_size + rows.shape[1]] = rows % t
        evals = np.zeros_like(slots)
        evals[:, self._slot_to_eval] = slots
        return self.engine.inverse(evals[None, :, :], count_ops=False)[0]

    def decode_row(self, plaintext: Plaintext, row: int = 0, signed: bool = True) -> np.ndarray:
        """Decode one row (n/2 values) of the slot matrix; see :meth:`decode`."""
        return self.decode(plaintext, signed=signed)[
            ..., row * self.row_size : (row + 1) * self.row_size
        ]
