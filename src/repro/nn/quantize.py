"""Fixed-point quantization into the plaintext ring Z_t.

BFV computes over integers mod t, so weights and activations are
symmetric fixed-point integers.  The paper sets t per layer by profiling
the bits needed for overflow-free accumulation (Section III-B:
"Setting t requires profiling the application...").  Synthetic weights
here stand in for trained weights: every experiment depends only on
magnitudes and shapes, not accuracy.
"""

from __future__ import annotations

import numpy as np

#: Default precision mirroring Gazelle's fixed-point setting.
DEFAULT_WEIGHT_BITS = 9
DEFAULT_ACTIVATION_BITS = 8


def quantize(values: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric uniform quantization of floats in [-1, 1] to signed ints."""
    values = np.asarray(values, dtype=np.float64)
    scale = (1 << (bits - 1)) - 1
    return np.clip(np.rint(values * scale), -scale, scale).astype(np.int64)


def synthetic_conv_weights(
    fw: int, ci: int, co: int, bits: int = DEFAULT_WEIGHT_BITS, seed: int = 0
) -> np.ndarray:
    """Deterministic quantized filters of shape (co, ci, fw, fw)."""
    rng = np.random.default_rng(seed)
    return quantize(rng.uniform(-1.0, 1.0, (co, ci, fw, fw)), bits)


def synthetic_fc_weights(
    ni: int, no: int, bits: int = DEFAULT_WEIGHT_BITS, seed: int = 0
) -> np.ndarray:
    """Deterministic quantized weight matrix of shape (no, ni)."""
    rng = np.random.default_rng(seed)
    return quantize(rng.uniform(-1.0, 1.0, (no, ni)), bits)
