"""Slot packing layouts for homomorphic CNN and FC layers (Figure 4).

Activations are packed row-major into the slots of one batching row:
pixel (y, x) of a w x w image sits in slot ``y * w + x``.  Weight
plaintexts place each filter tap's coefficient at exactly the slots whose
product contributes to a valid output, with zeros elsewhere -- the
"zeros found in weight plaintext slots ensure the correct computation"
boundary handling of Section V-B.

A linear layer's client-side layout is written once here, for both
directions: :func:`linear_input_rows` packs its input into slot rows, and
:func:`linear_output_view` reads its outputs back out of them.  The
protocol's client, the serving engine's mask block and the
encrypt-evaluate-decrypt helpers all use these two.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import ConvLayer


def pack_image(image: np.ndarray) -> np.ndarray:
    """Flatten a (w, w) image row-major for slot packing."""
    image = np.asarray(image, dtype=np.int64)
    if image.ndim != 2 or image.shape[0] != image.shape[1]:
        raise ValueError(f"expected a square image, got {image.shape}")
    return image.reshape(-1)


def unpack_image(slots: np.ndarray, w: int) -> np.ndarray:
    """Inverse of :func:`pack_image`."""
    return np.asarray(slots[: w * w], dtype=np.int64).reshape(w, w)


def pack_fc_input(inputs: np.ndarray, row_size: int) -> np.ndarray:
    """Duplicate the input vector so rotations wrap cyclically mod ni."""
    inputs = np.asarray(inputs, dtype=np.int64)
    ni = inputs.shape[0]
    if 2 * ni > row_size:
        raise ValueError(f"need 2*ni={2 * ni} slots, row has {row_size}")
    packed = np.zeros(row_size, dtype=np.int64)
    packed[:ni] = inputs
    packed[ni : 2 * ni] = inputs
    return packed


def linear_input_rows(layer, activations, row_size: int, grid_w: int | None):
    """The slot rows a linear layer's input encrypts to, one per ciphertext.

    A convolution zero-pads its ``(ci, w, w)`` input and embeds each
    channel into the ``grid_w x grid_w`` packing grid (the HE schedule
    computes the dense valid convolution of the padded image; a stride is
    applied after decryption).  An FC layer flattens its input into one
    duplicated :func:`pack_fc_input` row; ``grid_w`` is unused.
    """
    activations = np.asarray(activations, dtype=np.int64)
    if not isinstance(layer, ConvLayer):
        return pack_fc_input(activations.reshape(-1), row_size)[None, :]
    pad = layer.padding
    activations = np.pad(activations, ((0, 0), (pad, pad), (pad, pad)))
    ci, w, _ = activations.shape
    if w > grid_w:
        raise ValueError(
            f"{layer.name}: padded {w}x{w} image exceeds the "
            f"{grid_w}x{grid_w} packing grid"
        )
    grids = np.zeros((ci, grid_w, grid_w), dtype=np.int64)
    grids[:, :w, :w] = activations
    return np.stack([pack_image(grid) for grid in grids])


def linear_output_shape(layer) -> tuple[int, ...]:
    """Shape of :func:`linear_output_view`: ``(co, d, d)`` or ``(no,)``.

    ``d = w + 2 * padding - fw + 1`` is the dense (stride-1) output width.
    """
    if isinstance(layer, ConvLayer):
        dense_w = layer.w + 2 * layer.padding - layer.fw + 1
        return (layer.co, dense_w, dense_w)
    return (layer.no,)


def linear_output_view(layer, rows, grid_w: int | None) -> np.ndarray:
    """The slots a client reads from a linear layer's output rows.

    ``rows`` holds one slot row per output ciphertext.  A convolution's
    outputs are the dense ``(co, d, d)`` block at the top-left of each
    ``grid_w`` grid (a stride subsamples it afterwards); an FC layer's are
    the first ``no`` slots of its one row.  Every other slot holds partial
    sums, which is why the cloud blinds whole rows.
    """
    shape = linear_output_shape(layer)
    count = shape[0] if isinstance(layer, ConvLayer) else 1
    if len(rows) != count:
        raise ValueError(
            f"{layer.name}: expected {count} output row(s), got {len(rows)}"
        )
    if not isinstance(layer, ConvLayer):
        return np.asarray(rows[0])[: layer.no]
    dense_w = shape[1]
    return np.stack([unpack_image(row, grid_w)[:dense_w, :dense_w] for row in rows])


def tap_offset(dy: int, dx: int, w: int) -> int:
    """Slot distance between output position s and input pixel s + offset."""
    return dy * w + dx


def valid_output_positions(w: int, fw: int) -> np.ndarray:
    """Slots holding valid (no padding) conv outputs, anchored top-left."""
    out_w = w - fw + 1
    ys, xs = np.meshgrid(np.arange(out_w), np.arange(out_w), indexing="ij")
    return (ys * w + xs).reshape(-1)


def conv_tap_plaintext_pa(
    weight: int, w: int, fw: int, dy: int, dx: int, row_size: int
) -> np.ndarray:
    """Sched-PA weight vector for one filter tap.

    The input ciphertext stays in original order; the tap coefficient is
    placed at the *input* slots ``s + offset`` that feed valid outputs
    ``s``, so the product lands pre-rotation and the partial is rotated
    into alignment afterwards (Figure 4).
    """
    values = np.zeros(row_size, dtype=np.int64)
    offset = tap_offset(dy, dx, w)
    for s in valid_output_positions(w, fw):
        values[s + offset] = weight
    return values


def conv_tap_plaintext_ia(
    weight: int, w: int, fw: int, dy: int, dx: int, row_size: int
) -> np.ndarray:
    """Sched-IA weight vector for one filter tap.

    The input ciphertext is rotated *first*, so the tap coefficient sits
    directly at the output slots ``s``; the rotation's wrap-around junk is
    masked by the zeros at non-output slots.
    """
    values = np.zeros(row_size, dtype=np.int64)
    for s in valid_output_positions(w, fw):
        values[s] = weight
    return values


def fc_diagonal(weights: np.ndarray, d: int, schedule_pa: bool) -> np.ndarray:
    """Generalized diagonal d of a square matrix for diagonal-method FC.

    For Sched-IA (rotate input first), slot j of the diagonal holds
    ``W[j, (j + d) mod ni]``.  For Sched-PA, the weight must multiply the
    *unrotated* input, so slot j holds ``W[(j - d) mod ni, j]``; the
    partial is then rotated left by d to align with output slots.
    """
    weights = np.asarray(weights, dtype=np.int64)
    ni = weights.shape[1]
    if weights.shape[0] != ni:
        raise ValueError("fc_diagonal expects a square (padded) matrix")
    j = np.arange(ni)
    if schedule_pa:
        return weights[(j - d) % ni, j]
    return weights[j, (j + d) % ni]


def pad_fc_weights(weights: np.ndarray) -> np.ndarray:
    """Zero-pad an (no, ni) matrix to square (ni, ni) for the diagonal method."""
    weights = np.asarray(weights, dtype=np.int64)
    no, ni = weights.shape
    if no > ni:
        raise ValueError(f"diagonal method requires no <= ni, got {weights.shape}")
    padded = np.zeros((ni, ni), dtype=np.int64)
    padded[:no, :] = weights
    return padded
