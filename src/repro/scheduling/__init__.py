"""Live homomorphic layer schedulers: Sched-PA (Cheetah) and Sched-IA
(Gazelle baseline) convolution and fully connected layers."""

from .conv2d import (
    conv2d_he,
    conv2d_he_naive,
    conv2d_he_small,
    conv_rotation_steps,
    encrypt_channels,
)
from .dot_product import (
    accumulate,
    input_aligned_term,
    partial_aligned_term,
)
from .fc import fc_he, fc_he_naive, fc_he_small, fc_rotation_steps
from .layouts import (
    conv_tap_plaintext_ia,
    conv_tap_plaintext_pa,
    fc_diagonal,
    linear_input_rows,
    linear_output_shape,
    linear_output_view,
    pack_fc_input,
    pack_image,
    pad_fc_weights,
    tap_offset,
    unpack_image,
    valid_output_positions,
)
from .opcount import OpTrace, TraceRecorder
from .plan import (
    ConvPlan,
    FcPlan,
    cached_plan,
    compile_plans,
    union_rotation_steps,
)

__all__ = [
    "ConvPlan",
    "FcPlan",
    "cached_plan",
    "compile_plans",
    "union_rotation_steps",
    "conv2d_he",
    "conv2d_he_naive",
    "conv2d_he_small",
    "conv_rotation_steps",
    "encrypt_channels",
    "accumulate",
    "input_aligned_term",
    "partial_aligned_term",
    "fc_he",
    "fc_he_naive",
    "fc_he_small",
    "fc_rotation_steps",
    "pack_fc_input",
    "conv_tap_plaintext_ia",
    "conv_tap_plaintext_pa",
    "fc_diagonal",
    "linear_input_rows",
    "linear_output_shape",
    "linear_output_view",
    "pack_image",
    "pad_fc_weights",
    "tap_offset",
    "unpack_image",
    "valid_output_positions",
    "OpTrace",
    "TraceRecorder",
]
