"""Table IV: HE-PTune performance models (HE_Mult / HE_Rotate counts).

Prints the operator census for representative CNN and FC layers in every
packing regime, and validates the model against a live scheduler trace.
"""

import numpy as np
import pytest

from repro.bfv.counters import counting
from repro.core.noise_model import Schedule
from repro.core.perf_model import layer_op_counts
from repro.core.ptune import ModelParams
from repro.nn.layers import ConvLayer, FCLayer
from repro.scheduling import conv_rotation_steps
from repro.scheduling.conv2d import _infer_width, conv2d_he_naive, encrypt_channels

CASES = [
    ("CNN n>=w^2", ConvLayer("conv", w=16, fw=3, ci=4, co=8, padding=1), 2048),
    ("CNN n<w^2", ConvLayer("conv", w=64, fw=3, ci=2, co=4), 1024),
    ("FC both fit", FCLayer("fc", ni=512, no=64), 2048),
    ("FC big out", FCLayer("fc", ni=512, no=4096), 2048),
    ("FC big in", FCLayer("fc", ni=4096, no=64), 2048),
    ("FC both big", FCLayer("fc", ni=4096, no=4096), 2048),
]


def _census():
    rows = []
    for label, layer, n in CASES:
        params = ModelParams(
            n=n, plain_bits=20, coeff_bits=54, w_dcmp_bits=10, a_dcmp_bits=9
        )
        counts = layer_op_counts(layer, params, l_pt=1)
        rows.append((label, counts.he_mult, counts.he_rotate))
    return rows


@pytest.mark.benchmark(group="table4")
def test_table4_operator_census(benchmark):
    rows = benchmark.pedantic(_census, rounds=1, iterations=1)
    print("\nTable IV -- HE operator counts per layer (l_pt = 1)")
    print(f"{'case':<14}{'HE_Mult':>10}{'HE_Rotate':>11}")
    for label, mults, rotates in rows:
        print(f"{label:<14}{mults:>10}{rotates:>11}")
        assert mults > 0 and rotates >= 0


@pytest.mark.benchmark(group="table4")
def test_table4_model_matches_live_trace(
    benchmark, live_scheme, live_keys, bench_rng
):
    """The analytical census must match an actual scheduled execution."""
    secret, public = live_keys
    fw, ci, co = 3, 2, 2
    grid_w = _infer_width(live_scheme.params.row_size)
    galois = live_scheme.generate_galois_keys(secret, conv_rotation_steps(grid_w, fw))
    channels = bench_rng.integers(0, 8, (ci, grid_w, grid_w))
    weights = bench_rng.integers(-4, 5, (co, ci, fw, fw))
    cts = encrypt_channels(live_scheme, channels, public)

    def run():
        with counting() as delta:
            conv2d_he_naive(live_scheme, cts, weights, galois, Schedule.PARTIAL_ALIGNED)
        return delta()

    trace = benchmark.pedantic(run, rounds=1, iterations=1)
    expected_mults = ci * co * fw * fw
    expected_rotates = ci * co * (fw * fw - 1)
    print(
        f"\nlive conv trace: HE_Mult {trace.he_mult} (model {expected_mults}), "
        f"HE_Rotate {trace.he_rotate} (model {expected_rotates})"
    )
    assert trace.he_mult == expected_mults
    assert trace.he_rotate == expected_rotates
