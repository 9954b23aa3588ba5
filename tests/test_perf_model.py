"""Tests for HE-PTune's performance model (Table IV), including
validation against op traces of the live schedulers."""

import numpy as np
import pytest

from repro.bfv.counters import counting
from repro.core.noise_model import Schedule
from repro.core.perf_model import (
    conv_op_counts,
    fc_op_counts,
    int_mults_per_he_mult,
    int_mults_per_he_rotate,
    int_mults_per_ntt,
    layer_int_mults,
    layer_kernel_int_mults,
    layer_op_counts,
    word_cost_factor,
    word_limbs,
)
from repro.core.ptune import ModelParams
from repro.nn.layers import ConvLayer, FCLayer
from repro.scheduling import conv_rotation_steps, fc_rotation_steps
from repro.scheduling.conv2d import _infer_width, conv2d_he_naive, encrypt_channels
from repro.scheduling.fc import fc_he_naive, pack_fc_input


def params(n=2048, t=20, q=54, w=10, a=9):
    return ModelParams(n=n, plain_bits=t, coeff_bits=q, w_dcmp_bits=w, a_dcmp_bits=a)


class TestConvCounts:
    def test_image_fits_case(self):
        """n >= w^2: counts follow l_pt ci co fw^2 / cn (Table IV row 1)."""
        layer = ConvLayer("c", w=16, fw=3, ci=4, co=8, padding=1)  # he_w = 16
        p = params(n=2048)  # cn = 2048 // 256 = 8
        counts = conv_op_counts(layer, p, l_pt=1)
        assert counts.he_mult == 4 * 8 * 9 // 8
        assert counts.he_rotate == 4 * 8 * 9 // 8

    def test_image_exceeds_case(self):
        """n < w^2: the (2 cn - 1) splitting factor applies (Table IV row 2)."""
        layer = ConvLayer("c", w=64, fw=3, ci=2, co=2)
        p = params(n=1024)  # cn = ceil(4096 / 1024) = 4
        counts = conv_op_counts(layer, p, l_pt=1)
        assert counts.he_mult == 7 * 2 * 2 * 9
        assert counts.he_rotate == 7 * 2 * 2 * 8

    def test_l_pt_scales_mults(self):
        layer = ConvLayer("c", w=16, fw=3, ci=4, co=8, padding=1)
        p = params()
        base = conv_op_counts(layer, p, l_pt=1)
        tripled = conv_op_counts(layer, p, l_pt=3)
        assert tripled.he_mult == 3 * base.he_mult
        assert tripled.he_rotate == base.he_rotate  # Sched-PA rotations

    def test_windowed_rotations_scale_with_l_pt(self):
        """Sched-IA: every windowed ciphertext is rotated per tap."""
        layer = ConvLayer("c", w=16, fw=3, ci=4, co=8, padding=1)
        p = params()
        pa = conv_op_counts(layer, p, l_pt=3, windowed_rotations=False)
        ia = conv_op_counts(layer, p, l_pt=3, windowed_rotations=True)
        assert ia.he_rotate == 3 * pa.he_rotate
        assert ia.he_mult == pa.he_mult


class TestFcCounts:
    def test_both_fit(self):
        layer = FCLayer("f", ni=512, no=64)
        p = params(n=2048)
        counts = fc_op_counts(layer, p, l_pt=1)
        assert counts.he_mult == 512 * 64 // 2048
        # ni no / n - 1 + log(n / no)
        assert counts.he_rotate == 16 - 1 + 5

    def test_large_output(self):
        layer = FCLayer("f", ni=512, no=4096)
        p = params(n=2048)
        counts = fc_op_counts(layer, p, l_pt=1)
        assert counts.he_rotate == (512 - 1) * 4096 // 2048  # exact

    def test_large_input(self):
        layer = FCLayer("f", ni=4096, no=64)
        p = params(n=2048)
        counts = fc_op_counts(layer, p, l_pt=1)
        assert counts.he_mult == 4096 * 64 // 2048

    def test_both_large(self):
        layer = FCLayer("f", ni=4096, no=4096)
        p = params(n=2048)
        counts = fc_op_counts(layer, p, l_pt=1)
        assert counts.he_rotate == (2048 - 1) * 4096 * 4096 // (2048 * 2048)


class TestIntMultReduction:
    def test_he_mult_cost(self):
        p = params(n=2048, q=54)
        assert int_mults_per_he_mult(p) == 2 * 2048 * 5

    def test_ntt_cost(self):
        p = params(n=2048, q=54)
        assert int_mults_per_ntt(p) == 1024 * 11 * 3

    def test_rotate_cost_structure(self):
        p = params(n=2048, q=54, a=9)  # l_ct = 6
        expected = 2 * 6 * 2048 * 5 + 7 * int_mults_per_ntt(p)
        assert int_mults_per_he_rotate(p) == expected

    def test_word_width_cost_quadratic(self):
        assert word_cost_factor(params(q=54)) == 1
        assert word_cost_factor(params(q=100)) == 4
        assert word_cost_factor(params(q=150)) == 9

    def test_word_limbs(self):
        assert word_limbs(params(q=54)) == 1
        assert word_limbs(params(q=61)) == 2

    def test_layer_int_mults_composition(self):
        layer = ConvLayer("c", w=16, fw=3, ci=2, co=2)
        p = params()
        ops = layer_op_counts(layer, p)
        expected = ops.he_mult * int_mults_per_he_mult(
            p
        ) + ops.he_rotate * int_mults_per_he_rotate(p)
        assert layer_int_mults(layer, p) == expected

    def test_kernel_split_sums_to_rotate_plus_mult(self):
        layer = ConvLayer("c", w=16, fw=3, ci=2, co=2)
        p = params()
        split = layer_kernel_int_mults(layer, p)
        assert split.ntt + split.rotate_other == layer_op_counts(
            layer, p
        ).he_rotate * int_mults_per_he_rotate(p)


class TestModelVsLiveExecution:
    """Table IV validation: analytical counts vs actual scheduler traces."""

    def test_conv_trace_matches_model(self, conv_scheme, conv_keys):
        secret, public = conv_keys
        fw, ci, co = 3, 2, 2
        grid_w = _infer_width(conv_scheme.params.row_size)
        galois = conv_scheme.generate_galois_keys(
            secret, conv_rotation_steps(grid_w, fw)
        )
        rng = np.random.default_rng(0)
        channels = rng.integers(0, 8, (ci, grid_w, grid_w))
        weights = rng.integers(-4, 5, (co, ci, fw, fw))
        cts = encrypt_channels(conv_scheme, channels, public)
        with counting() as delta:
            conv2d_he_naive(conv_scheme, cts, weights, galois, Schedule.PARTIAL_ALIGNED)
        trace = delta()
        # Live layout packs one channel per ciphertext (cn = 1 equivalent).
        assert trace.he_mult == ci * co * fw * fw
        # The zero-offset tap needs no rotation: fw^2 - 1 per (ci, co) pair.
        assert trace.he_rotate == ci * co * (fw * fw - 1)

    def test_fc_trace_matches_model(self, conv_scheme, conv_keys):
        secret, public = conv_keys
        ni, no = 16, 8
        galois = conv_scheme.generate_galois_keys(secret, fc_rotation_steps(ni))
        rng = np.random.default_rng(1)
        weights = rng.integers(-4, 5, (no, ni))
        packed = pack_fc_input(rng.integers(0, 8, ni), conv_scheme.params.row_size)
        ct = conv_scheme.encrypt(conv_scheme.encoder.encode_row(packed), public)
        with counting() as delta:
            fc_he_naive(conv_scheme, ct, weights, galois, Schedule.PARTIAL_ALIGNED)
        trace = delta()
        assert trace.he_mult == ni  # one diagonal per input position
        assert trace.he_rotate == ni - 1  # diagonal 0 needs no rotation

    def test_ia_trace_has_equal_ops_different_order(self, conv_scheme, conv_keys):
        secret, public = conv_keys
        ni, no = 12, 6
        galois = conv_scheme.generate_galois_keys(secret, fc_rotation_steps(ni))
        rng = np.random.default_rng(2)
        weights = rng.integers(-4, 5, (no, ni))
        packed = pack_fc_input(rng.integers(0, 8, ni), conv_scheme.params.row_size)
        ct = conv_scheme.encrypt(conv_scheme.encoder.encode_row(packed), public)
        traces = {}
        for schedule in (Schedule.PARTIAL_ALIGNED, Schedule.INPUT_ALIGNED):
            with counting() as delta:
                fc_he_naive(conv_scheme, ct, weights, galois, schedule)
            traces[schedule] = delta()
        pa, ia = traces[Schedule.PARTIAL_ALIGNED], traces[Schedule.INPUT_ALIGNED]
        assert pa.he_mult == ia.he_mult
        assert pa.he_rotate == ia.he_rotate
