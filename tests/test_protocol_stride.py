"""Regression: strided/padded convolutions through the full protocol.

The protocol's conv round used to ignore ``ConvLayer.stride``
and ``padding`` entirely -- it always returned the dense valid-convolution
outputs, so any network with a stride-2 or padded conv produced wrong
logits with no error.  These tests pin the fix against the plaintext
oracle end to end.
"""

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.layers import ActivationLayer, ConvLayer, FCLayer
from repro.nn.models import Network
from repro.nn.plaintext import PlaintextRunner
from repro.nn.quantize import synthetic_conv_weights, synthetic_fc_weights
from repro.protocol import GazelleProtocol


@pytest.fixture(scope="module")
def proto_params():
    return BfvParameters.create(
        n=4096, plain_bits=20, coeff_bits=100, a_dcmp_bits=16
    )


@pytest.fixture(scope="module")
def strided_net():
    # conv1: (8 + 2*1 - 3) // 2 + 1 = 4 output pixels per side.
    return Network(
        "StridedCNN",
        [
            ConvLayer("conv1", w=8, fw=3, ci=1, co=2, stride=2, padding=1),
            ActivationLayer("relu1", "relu", 2 * 4 * 4),
            FCLayer("fc1", 32, 5),
        ],
    )


@pytest.fixture(scope="module")
def strided_weights():
    return {
        "conv1": synthetic_conv_weights(3, 1, 2, bits=5, seed=50),
        "fc1": synthetic_fc_weights(32, 5, bits=5, seed=51),
    }


class TestStridedPaddedProtocol:
    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_stride2_padding1_matches_plaintext(
        self, strided_net, strided_weights, proto_params, schedule
    ):
        rng = np.random.default_rng(52)
        image = rng.integers(0, 16, (1, 8, 8))
        expected = PlaintextRunner(strided_net, strided_weights, rescale_bits=4).run(
            image
        )
        proto = GazelleProtocol(
            strided_net,
            strided_weights,
            proto_params,
            schedule=schedule,
            rescale_bits=4,
            seed=53,
        )
        result = proto.run(image)
        assert np.array_equal(result.logits, expected)
        assert result.min_noise_budget > 0

    @pytest.mark.parametrize("schedule", list(Schedule))
    def test_served_path_matches_the_protocol(
        self, strided_net, strided_weights, proto_params, schedule
    ):
        """The same model through ``ClientSession`` / ``ServingEngine``: the
        wire still carries conv1's dense, unstrided mask block; only the
        client applies the stride."""
        from repro.serving import (
            ClientSession,
            LoopbackTransport,
            ModelRegistry,
            ServingEngine,
        )

        class RecordingTransport(LoopbackTransport):
            def request(self, message):
                reply = super().request(message)
                if reply.kind == "linear_ok":
                    mask_shapes[reply.meta["layer"]] = reply.meta["mask_shape"]
                return reply

        mask_shapes: dict = {}
        image = np.random.default_rng(54).integers(0, 16, (1, 8, 8))
        expected = PlaintextRunner(strided_net, strided_weights, rescale_bits=4).run(
            image
        )
        proto = GazelleProtocol(
            strided_net, strided_weights, proto_params,
            schedule=schedule, rescale_bits=4, seed=55,
        )
        registry = ModelRegistry()
        registry.register(
            "strided", strided_net, strided_weights, proto_params,
            schedule=schedule, rescale_bits=4,
        )
        transport = RecordingTransport(ServingEngine(registry, max_batch=1))
        session = ClientSession(strided_net, proto_params, transport, seed=56)
        session.connect("strided")
        logits = session.infer(image).logits
        assert np.array_equal(logits, expected)
        assert np.array_equal(logits, proto.run(image).logits)
        assert mask_shapes["conv1"] == [2, 8, 8]
        assert mask_shapes["fc1"] == [5]

    def test_padding_only_same_conv(self, proto_params):
        """'Same' convolution: padded 7x7 stays 7x7 through the protocol."""
        net = Network(
            "SameCNN",
            [
                ConvLayer("conv1", w=7, fw=3, ci=1, co=2, padding=1),
                ActivationLayer("relu1", "relu", 2 * 7 * 7),
                FCLayer("fc1", 98, 4),
            ],
        )
        weights = {
            "conv1": synthetic_conv_weights(3, 1, 2, bits=5, seed=60),
            "fc1": synthetic_fc_weights(98, 4, bits=5, seed=61),
        }
        rng = np.random.default_rng(62)
        image = rng.integers(0, 16, (1, 7, 7))
        expected = PlaintextRunner(net, weights, rescale_bits=4).run(image)
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=4, seed=63)
        assert np.array_equal(proto.run(image).logits, expected)

    def test_stride_only_mid_network(self, proto_params):
        """A stride-2 conv fed by a stride-1 conv (shapes threaded through)."""
        net = Network(
            "Stride2Deep",
            [
                ConvLayer("conv1", w=9, fw=3, ci=1, co=2),
                ActivationLayer("relu1", "relu", 2 * 7 * 7),
                ConvLayer("conv2", w=7, fw=3, ci=2, co=2, stride=2),
                ActivationLayer("relu2", "relu", 2 * 3 * 3),
                FCLayer("fc1", 18, 4),
            ],
        )
        weights = {
            "conv1": synthetic_conv_weights(3, 1, 2, bits=4, seed=70),
            "conv2": synthetic_conv_weights(3, 2, 2, bits=4, seed=71),
            "fc1": synthetic_fc_weights(18, 4, bits=4, seed=72),
        }
        rng = np.random.default_rng(73)
        image = rng.integers(0, 8, (1, 9, 9))
        expected = PlaintextRunner(net, weights, rescale_bits=4).run(image)
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=4, seed=74)
        assert np.array_equal(proto.run(image).logits, expected)

    def test_every_conv_output_slot_is_masked(
        self, strided_net, strided_weights, proto_params
    ):
        """Privacy: the *entire* slot row must be blinded before a conv
        output leaves the cloud -- not just the dense block the client
        reads.  The schedule leaves partial filter responses in grid-edge
        slots and a stride > 1 discards positions after decryption; any
        unmasked slot hands the client a clean linear equation in the
        model weights."""
        from repro.nn.plaintext import conv2d
        from repro.protocol.gazelle import blind_ciphertext_rows, client_linear_round
        from repro.protocol.messages import TrafficLog
        from repro.scheduling import encrypt_channels
        from repro.scheduling.layouts import linear_output_view, unpack_image

        rng = np.random.default_rng(90)
        image = rng.integers(0, 16, (1, 8, 8))
        proto = GazelleProtocol(
            strided_net, strided_weights, proto_params, rescale_bits=4, seed=91
        )
        # Public path: the returned mask/masked pair is stride-subsampled.
        layer = strided_net.layers[0]
        masked, mask = client_linear_round(
            proto.scheme, proto.secret, proto.public, layer, image,
            proto.plans["conv1"].grid_w,
            lambda layer, cts: proto._cloud_round(layer, cts, TrafficLog(), []),
        )
        assert masked.shape == mask.shape == (2, 4, 4)

        # Cloud side, replayed: compare each masked ciphertext against the
        # raw (unmasked) schedule output across the whole slot row.  An
        # unmasked region shows up as a run of zero differences; honest
        # full-row masking leaves at most the handful of slots where the
        # uniform mask drew 0 (deterministic seeds).
        t = proto_params.plain_modulus
        scheme = proto.scheme
        plan = proto.plans["conv1"]
        grid_w = plan.grid_w
        padded = np.pad(image, ((0, 0), (1, 1), (1, 1)))
        dense = conv2d(padded, strided_weights["conv1"]) % t
        dense_w = dense.shape[1]
        grids = np.zeros((1, grid_w, grid_w), dtype=np.int64)
        grids[:, : padded.shape[1], : padded.shape[2]] = padded
        cts = encrypt_channels(scheme, grids, proto.public)
        out_cts = plan.execute(cts, proto.galois_keys)
        masked_cts, mask_rows = blind_ciphertext_rows(scheme, proto.rng, out_cts)
        mask_dense = linear_output_view(layer, mask_rows, grid_w)
        for oc, ct in enumerate(masked_cts):
            raw = scheme.encoder.decode_row(
                scheme.decrypt(out_cts[oc], proto.secret), signed=False
            )
            blinded = scheme.encoder.decode_row(
                scheme.decrypt(ct, proto.secret), signed=False
            )
            unmasked_slots = int(np.count_nonzero((blinded - raw) % t == 0))
            assert unmasked_slots <= 4, f"{unmasked_slots} slots left unmasked"
            got = unpack_image(blinded, grid_w)[:dense_w, :dense_w]
            assert np.array_equal((got - mask_dense[oc]) % t, dense[oc])

    def test_fc_fold_slots_are_masked(self, proto_params):
        """Privacy: the FC fold leaves partial weight sums in slots >= no;
        every slot of the row must be blinded before leaving the cloud."""
        from repro.nn.quantize import synthetic_fc_weights
        from repro.protocol.gazelle import blind_ciphertext_rows
        from repro.scheduling import FcPlan, linear_output_view, pack_fc_input

        ni, no = 24, 7
        net = Network("Mlp", [FCLayer("fc1", ni, no)])
        weights = {"fc1": synthetic_fc_weights(ni, no, bits=5, seed=95)}
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=4, seed=96)
        scheme = proto.scheme
        plan = proto.plans["fc1"]
        assert isinstance(plan, FcPlan) and plan.fold_steps  # fold actually fires
        rng = np.random.default_rng(97)
        x = rng.integers(0, 16, ni)
        packed = pack_fc_input(x, proto_params.row_size)
        ct = scheme.encrypt(scheme.encoder.encode_row(packed), proto.public)
        out_ct = plan.execute(ct, proto.galois_keys)
        raw = scheme.encoder.decode_row(
            scheme.decrypt(out_ct, proto.secret), signed=False
        )
        # The fold's residue beyond slot no is real weight information ...
        assert np.any(raw[no : 2 * ni] != 0)
        # ... and the protocol's masking blinds all of it.
        [masked_ct], mask_rows = blind_ciphertext_rows(scheme, proto.rng, [out_ct])
        mask = linear_output_view(net.layers[0], mask_rows, None)
        blinded = scheme.encoder.decode_row(
            scheme.decrypt(masked_ct, proto.secret), signed=False
        )
        t = proto_params.plain_modulus
        diff = (blinded - raw) % t
        assert np.all(diff[no : 2 * ni] != 0), "fold residue slots left unmasked"
        assert int(np.count_nonzero(diff == 0)) <= 4
        assert np.array_equal(
            (blinded[:no] - mask) % t, (weights["fc1"] @ x) % t
        )

    def test_oversized_padded_image_rejected(self, proto_params):
        net = Network(
            "TooBig",
            [ConvLayer("conv1", w=64, fw=3, ci=1, co=1, padding=1)],
        )
        weights = {"conv1": synthetic_conv_weights(3, 1, 1, bits=4, seed=80)}
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=4, seed=81)
        with pytest.raises(ValueError):
            proto.run(np.zeros((1, 64, 64), dtype=np.int64))
