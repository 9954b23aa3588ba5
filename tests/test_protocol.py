"""Tests for the Gazelle private-inference protocol and the garbled
circuit simulation."""

import numpy as np
import pytest

from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.nn.layers import ActivationLayer, ConvLayer, FCLayer
from repro.nn.models import Network
from repro.nn.plaintext import PlaintextRunner
from repro.nn.quantize import synthetic_conv_weights, synthetic_fc_weights
from repro.protocol import (
    GarbledEvaluator,
    GazelleProtocol,
    ciphertext_bytes,
    gc_postprocess,
    maxpool_circuit_cost,
    relu_circuit_cost,
)


@pytest.fixture(scope="module")
def tiny_net():
    return Network(
        "TinyCNN",
        [
            ConvLayer("conv1", w=8, fw=3, ci=1, co=2),
            ActivationLayer("relu1", "relu", 2 * 6 * 6),
            ActivationLayer("pool1", "maxpool", 2 * 3 * 3, pool_size=2),
            FCLayer("fc1", 18, 5),
            ActivationLayer("relu2", "relu", 5),
            FCLayer("fc2", 5, 3),
        ],
    )


@pytest.fixture(scope="module")
def tiny_weights():
    return {
        "conv1": synthetic_conv_weights(3, 1, 2, bits=5, seed=0),
        "fc1": synthetic_fc_weights(18, 5, bits=5, seed=1),
        "fc2": synthetic_fc_weights(5, 3, bits=5, seed=2),
    }


@pytest.fixture(scope="module")
def proto_params():
    return BfvParameters.create(
        n=4096, plain_bits=20, coeff_bits=100, a_dcmp_bits=16
    )


class TestGarbledEvaluator:
    """The cost tally, charged by the GC stage `gc_postprocess`."""

    def test_masked_relu_correct(self):
        t = 1032193
        evaluator = GarbledEvaluator(bit_width=20)
        values = np.array([5, -3, 0, 100], dtype=object)
        rng = np.random.default_rng(0)
        unmask = rng.integers(0, t, 4).astype(object)
        masked = (values + unmask) % t
        relu = [ActivationLayer("relu", "relu", 4)]
        result = gc_postprocess(masked, unmask, relu, evaluator, t, 0)
        assert list(result) == [5, 0, 0, 100]

    def test_masked_maxpool_correct(self):
        t = 1032193
        evaluator = GarbledEvaluator(bit_width=20)
        values = np.array([[[1, 2], [3, 4]]], dtype=object)
        rng = np.random.default_rng(1)
        unmask = rng.integers(0, t, (1, 2, 2)).astype(object)
        masked = (values + unmask) % t
        pool = [ActivationLayer("pool", "maxpool", 1, pool_size=2)]
        result = gc_postprocess(masked, unmask, pool, evaluator, t, 0)
        assert int(result[0, 0, 0]) == 4

    def test_gc_costs_accumulate(self):
        evaluator = GarbledEvaluator(bit_width=20)
        values = np.zeros(10, dtype=object)
        relu = [ActivationLayer("relu", "relu", 10)]
        gc_postprocess(values, values, relu, evaluator, 1032193, 0)
        assert evaluator.total_cost.and_gates == 10 * 4 * 20

    def test_relu_cost_scales_linearly(self):
        assert relu_circuit_cost(20, 16).and_gates == 2 * relu_circuit_cost(10, 16).and_gates

    def test_maxpool_cost_grows_with_window(self):
        small = maxpool_circuit_cost(10, 2, 16)
        large = maxpool_circuit_cost(10, 3, 16)
        assert large.and_gates > small.and_gates

    def test_communication_bytes(self):
        cost = relu_circuit_cost(1, 16)
        assert cost.communication_bytes == (cost.communication_bits + 7) // 8


class TestProtocol:
    @pytest.fixture(scope="class")
    def result_and_reference(self, tiny_net, tiny_weights, proto_params):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 16, (1, 8, 8))
        expected = PlaintextRunner(tiny_net, tiny_weights, rescale_bits=4).run(image)
        proto = GazelleProtocol(
            tiny_net, tiny_weights, proto_params, rescale_bits=4, seed=5
        )
        return proto.run(image), expected

    def test_matches_plaintext(self, result_and_reference):
        result, expected = result_and_reference
        assert np.array_equal(result.logits, expected)

    def test_noise_budget_never_exhausted(self, result_and_reference):
        result, _ = result_and_reference
        assert result.min_noise_budget > 0

    def test_traffic_accounted(self, result_and_reference, proto_params):
        result, _ = result_and_reference
        # At least one ciphertext each way per linear layer.
        assert result.traffic.rounds == 3
        assert result.traffic.client_to_cloud_bytes >= 3 * ciphertext_bytes(proto_params)
        assert result.traffic.cloud_to_client_bytes >= 3 * ciphertext_bytes(proto_params)

    def test_gc_gates_positive(self, result_and_reference):
        result, _ = result_and_reference
        assert result.gc_cost.and_gates > 0

    def test_ia_schedule_also_correct(self, tiny_net, tiny_weights, proto_params):
        rng = np.random.default_rng(4)
        image = rng.integers(0, 16, (1, 8, 8))
        expected = PlaintextRunner(tiny_net, tiny_weights, rescale_bits=4).run(image)
        proto = GazelleProtocol(
            tiny_net,
            tiny_weights,
            proto_params,
            schedule=Schedule.INPUT_ALIGNED,
            rescale_bits=4,
            seed=6,
        )
        assert np.array_equal(proto.run(image).logits, expected)

    def test_fc_only_network(self, proto_params):
        net = Network(
            "MLP",
            [
                FCLayer("fc1", 16, 8),
                ActivationLayer("relu1", "relu", 8),
                FCLayer("fc2", 8, 4),
            ],
        )
        weights = {
            "fc1": synthetic_fc_weights(16, 8, bits=5, seed=3),
            "fc2": synthetic_fc_weights(8, 4, bits=5, seed=4),
        }
        rng = np.random.default_rng(8)
        image = rng.integers(0, 16, 16)
        expected = PlaintextRunner(net, weights, rescale_bits=4).run(image)
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=4, seed=9)
        result = proto.run(image.reshape(1, 4, 4))
        assert np.array_equal(result.logits, expected.reshape(-1))


class TestProtocolVariants:
    def test_avgpool_network(self, proto_params):
        net = Network(
            "AvgNet",
            [
                ConvLayer("conv1", w=8, fw=3, ci=1, co=2),
                ActivationLayer("relu1", "relu", 2 * 6 * 6),
                ActivationLayer("pool1", "avgpool", 2 * 3 * 3, pool_size=2),
                FCLayer("fc1", 18, 4),
            ],
        )
        weights = {
            "conv1": synthetic_conv_weights(3, 1, 2, bits=5, seed=20),
            "fc1": synthetic_fc_weights(18, 4, bits=5, seed=21),
        }
        rng = np.random.default_rng(22)
        image = rng.integers(0, 16, (1, 8, 8))
        expected = PlaintextRunner(net, weights, rescale_bits=4).run(image)
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=4, seed=23)
        assert np.array_equal(proto.run(image).logits, expected)

    def test_back_to_back_linear_layers(self, proto_params):
        """Two FC layers with no activation between them."""
        net = Network(
            "Linear2",
            [FCLayer("fc1", 12, 8), FCLayer("fc2", 8, 3)],
        )
        weights = {
            "fc1": synthetic_fc_weights(12, 8, bits=4, seed=30),
            "fc2": synthetic_fc_weights(8, 3, bits=4, seed=31),
        }
        rng = np.random.default_rng(32)
        image = rng.integers(0, 8, 12)
        expected = PlaintextRunner(net, weights, rescale_bits=3).run(image)
        proto = GazelleProtocol(net, weights, proto_params, rescale_bits=3, seed=33)
        result = proto.run(image.reshape(1, 1, 12).reshape(1, 2, 6))
        assert np.array_equal(result.logits, expected)

    def test_different_seeds_same_logits(self, tiny_net, tiny_weights, proto_params):
        """Masking randomness must never change the computed function."""
        rng = np.random.default_rng(40)
        image = rng.integers(0, 16, (1, 8, 8))
        a = GazelleProtocol(tiny_net, tiny_weights, proto_params, rescale_bits=4, seed=41)
        b = GazelleProtocol(tiny_net, tiny_weights, proto_params, rescale_bits=4, seed=42)
        assert np.array_equal(a.run(image).logits, b.run(image).logits)
