"""Coverage for protocol traffic accounting and accelerator mapping edges."""

import pytest

from repro.accel import map_layer, map_network, mean_out_cts, mean_partials
from repro.core.ptune import ModelParams
from repro.nn.layers import ConvLayer, FCLayer
from repro.protocol.messages import TrafficLog, ciphertext_bytes


def mp(n=2048, q=54):
    return ModelParams(n=n, plain_bits=20, coeff_bits=q, w_dcmp_bits=10, a_dcmp_bits=9)


class TestTrafficLog:
    def test_directional_accounting(self):
        log = TrafficLog()
        log.send_to_cloud(100, "acts")
        log.send_to_client(250, "masked")
        log.end_round()
        assert log.client_to_cloud_bytes == 100
        assert log.cloud_to_client_bytes == 250
        assert log.total_bytes == 350
        assert log.rounds == 1

    def test_events_recorded(self):
        log = TrafficLog()
        log.send_to_cloud(10, "x")
        assert log.events == [("client->cloud", "x", 10)]

    def test_ciphertext_bytes_scale_with_params(self, small_params):
        assert ciphertext_bytes(small_params) == 2 * small_params.n * small_params.coeff_bits // 8


class TestMapperEdges:
    def test_split_image_case(self):
        """n < w^2: multiple ciphertexts per channel."""
        layer = ConvLayer("c", w=64, fw=3, ci=4, co=4)
        mapping = map_layer(layer, mp(n=1024))
        assert mapping.in_cts == -(-4 * 62 * 62 // 1024)
        assert mapping.out_cts > 1

    def test_fc_multiple_output_cts(self):
        layer = FCLayer("f", ni=4096, no=8192)
        mapping = map_layer(layer, mp(n=2048))
        assert mapping.out_cts == 4

    def test_map_network_requires_matching_lengths(self):
        with pytest.raises(ValueError):
            map_network([FCLayer("f", 8, 4)], [])

    def test_means(self):
        layers = [FCLayer("f1", 2048, 2048), FCLayer("f2", 2048, 4096)]
        mappings = map_network(layers, [mp(), mp()])
        assert mean_out_cts(mappings) == pytest.approx(1.5)
        assert mean_partials(mappings) > 0

    def test_rejects_activation_layer(self):
        from repro.nn.layers import ActivationLayer

        with pytest.raises(TypeError):
            map_layer(ActivationLayer("r", "relu", 10), mp())
