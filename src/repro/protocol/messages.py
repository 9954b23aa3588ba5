"""Wire-level accounting for the Gazelle protocol.

Cheetah assumes Gazelle's communication costs unchanged (Section II-A);
these helpers size ciphertexts and tally per-round traffic so protocol
benches can report what the paper holds constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bfv.params import BfvParameters


def ciphertext_bytes(params: BfvParameters) -> int:
    """Serialized size of one ciphertext: 2 polynomials of n log2(q)-bit
    coefficients."""
    return 2 * params.n * params.coeff_bits // 8


@dataclass
class TrafficLog:
    """Bytes and rounds exchanged between client and cloud."""

    client_to_cloud_bytes: int = 0
    cloud_to_client_bytes: int = 0
    rounds: int = 0
    events: list = field(default_factory=list)

    def send_to_cloud(self, num_bytes: int, label: str) -> None:
        self.client_to_cloud_bytes += num_bytes
        self.events.append(("client->cloud", label, num_bytes))

    def send_to_client(self, num_bytes: int, label: str) -> None:
        self.cloud_to_client_bytes += num_bytes
        self.events.append(("cloud->client", label, num_bytes))

    def end_round(self) -> None:
        self.rounds += 1

    @property
    def total_bytes(self) -> int:
        return self.client_to_cloud_bytes + self.cloud_to_client_bytes
