"""The client side of the serving protocol.

A :class:`ClientSession` owns everything the cloud must never see: the
secret key, the plaintext activations, and the unmasked layer outputs.
It drives one session against any :class:`~repro.serving.transport.
Transport`:

1. ``connect`` -- parameter handshake (the server validates the client's
   :func:`~repro.bfv.serialize.params_to_dict` against the model), then a
   one-time Galois-key upload covering exactly the rotation steps the
   server's compiled plans need.
2. ``infer`` -- per linear layer: pack + encrypt the activations, ship
   the ciphertexts, receive the blinded outputs plus the dense mask
   block, decrypt, and run the simulated garbled-circuit stage (unmask,
   truncate, ReLU/pooling) locally before the next round.

The client loop and the slot layout are the in-process reference's own:
``infer`` runs :func:`~repro.protocol.gazelle.run_client` and each round
is :func:`~repro.protocol.gazelle.client_linear_round` with the wire
exchange as its round function.  Only the transport differs, so a
loopback session returns logits bit-identical to
:meth:`GazelleProtocol.run <repro.protocol.gazelle.GazelleProtocol.run>`.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass

import numpy as np

from ..bfv.noise import invariant_noise_budget
from ..bfv.params import BfvParameters
from ..bfv.scheme import BfvScheme
from ..bfv.serialize import (
    deserialize_ciphertext,
    params_to_dict,
    serialize_ciphertext,
    serialize_galois_keys,
)
from ..nn.models import Network
from ..protocol.garbled import GcCost
from ..protocol.gazelle import client_linear_round, run_client
from .transport import Transport
from .wire import TRACE_META_KEY, Message, ServingError, raise_on_error


@dataclass
class ServingResult:
    """Client-side outcome of one remote private inference."""

    logits: np.ndarray
    rounds: int
    gc_cost: GcCost
    #: Minimum invariant noise budget observed across received ciphertexts
    #: (``inf`` when ``track_noise`` is off -- measuring costs a decrypt).
    min_noise_budget: float
    #: Rounds this inference re-issued after a transport failure (0 on
    #: transports without retry support).  Replays are bit-identical, so
    #: a non-zero count changes nothing about the logits.
    transport_retries: int = 0
    #: Rounds re-issued after a server ``busy`` (backpressure) reply.
    #: Like transport replays, busy retries never change the logits.
    busy_retries: int = 0


class ClientSession:
    """One client's connection-scoped state and inference driver."""

    def __init__(
        self,
        network: Network,
        params: BfvParameters,
        transport: Transport,
        seed: int = 0,
        track_noise: bool = False,
        tenant: str = "default",
        busy_retry_limit: int = 64,
        trace_requests: bool = False,
    ):
        self.network = network
        self.params = params
        self.transport = transport
        self.track_noise = track_noise
        #: Tenant label sent in the handshake; the server's admission
        #: controller rate-limits per tenant.
        self.tenant = tenant
        #: Consecutive ``busy`` replies tolerated per round before giving up.
        self.busy_retry_limit = int(busy_retry_limit)
        #: Stamp a client-minted trace id on every request so server-side
        #: traces are correlatable with this session; ids the server
        #: echoes back collect in :attr:`trace_ids`.
        self.trace_requests = bool(trace_requests)
        #: Trace ids echoed in replies (in request order, one per round
        #: the server traced) -- feed them to the server's tracer /
        #: ``repro trace`` to pull this session's span trees.
        self.trace_ids: list[str] = []
        self.scheme = BfvScheme(params, seed=seed)
        self.secret, self.public = self.scheme.keygen()
        self.session_id: str | None = None
        self.rescale_bits: int = 0
        self._layer_meta: dict = {}
        self._busy_retries = 0

    # -- setup --------------------------------------------------------------

    def _send(self, message: Message) -> Message:
        """One transport round; stamps/collects trace context when enabled.

        ``setdefault`` keeps the id stable across busy/transport replays
        of the same round, so every attempt lands in one trace.
        """
        if self.trace_requests:
            message.meta.setdefault(
                TRACE_META_KEY, {"trace_id": uuid.uuid4().hex[:16]}
            )
        reply = self.transport.request(message)
        ctx = reply.meta.get(TRACE_META_KEY)
        if isinstance(ctx, dict) and ctx.get("trace_id"):
            self.trace_ids.append(str(ctx["trace_id"]))
        return reply

    def connect(self, model: str) -> None:
        """Handshake and Galois-key upload; raises ServingError on rejection."""
        reply = raise_on_error(
            self._send(
                Message(
                    "hello",
                    {
                        "model": model,
                        "params": params_to_dict(self.params),
                        "tenant": self.tenant,
                    },
                )
            )
        )
        self.session_id = reply.require("session")
        self.rescale_bits = int(reply.require("rescale_bits"))
        self._layer_meta = reply.require("layers")
        steps = [int(step) for step in reply.require("rotation_steps")]
        galois = self.scheme.generate_galois_keys(self.secret, steps)
        raise_on_error(
            self._send(
                Message(
                    "galois_keys",
                    {"session": self.session_id},
                    [serialize_galois_keys(galois, self.params)],
                )
            )
        )

    def close(self) -> None:
        if self.session_id is not None:
            self._send(Message("close", {"session": self.session_id}))
            self.session_id = None

    # -- inference ----------------------------------------------------------

    def infer(self, image: np.ndarray) -> ServingResult:
        """Private inference on a (ci, w, w) integer input tensor."""
        if self.session_id is None:
            raise RuntimeError("call connect() before infer()")
        self._min_budget = float("inf")
        retries_before = getattr(self.transport, "retries", 0)
        busy_before = self._busy_retries
        logits, gc_cost = run_client(
            self.network, image, self._linear_round, self.params.plain_modulus,
            self.rescale_bits,
        )
        return ServingResult(
            logits=logits,
            rounds=len(self.network.linear_layers),
            gc_cost=gc_cost,
            min_noise_budget=self._min_budget,
            transport_retries=(
                getattr(self.transport, "retries", 0) - retries_before
            ),
            busy_retries=self._busy_retries - busy_before,
        )

    def _linear_round(self, layer, activations):
        """Encrypt -> request -> decrypt for one linear layer."""
        return client_linear_round(
            self.scheme, self.secret, self.public, layer, activations,
            self._layer_meta[layer.name].get("grid_w"), self._request_linear,
        )

    def _request_busy_retry(self, message: Message) -> Message:
        """Issue one round, honouring server backpressure.

        A ``busy`` reply is the admission layer shedding load, not a
        failure: sleep for the server's ``retry_after_s`` hint and
        re-issue the identical round.  The protocol is deterministic and
        replayable, so the eventual reply is bit-identical to what an
        immediately admitted request would have received.
        """
        for _attempt in range(self.busy_retry_limit + 1):
            reply = self._send(message)
            if reply.kind != "busy":
                return reply
            self._busy_retries += 1
            time.sleep(min(float(reply.meta.get("retry_after_s", 0.05)), 5.0))
        raise ServingError(
            f"server still busy after {self.busy_retry_limit} retries"
        )

    def _request_linear(self, layer, cts):
        """The wire round: ship ``cts``, return ``(masked_cts, mask)``."""
        reply = raise_on_error(
            self._request_busy_retry(
                Message(
                    "linear",
                    {"session": self.session_id, "layer": layer.name},
                    [serialize_ciphertext(ct, self.params) for ct in cts],
                )
            )
        )
        if reply.kind != "linear_ok" or not reply.blobs:
            raise ServingError(f"{layer.name}: expected a linear_ok reply with the mask blob, "
                               f"got {reply.kind!r} with {len(reply.blobs)} blob(s)")
        shape = tuple(int(dim) for dim in reply.require("mask_shape"))
        count = int(np.prod(shape)) if shape else 1
        mask_blob = reply.blobs[-1]
        if len(mask_blob) != count * 4:
            raise ValueError(
                f"mask blob for {layer.name!r} has {len(mask_blob)} bytes, "
                f"expected {count * 4}"
            )
        mask = np.frombuffer(mask_blob, dtype="<u4").astype(np.int64).reshape(shape)
        masked_cts = [
            deserialize_ciphertext(blob, self.params) for blob in reply.blobs[:-1]
        ]
        self._observe_noise(masked_cts)
        return masked_cts, mask

    def _observe_noise(self, cts) -> None:
        if not self.track_noise:
            return
        for ct in cts:
            self._min_budget = min(
                self._min_budget,
                invariant_noise_budget(self.scheme, ct, self.secret),
            )
