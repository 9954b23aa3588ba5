"""HE-PTune: analytical HE-parameter design-space exploration (Section IV).

Given a layer's hyperparameters, HE-PTune sweeps BFV parameter candidates
``(n, t, q, Wdcmp, Adcmp)``, rejects any whose predicted remaining noise
budget is negative (over 99% of the space, Section IV-C) or that fail
128-bit RLWE security, and returns the feasible candidate with the fewest
total integer multiplications.  Because the models are analytical, the
whole space evaluates in milliseconds per layer.

Candidates are represented by :class:`ModelParams`, a lightweight stand-in
for :class:`repro.bfv.params.BfvParameters` that avoids prime generation
during the sweep; ``ModelParams.realize()`` instantiates the winner as a
real, usable parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

from ..bfv.params import BfvParameters, DEFAULT_SIGMA
from ..bfv.security import is_secure, max_coeff_modulus_bits
from ..nn.layers import LinearLayer, required_plain_bits
from ..nn.models import Network
from ..nn.quantize import DEFAULT_ACTIVATION_BITS, DEFAULT_WEIGHT_BITS
from .noise_model import (
    NoiseEstimate,
    NoiseMode,
    Schedule,
    remaining_budget_bits,
)
from .perf_model import HeOpCounts, layer_int_mults, layer_op_counts


@dataclass(frozen=True)
class ModelParams:
    """Analytical BFV parameter candidate (duck-types BfvParameters)."""

    n: int
    plain_bits: int
    coeff_bits: int
    w_dcmp_bits: int
    a_dcmp_bits: int
    sigma: float = DEFAULT_SIGMA

    @property
    def plain_modulus(self) -> int:
        return 1 << self.plain_bits

    @property
    def coeff_modulus(self) -> int:
        return 1 << self.coeff_bits

    @property
    def w_dcmp(self) -> int:
        return 1 << self.w_dcmp_bits

    @property
    def a_dcmp(self) -> int:
        return 1 << self.a_dcmp_bits

    @property
    def l_pt(self) -> int:
        return max(1, math.ceil(self.plain_bits / self.w_dcmp_bits))

    @property
    def l_ct(self) -> int:
        return max(1, math.ceil(self.coeff_bits / self.a_dcmp_bits))

    @property
    def noise_capacity_bits(self) -> float:
        return float(self.coeff_bits - self.plain_bits - 1)

    def realize(self, require_security: bool = True) -> BfvParameters:
        """Instantiate as a concrete, usable BFV parameter set."""
        return BfvParameters.create(
            n=self.n,
            plain_bits=self.plain_bits,
            coeff_bits=self.coeff_bits,
            w_dcmp_bits=self.w_dcmp_bits,
            a_dcmp_bits=self.a_dcmp_bits,
            require_security=require_security,
        )

    def describe(self) -> str:
        return (
            f"n={self.n}, log t={self.plain_bits}, log q={self.coeff_bits}, "
            f"Wdcmp=2^{self.w_dcmp_bits} (l_pt={self.l_pt}), "
            f"Adcmp=2^{self.a_dcmp_bits} (l_ct={self.l_ct})"
        )


@dataclass(frozen=True)
class Candidate:
    """One evaluated point of the HE parameter space (a Fig. 3 blue dot)."""

    params: ModelParams
    op_counts: HeOpCounts
    int_mults: int
    noise: NoiseEstimate

    @property
    def feasible(self) -> bool:
        return self.noise.decryptable


@dataclass(frozen=True)
class TunedLayer:
    """The optimal configuration HE-PTune selected for one layer."""

    layer: LinearLayer
    params: ModelParams
    op_counts: HeOpCounts
    int_mults: int
    noise: NoiseEstimate
    schedule: Schedule


@dataclass(frozen=True)
class SearchSpace:
    """The HE-parameter grid HE-PTune sweeps."""

    n_options: tuple[int, ...] = (1024, 2048, 4096, 8192, 16384)
    q_bits_step: int = 6
    q_bits_min: int = 24
    a_dcmp_bits_options: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16, 20, 24, 28)
    w_dcmp_bits_options: tuple[int, ...] = (4, 6, 8, 10, 12, 16, 20)
    allow_no_windowing: bool = True

    def q_bits_options(self, n: int, security_level: int = 128) -> list[int]:
        ceiling = max_coeff_modulus_bits(n, security_level)
        options = list(range(self.q_bits_min, ceiling + 1, self.q_bits_step))
        if options and options[-1] != ceiling:
            options.append(ceiling)
        return options


class HePTune:
    """Per-layer HE parameter tuner (the HE-PTune box of Figure 1)."""

    def __init__(
        self,
        space: SearchSpace | None = None,
        schedule: Schedule = Schedule.PARTIAL_ALIGNED,
        mode: NoiseMode = NoiseMode.PRACTICAL,
        weight_bits: int = DEFAULT_WEIGHT_BITS,
        activation_bits: int = DEFAULT_ACTIVATION_BITS,
        margin_bits: float = 0.0,
        security_level: int = 128,
    ):
        self.space = space or SearchSpace()
        self.schedule = schedule
        self.mode = mode
        self.weight_bits = weight_bits
        self.activation_bits = activation_bits
        self.margin_bits = margin_bits
        self.security_level = security_level

    # -- candidate enumeration ------------------------------------------------

    def plain_bits_for(self, layer: LinearLayer) -> int:
        return required_plain_bits(layer, self.weight_bits, self.activation_bits)

    def _w_dcmp_options(self, plain_bits: int) -> list[int]:
        if self.schedule is Schedule.PARTIAL_ALIGNED:
            # Sched-PA multiplies raw quantized weights: no plaintext
            # decomposition, the effective window is the weight precision.
            return [self.weight_bits]
        options = [bits for bits in self.space.w_dcmp_bits_options if bits < plain_bits]
        if self.space.allow_no_windowing or not options:
            options.append(plain_bits)  # no decomposition
        return options

    def _param_space(self, plain_bits: int) -> Iterator[ModelParams]:
        """Every parameter set of the search space for one plaintext width."""
        for n in self.space.n_options:
            for q_bits in self.space.q_bits_options(n, self.security_level):
                if q_bits <= plain_bits + 1:
                    continue
                for w_bits in self._w_dcmp_options(plain_bits):
                    for a_bits in self.space.a_dcmp_bits_options:
                        if a_bits <= q_bits:
                            yield ModelParams(
                                n=n,
                                plain_bits=plain_bits,
                                coeff_bits=q_bits,
                                w_dcmp_bits=w_bits,
                                a_dcmp_bits=a_bits,
                            )

    def candidates(self, layer: LinearLayer) -> Iterator[Candidate]:
        """Every point of the search space with its predicted cost/noise."""
        for params in self._param_space(self.plain_bits_for(layer)):
            yield self.evaluate(layer, params)

    def evaluate(self, layer: LinearLayer, params: ModelParams) -> Candidate:
        """Score one parameter set with the performance and noise models.

        Sched-PA multiplies raw quantized weights, so it carries no
        plaintext decomposition: l_pt is forced to 1 and the HE_Mult noise
        factor is bounded by the actual weight precision.
        """
        if self.schedule is Schedule.PARTIAL_ALIGNED:
            weight_bits: int | None = self.weight_bits
            l_pt = 1
            windowed = False
        else:
            weight_bits = None
            l_pt = params.l_pt
            windowed = True
        noise = remaining_budget_bits(
            layer, params, self.schedule, self.mode, weight_bits, l_pt
        )
        ops = layer_op_counts(layer, params, l_pt, windowed)
        mults = layer_int_mults(layer, params, l_pt, windowed)
        return Candidate(params=params, op_counts=ops, int_mults=mults, noise=noise)

    # -- tuning -----------------------------------------------------------------

    def tune_layer(self, layer: LinearLayer) -> TunedLayer:
        """Fastest feasible configuration for one layer."""
        best: Candidate | None = None
        for candidate in self.candidates(layer):
            if candidate.noise.budget_bits <= self.margin_bits:
                continue
            if best is None or candidate.int_mults < best.int_mults:
                best = candidate
        if best is None:
            raise RuntimeError(
                f"no feasible HE parameters for layer {layer.name!r}; "
                "widen the search space or lower precision"
            )
        return TunedLayer(
            layer=layer,
            params=best.params,
            op_counts=best.op_counts,
            int_mults=best.int_mults,
            noise=best.noise,
            schedule=self.schedule,
        )

    def tune_network(self, network: Network) -> list[TunedLayer]:
        """Per-layer tuning for every linear layer of a model."""
        return [self.tune_layer(layer) for layer in network.linear_layers]

    def tune_network_global(self, network: Network) -> list[TunedLayer]:
        """Single best configuration shared by all layers (Gazelle-style).

        The paper's red stars: "Gazelle uses the same sets of HE
        parameters for all layers", provisioned for the worst-case layer.
        """
        layers = network.linear_layers
        plain_bits = max(self.plain_bits_for(layer) for layer in layers)
        best_total: int | None = None
        best_params: ModelParams | None = None
        for params in self._param_space(plain_bits):
            total = 0
            for layer in layers:
                candidate = self.evaluate(layer, params)
                if candidate.noise.budget_bits <= self.margin_bits:
                    break
                total += candidate.int_mults
            else:
                if best_total is None or total < best_total:
                    best_total = total
                    best_params = params
        if best_params is None:
            raise RuntimeError(
                f"no single HE parameter set is feasible for all layers of "
                f"{network.name}"
            )
        return [
            TunedLayer(
                layer=layer,
                params=best_params,
                op_counts=(c := self.evaluate(layer, best_params)).op_counts,
                int_mults=c.int_mults,
                noise=c.noise,
                schedule=self.schedule,
            )
            for layer in layers
        ]


def infeasible_fraction(tuner: HePTune, layer: LinearLayer) -> float:
    """Fraction of the DSE space with negative remaining budget.

    The paper reports over 99% of evaluated points fail (Section IV-C).
    """
    total = 0
    infeasible = 0
    for candidate in tuner.candidates(layer):
        total += 1
        if not candidate.feasible:
            infeasible += 1
    return infeasible / total if total else 0.0
