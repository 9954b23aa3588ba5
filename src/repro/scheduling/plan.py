"""Compiled linear-layer plans: offline weights, hoisted and grouped rotations.

"FC layers follow precisely the same steps as CNNs, as the core primitives
are also dot products" (Section V-B): one :class:`LinearPlan` body runs both
kinds, and :class:`ConvPlan` / :class:`FcPlan` only compile and describe
their geometry.  Against the naive Figure 5 loop nests
(:func:`repro.scheduling.conv2d.conv2d_he_naive`,
:func:`repro.scheduling.fc.fc_he_naive`) a plan removes three per-inference
costs while producing bit-identical decrypted outputs:

* **Offline eval-domain weight encoding** (Section III-B, "Cheetah keeps
  polynomials in the evaluation space"): every weight plaintext of the layer
  is encoded once at compile time into a stacked ``(k, T, n)`` evaluation-
  domain array, so no NTT is ever spent on weights during inference and the
  multiply-accumulate over all T terms runs as one fused
  :meth:`~repro.bfv.scheme.BfvScheme.mul_plain_accumulate_grouped` call.
* **Hoisted, shared input rotations** (Sched-IA, Figure 5 right / Gazelle's
  hoisting): each input ciphertext is decomposed once with
  :meth:`~repro.bfv.scheme.BfvScheme.hoist_group`, making every later rotation
  NTT-free, and the rotated inputs are computed once per distinct tap offset
  and shared across *all* output channels -- ``ci * fw^2`` key switches per
  convolution instead of the naive ``co * ci * fw^2``, all of a layer call's
  in one :meth:`~repro.bfv.scheme.BfvScheme.rotate_rows_group` kernel call.
* **Rotation grouping under Sched-PA** (Figure 5 left / Cheetah's schedule):
  rotation is linear, so all partials sharing a tap offset are summed
  *before* the single rotation that aligns them -- ``fw^2`` rotations per
  output channel instead of ``ci * fw^2``.  FC layers get the analogous
  win from the Gazelle-style extended-diagonal fold: when ``ni`` has a
  power-of-two factor ``2^f`` with ``ni / 2^f >= no``, only ``ni / 2^f``
  diagonals are materialised and ``f`` rotate-and-add folds finish the
  reduction, replacing ``ni - 1`` rotations with ``ni / 2^f - 1 + f``.

A plan has one execution body per schedule, ``execute_batch`` over ``B``
independent requests (stacked ``(k, B, ., n)`` engine calls, each
request under its own Galois keys); ``execute`` is the ``B = 1`` call, so a
request's ciphertext bytes and op counts never depend on its batch.  Sched-PA
plans therefore always rotate decompose-then-permute (a hoist used once);
``apply_galois`` stays the reference formulation the naive loops use.

Plans are weight- and parameter-bound but key-independent: compile once,
then call ``execute`` with any ciphertexts/Galois keys under the same
parameter set (the discipline :class:`~repro.protocol.gazelle.GazelleProtocol`
uses to amortise compilation across inferences).  Noise is never worse than
the naive schedule's Table III bound: Sched-PA grouping strictly reduces the
number of rotation-noise terms, and hoisted rotations carry the same additive
noise as plain ones.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ..bfv.counters import GLOBAL_COUNTERS
from ..bfv.keys import GaloisKeys
from ..bfv.scheme import BfvScheme, Ciphertext
from ..core.noise_model import Schedule
from .conv2d import _infer_width
from .layouts import tap_offset, valid_output_positions

#: Offline-encoding NTT batch cap; bounds the engine's transient work buffers.
_ENCODE_CHUNK = 128

#: Sched-PA pass budget, l_ct digit rows + 1 per rotated partial: 8 at n=2048, k=4, l_ct=7.
_PASS_BYTES = 4 << 20


def _partial_aligned(scheme, cts, batch_keys, weights, steps) -> np.ndarray:
    """Sched-PA's body for every plan: a few passes per layer call.

    ``cts`` holds the ``B`` requests' ``T`` inputs, request-major.  Terms
    ``s * T ..`` of output ``u`` (weights ``(k, U, S * T, n)``, tap-major)
    make its partial ``s``, rotated by ``steps[s]`` (``steps[0]`` is the
    identity).  Pass 0 is one weight MAC over every output's partial 0: the
    running totals.  Each later pass is one MAC, hoist and key-switch call
    over a run of one output's partials (at most ``_PASS_BYTES``), summed
    into its total; residues are canonical, so one final reduction equals
    the HE_Add chain the sums are counted as.
    """
    params = scheme.params
    if steps[0] % params.row_size:
        raise ValueError(f"partial 0 must be aligned, got step {steps[0]}")
    inputs = scheme.hoist_group(cts, decompose=False)
    k, outputs, terms, n = weights.shape
    batch, per = len(batch_keys), len(steps)
    weights = weights.reshape(k, outputs, per, terms // per, n)
    c0, c1 = (half.reshape(k, batch, -1, n) for half in (inputs.c0, inputs.c1))
    totals = np.empty((2, k, batch, outputs, n), dtype=np.int64)
    scheme.mul_plain_accumulate_grouped(c0, c1, weights[:, :, 0], out=totals)
    width = max(1, _PASS_BYTES // (8 * k * n * (params.l_ct + 1) * batch))
    for u in range(outputs):
        for lo in range(1, per, width):
            run = steps[lo : lo + width]
            acc = np.empty((2, k, batch, len(run), n), dtype=np.int64)
            scheme.mul_plain_accumulate_grouped(c0, c1, weights[:, u, lo : lo + width], out=acc)
            group = scheme.hoist_group(acc.reshape(2, k, -1, n))  # member b*R + r: run[r]
            keys = [key for key in batch_keys for _ in run]
            own_steps = [[step] for _ in batch_keys for step in run]
            out = scheme.rotate_rows_group(group, own_steps, keys)
            totals[:, :, :, u] += out.reshape(acc.shape).sum(axis=3)
    GLOBAL_COUNTERS.he_add += batch * outputs * (per - 1)
    totals %= params.coeff_basis.primes_column[:, :, None, None]
    return totals


def encode_weight_rows(scheme: BfvScheme, rows: np.ndarray) -> np.ndarray:
    """Encode T slot-row vectors into a stacked ``(k, T, n)`` eval-domain array.

    Batched equivalent of ``encode_for_mul(encoder.encode_row(row))`` per
    row -- bit-identical output, but the slot->coefficient and
    coefficient->evaluation transforms each run over whole chunks instead
    of one polynomial at a time.  Runs offline (no op counting).
    """
    rows = np.asarray(rows, dtype=np.int64)
    chunks = []
    for start in range(0, rows.shape[0], _ENCODE_CHUNK):
        chunk = rows[start : start + _ENCODE_CHUNK]
        coeffs = scheme.encoder.encode_rows(chunk)
        chunks.append(scheme.encode_coeffs_stack_for_mul(coeffs))
    return np.concatenate(chunks, axis=1)


@dataclass
class LinearPlan:
    """A compiled dot-product layer: the one execution body of both kinds.

    A request brings :attr:`inputs` ciphertexts.  Output ``u`` sums, over
    every step ``s`` of :attr:`steps` and every input ``i``, input ``i``
    rotated by ``s`` times weight term ``s * inputs + i`` of
    ``weight_stacks`` viewed as ``(k, outputs, len(steps) * inputs, n)``
    (step-major, input-minor).  :attr:`folds` rotate-and-add steps then
    finish each output.  Subclasses compile and describe their geometry;
    :attr:`KIND` and the :attr:`FACTS` fields are their :meth:`metadata`.
    """

    KIND: ClassVar[str] = ""
    FACTS: ClassVar[tuple[str, ...]] = ()

    scheme: BfvScheme
    schedule: Schedule
    #: Stacked offline-encoded weights, the term axis tap- or diagonal-major.
    weight_stacks: np.ndarray = field(repr=False)

    @staticmethod
    def from_metadata(scheme: BfvScheme, meta: dict, stack: np.ndarray) -> "LinearPlan":
        """Rebuild the plan a :meth:`metadata` dict describes over ``stack``.

        The zero-recompute warm start of an artifact (see ``from_stacks``).
        A missing, unknown or malformed field raises ``ValueError`` naming it.
        """
        kind = meta.get("kind")
        if kind not in _KINDS:
            raise ValueError(f"field 'kind': unknown plan kind {kind!r}")
        cls, facts = _KINDS[kind], {}
        for name in ("schedule", *cls.FACTS):
            try:
                value = meta[name]
                facts[name] = (
                    Schedule(value) if name == "schedule"
                    else [int(v) for v in value] if isinstance(value, list)
                    else int(value)
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"field {name!r}: {exc!r}") from exc
        return cls.from_stacks(scheme, weight_stacks=stack, **facts)

    def metadata(self) -> dict:
        """JSON-safe plan facts sufficient for :meth:`from_metadata`."""
        facts = {name: getattr(self, name) for name in self.FACTS}
        return {"kind": self.KIND, "schedule": self.schedule.value, **facts}

    @property
    def rotation_steps(self) -> list[int]:
        """Distinct Galois steps ``execute_batch`` needs keys for."""
        return sorted({step for step in (*self.steps, *self.folds) if step})

    def execute_batch(
        self,
        batch_inputs: list[list[Ciphertext]],
        batch_keys: list[GaloisKeys],
    ) -> list[list[Ciphertext]]:
        """Run the layer for ``B`` independent requests in one stacked pass.

        ``batch_inputs[i]`` holds request ``i``'s :attr:`inputs`
        ciphertexts and rotates under ``batch_keys[i]`` (each client has
        its own Galois keys).  The weight multiply-accumulates and
        key-switching digit NTTs for the whole batch run as single
        ``(k, B*T, n)`` engine calls; request ``i`` of the result (its
        outputs) is byte-identical to running it alone.
        """
        if len(batch_inputs) != len(batch_keys):
            raise ValueError(f"{len(batch_inputs)} inputs but {len(batch_keys)} key sets")
        for cts in batch_inputs:
            if len(cts) != self.inputs:
                raise ValueError(
                    f"expected {self.inputs} input ciphertexts, got {len(cts)}"
                )
        scheme, steps, inputs = self.scheme, self.steps, self.inputs
        flat = [ct for cts in batch_inputs for ct in cts]
        k, n = self.weight_stacks.shape[0], self.weight_stacks.shape[-1]
        weights = self.weight_stacks.reshape(k, -1, len(steps) * inputs, n)
        batch, outputs = len(batch_keys), weights.shape[1]
        if self.schedule is Schedule.PARTIAL_ALIGNED:
            sums = _partial_aligned(scheme, flat, batch_keys, weights, steps)
            totals = scheme.ciphertexts(sums)
        else:
            # Hoist each input once (a layer of identity steps rotates
            # nothing and skips the NTT-paying decomposition); one kernel
            # call rotates it by every step, shared across all outputs,
            # straight into its (step-major, input-minor) term slot.
            group = scheme.hoist_group(flat, decompose=any(steps))
            rot = np.empty((2, k, batch, weights.shape[2], n), dtype=np.int64)
            slots = rot.reshape(2, k, batch, len(steps), inputs, n).transpose(0, 1, 2, 4, 3, 5)
            keys = [key for key in batch_keys for _ in range(inputs)]
            scheme.rotate_rows_group(group, steps, keys, out=slots)
            # One weight MAC for the whole layer call: every request's
            # rotated stack is read once per tile for all outputs, and each
            # weight row once for all requests.
            totals = scheme.mul_plain_accumulate_grouped(rot[0], rot[1], weights)
        # Rotation linearity: each fold halves the number of groups still
        # spread across the row.
        flat = [ct for cts in totals for ct in cts]
        keys = [key for key in batch_keys for _ in range(outputs)]
        for step in self.folds:
            flat = list(map(scheme.add, flat, scheme.rotate_rows_batch(flat, step, keys)))
        return [flat[i * outputs : (i + 1) * outputs] for i in range(batch)]


@dataclass
class ConvPlan(LinearPlan):
    """A compiled valid (stride-1, dense) convolution schedule.

    Steps are the tap offsets and inputs the ``ci`` channels, so
    Sched-PA's offset groups are contiguous ``ci``-wide slices of each
    output channel's ``(k, co, fw^2 * ci, n)`` stack and Sched-IA's
    rotated-input stack is built once in the same order for all output
    channels.  No folds.
    """

    KIND = "conv"
    FACTS = ("grid_w", "co", "ci", "fw", "offsets")
    folds = ()

    grid_w: int
    co: int
    ci: int
    fw: int
    offsets: list[int]

    @property
    def inputs(self) -> int:
        return self.ci

    @property
    def steps(self) -> list[int]:
        return self.offsets

    @classmethod
    def compile(
        cls, scheme: BfvScheme, weights: np.ndarray, schedule: Schedule = Schedule.PARTIAL_ALIGNED
    ) -> "ConvPlan":
        weights = np.asarray(weights, dtype=np.int64)
        if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
            raise ValueError(f"expected (co, ci, fw, fw) filters, got {weights.shape}")
        co, ci, fw, _ = weights.shape
        row_size = scheme.params.row_size
        grid_w = _infer_width(row_size)
        taps = [(dy, dx) for dy in range(fw) for dx in range(fw)]
        offsets = [tap_offset(dy, dx, grid_w) for dy, dx in taps]
        positions = valid_output_positions(grid_w, fw)
        # 0/1 slot masks per tap (shifted by the tap offset under Sched-PA,
        # anchored at the output slots under Sched-IA), scaled by each
        # (oc, ic) filter coefficient via broadcasting.
        masks = np.zeros((fw * fw, row_size), dtype=np.int64)
        for ti, offset in enumerate(offsets):
            if schedule is Schedule.PARTIAL_ALIGNED:
                masks[ti, positions + offset] = 1
            else:
                masks[ti, positions] = 1
        # weights[oc, ic, dy, dx] -> (co, tap, ic) term order.
        w_terms = weights.transpose(0, 2, 3, 1).reshape(co, fw * fw, ci)
        rows = (w_terms[:, :, :, None] * masks[None, :, None, :]).reshape(
            co * fw * fw * ci, row_size
        )
        stacks = encode_weight_rows(scheme, rows)
        k, _, n = stacks.shape
        return cls.from_stacks(
            scheme, schedule=schedule, grid_w=grid_w, co=co, ci=ci, fw=fw, offsets=offsets,
            weight_stacks=stacks.reshape(k, co, fw * fw * ci, n),
        )

    @classmethod
    def from_stacks(
        cls, scheme: BfvScheme, *, schedule: Schedule, grid_w: int, co: int, ci: int, fw: int,
        offsets: list[int], weight_stacks: np.ndarray,
    ) -> "ConvPlan":
        """Rebuild a plan from already-encoded eval-domain weight stacks.

        The warm-start constructor: :meth:`compile` pays the offline NTT
        encoding exactly once and an artifact (:mod:`repro.artifacts`)
        persists the result; this path performs **zero recompute** -- no
        NTT calls, no copies (``weight_stacks`` may be a read-only
        ``np.memmap`` straight off an artifact file).  Shapes are
        validated against the scheme's parameters so a stack compiled
        under different ``(n, q)`` is rejected instead of corrupting
        outputs.
        """
        if min(co, ci, fw) < 1:
            raise ValueError(f"invalid conv geometry co={co}, ci={ci}, fw={fw}")
        if len(offsets) != fw * fw:
            raise ValueError(f"expected {fw * fw} tap offsets, got {len(offsets)}")
        expected = (scheme.params.coeff_basis.count, co, fw * fw * ci, scheme.params.n)
        weight_stacks = np.asarray(weight_stacks)
        if weight_stacks.shape != expected:
            raise ValueError(
                f"conv weight stack has shape {weight_stacks.shape}, "
                f"parameters require {expected}"
            )
        return cls(
            scheme=scheme, schedule=schedule, weight_stacks=weight_stacks, grid_w=int(grid_w),
            co=co, ci=ci, fw=fw, offsets=[int(offset) for offset in offsets],
        )

    def execute(
        self, channel_cts: list[Ciphertext], galois_keys: GaloisKeys
    ) -> list[Ciphertext]:
        """Run the layer: one output ciphertext per output channel.

        ``channel_cts`` holds one eval-domain ciphertext per input
        channel, each encrypting a ``grid_w x grid_w`` image packed with
        :func:`~repro.scheduling.layouts.pack_image`; ``galois_keys``
        must cover :attr:`rotation_steps`.  Output slot layout matches
        the input grid (valid positions carry the dense convolution).
        """
        return self.execute_batch([channel_cts], [galois_keys])[0]


@dataclass
class FcPlan(LinearPlan):
    """A compiled diagonal-method FC schedule with extended-diagonal folding.

    ``no_eff = ni / 2^fold_depth`` extended diagonals (rows of the weight
    matrix reused cyclically mod ``no_eff``) are the steps of one input
    and one output, stored ``(k, no_eff, n)``; then ``fold_depth``
    rotate-and-add folds collapse the ``2^fold_depth`` groups so outputs
    land in slots ``0..no-1``, exactly as in the plain diagonal method.
    """

    KIND = "fc"
    FACTS = ("ni", "no", "no_eff")
    inputs = 1

    ni: int
    no: int
    no_eff: int
    fold_steps: list[int]

    @property
    def steps(self) -> range:
        return range(self.no_eff)

    @property
    def folds(self) -> list[int]:
        return self.fold_steps

    @classmethod
    def compile(
        cls, scheme: BfvScheme, weights: np.ndarray, schedule: Schedule = Schedule.PARTIAL_ALIGNED
    ) -> "FcPlan":
        weights = np.asarray(weights, dtype=np.int64)
        no, ni = weights.shape
        if no > ni:
            raise ValueError(f"diagonal method requires no <= ni, got {weights.shape}")
        row_size = scheme.params.row_size
        if 2 * ni > row_size:
            raise ValueError(f"ni={ni} needs {2 * ni} slots, row has {row_size}")
        # Deepest fold: 2^f must divide ni and keep ni / 2^f >= no.
        fold_depth = 0
        for f in range((ni // no).bit_length() - 1, 0, -1):
            if ni % (1 << f) == 0:
                fold_depth = f
                break
        no_eff = ni >> fold_depth
        extended = np.zeros((no_eff, ni), dtype=np.int64)
        extended[:no] = weights
        s = np.arange(ni)
        rows = np.zeros((no_eff, row_size), dtype=np.int64)
        for d in range(no_eff):
            values = extended[s % no_eff, (s + d) % ni]
            if schedule is Schedule.PARTIAL_ALIGNED:
                rows[d, s + d] = values
            else:
                rows[d, s] = values
        return cls.from_stacks(
            scheme, schedule=schedule, ni=ni, no=no, no_eff=no_eff,
            weight_stacks=encode_weight_rows(scheme, rows),
        )

    @classmethod
    def from_stacks(
        cls, scheme: BfvScheme, *, schedule: Schedule, ni: int, no: int, no_eff: int,
        weight_stacks: np.ndarray,
    ) -> "FcPlan":
        """Rebuild a plan from already-encoded eval-domain diagonal stacks.

        Zero-recompute warm-start path (see :meth:`ConvPlan.from_stacks`):
        ``weight_stacks`` may be a read-only memmap; fold steps are
        rederived from ``(ni, no_eff)`` and shapes are validated against
        the scheme's parameters.
        """
        if not (0 < no <= no_eff <= ni):
            raise ValueError(f"invalid fc geometry ni={ni}, no={no}, no_eff={no_eff}")
        if ni % no_eff or (ni // no_eff) & (ni // no_eff - 1):
            raise ValueError(
                f"fold factor ni/no_eff = {ni}/{no_eff} must be a power of two"
            )
        expected = (scheme.params.coeff_basis.count, no_eff, scheme.params.n)
        weight_stacks = np.asarray(weight_stacks)
        if weight_stacks.shape != expected:
            raise ValueError(
                f"fc weight stack has shape {weight_stacks.shape}, "
                f"parameters require {expected}"
            )
        fold_depth = (ni // no_eff).bit_length() - 1
        fold_steps = [no_eff << f for f in range(fold_depth - 1, -1, -1)]
        return cls(
            scheme=scheme, schedule=schedule, weight_stacks=weight_stacks, ni=int(ni),
            no=int(no), no_eff=int(no_eff), fold_steps=fold_steps,
        )

    def execute(self, ct_x: Ciphertext, galois_keys: GaloisKeys) -> Ciphertext:
        """Run the layer on a duplicated-packing input ciphertext.

        ``ct_x`` must encrypt :func:`~repro.scheduling.layouts.pack_fc_input`
        output (the input vector duplicated across the row); results land
        in slots ``0..no-1`` with fold partials beyond -- callers read
        ``no`` slots and must treat the rest as undefined.
        """
        return self.execute_batch([[ct_x]], [galois_keys])[0][0]


#: Metadata ``kind`` -> plan class, for :meth:`LinearPlan.from_metadata`.
_KINDS = {plan.KIND: plan for plan in (ConvPlan, FcPlan)}


def compile_plans(scheme, network, weights, schedule) -> dict:
    """Compile every linear layer of ``network``: layer name -> plan."""
    from ..nn.layers import ConvLayer

    return {
        layer.name: (ConvPlan if isinstance(layer, ConvLayer) else FcPlan).compile(
            scheme, weights[layer.name], schedule
        )
        for layer in network.linear_layers
    }


def union_rotation_steps(plans: dict) -> list[int]:
    """The Galois steps a model's plans need keys for, sorted."""
    return sorted({step for plan in plans.values() for step in plan.rotation_steps})


#: Per-scheme compiled-plan cache (attached to the scheme so lifetime and
#: identity follow it); bounds memory for long-lived schemes.
_PLAN_CACHE_ATTR = "_linear_plan_cache"
_PLAN_CACHE_MAX = 32


def cached_plan(scheme: BfvScheme, cls, weights, schedule=Schedule.PARTIAL_ALIGNED):
    """Memoized ``cls.compile`` (:class:`ConvPlan` or :class:`FcPlan`), keyed by
    weight bytes.

    Lets per-call entry points (``conv2d_he``, ``fc_he``) amortise the
    offline weight encoding across repeated invocations with the same
    weights without holding a plan handle themselves.
    """
    weights = np.asarray(weights, dtype=np.int64)
    key = (cls.__name__, schedule, weights.shape, weights.tobytes())
    cache: OrderedDict | None = getattr(scheme, _PLAN_CACHE_ATTR, None)
    if cache is None:
        cache = OrderedDict()
        setattr(scheme, _PLAN_CACHE_ATTR, cache)
    plan = cache.get(key)
    if plan is None:
        plan = cls.compile(scheme, weights, schedule)
        cache[key] = plan
        if len(cache) > _PLAN_CACHE_MAX:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return plan
