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
  domain array, so no NTT is ever spent on weights during inference.
* **Hoisted, shared input rotations** (Sched-IA, Figure 5 right / Gazelle's
  hoisting): each input ciphertext is decomposed once, making every later
  rotation NTT-free, and the rotated inputs are computed once per distinct
  tap offset and shared across *all* output channels -- ``ci * fw^2`` key
  switches per convolution instead of the naive ``co * ci * fw^2``.
* **Rotation grouping under Sched-PA** (Figure 5 left / Cheetah's schedule):
  rotation is linear, so all partials sharing a tap offset are summed
  *before* the single rotation that aligns them -- ``fw^2`` rotations per
  output channel instead of ``ci * fw^2``.  FC layers get the analogous
  win from the Gazelle-style extended-diagonal fold: when ``ni`` has a
  power-of-two factor ``2^f`` with ``ni / 2^f >= no``, only ``ni / 2^f``
  diagonals are materialised and ``f`` rotate-and-add folds finish the
  reduction, replacing ``ni - 1`` rotations with ``ni / 2^f - 1 + f``.

Both schedules are endpoints of one baby-step/giant-step body (Halevi-Shoup,
:func:`_split`), lowered once per batch size into a kernel program
(:func:`_lower`) that ``execute_batch`` runs for ``B`` requests in one
kernel call, each under its own Galois keys; ``execute`` is the ``B = 1``
call, so a request's bytes and op counts never depend on its batch.  Giant
steps therefore rotate decompose-then-permute (a hoist used once).

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

from ..bfv.keys import GaloisKeys
from ..bfv.ntt_batch import LayerProgram
from ..bfv.scheme import BfvScheme, Ciphertext
from ..core.noise_model import Schedule
from .conv2d import _infer_width
from .layouts import tap_offset, valid_output_positions

#: Offline-encoding NTT batch cap; bounds the engine's transient work buffers.
_ENCODE_CHUNK = 128

#: Giant-pass budget, l_ct digit rows + 1 per rotated group: 8 at n=2048, k=4, l_ct=7.
_PASS_BYTES = 4 << 20


def _split(schedule: Schedule, steps) -> tuple[list[int], list[int]]:
    """The schedule as ``(baby, giant)`` steps: the one place it is read.

    Step ``g * len(baby) + b`` rotates the inputs by ``baby[b]`` before
    the product and, summed into giant group ``g``, by ``giant[g]`` after
    it.  Sched-IA rotates every input by every step (``(steps, [0])``),
    Sched-PA every partial (``([0], steps)``).
    """
    return (list(steps), [0]) if schedule is Schedule.INPUT_ALIGNED else ([0], list(steps))


def _lower(plan: "LinearPlan", batch: int) -> LayerProgram:
    """The plan's layer call for ``batch`` requests, as one kernel program.

    Each input is hoisted once (unless every baby step is the identity) and
    rotated by every baby step, shared across all outputs, into its
    (baby-major, input-minor) term slot.  Pass 0 is one weight MAC over
    every output's giant group 0: the totals.  Each later pass is one MAC,
    hoist and key switch over a run of one output's groups (at most
    ``_PASS_BYTES``), rotated straight into its total under ``accumulate``:
    the target repeats each request's total row over the run (stride 0), so
    the kernel sums the run there, mod q.  Each fold rotates and adds the
    totals in place.
    """
    scheme, inputs, params = plan.scheme, plan.inputs, plan.scheme.params
    baby, giant = _split(plan.schedule, plan.steps)
    if giant[0] % params.row_size:
        raise ValueError(f"partial 0 must be aligned, got step {giant[0]}")
    k, n = plan.weight_stacks.shape[0], plan.weight_stacks.shape[-1]
    weights = plan.weight_stacks.reshape(k, -1, len(giant), len(baby) * inputs, n)
    outputs, terms, elt = weights.shape[1], weights.shape[3], scheme.galois_elt_for_step
    prog = LayerProgram(scheme.engine, params, batch, inputs, outputs, weights)
    x, totals, weights = prog.input, prog.output, prog.weights
    rot = prog.scratch("rot", (2, k, batch, terms, n))
    slots = rot.reshape(2, k, batch, len(baby), inputs, n).transpose(0, 1, 2, 4, 3, 5)
    elts = [[elt(step) for step in baby]] * batch * inputs
    prog.rotate(x, prog.hoist(x) if any(baby) else None, elts, slots, inputs)
    prog.mac(rot, weights[:, :, 0], totals)
    width = max(1, _PASS_BYTES // (8 * k * n * (params.l_ct + 1) * batch))
    for u in range(outputs):
        total = totals[:, :, :, u, None, None]  # new axes have stride 0
        for lo in range(1, len(giant), width):
            run = giant[lo : lo + width]
            acc = prog.scratch("acc", (2, k, batch, len(run), n))
            prog.mac(rot, weights[:, u, lo : lo + width], acc)
            group = acc.reshape(2, k, -1, n)  # member b * R + r: run[r]
            target = np.broadcast_to(total, (2, k, batch, len(run), 1, n), subok=True)
            elts = [[elt(step)] for _ in range(batch) for step in run]
            prog.rotate(group, prog.hoist(group), elts, target, len(run), accumulate=True)
    prog.census.he_add += batch * outputs * (len(giant) - 1)
    # Rotation linearity: each fold halves the number of groups still
    # spread across the row.
    flat = totals.reshape(2, k, -1, n)
    for step in plan.folds:
        digits = prog.hoist(flat) if step % params.row_size else None
        elts = [[elt(step)]] * batch * outputs
        prog.rotate(flat, digits, elts, flat[:, :, :, None], outputs, accumulate=True)
        prog.census.he_add += batch * outputs
    return prog.finish()


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
    (step-major, input-minor; step ``g * len(baby) + b`` is baby ``b`` of
    giant group ``g``).  :attr:`folds` rotate-and-add steps then finish each
    output.  Subclasses compile and describe their geometry; :attr:`KIND`
    and the :attr:`FACTS` fields are their :meth:`metadata`.
    """

    KIND: ClassVar[str] = ""
    FACTS: ClassVar[tuple[str, ...]] = ()

    scheme: BfvScheme
    schedule: Schedule
    #: Stacked offline-encoded weights, the term axis tap- or diagonal-major.
    weight_stacks: np.ndarray = field(repr=False)
    #: Batch size -> the layer call lowered for it (:meth:`program`).
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Run the layer for ``B`` independent requests in one kernel call.

        ``batch_inputs[i]`` holds request ``i``'s :attr:`inputs`
        ciphertexts and rotates under ``batch_keys[i]`` (each client has
        its own Galois keys).  The inputs are stacked, and one
        :meth:`~repro.bfv.ntt_batch.RnsNttEngine.run_layer` call runs the
        :meth:`program` for ``B`` over them; request ``i`` of the result
        (its outputs, views of one output stack) is byte-identical to
        running it alone.
        """
        if len(batch_inputs) != len(batch_keys):
            raise ValueError(f"{len(batch_inputs)} inputs but {len(batch_keys)} key sets")
        for cts in batch_inputs:
            if len(cts) != self.inputs:
                raise ValueError(f"expected {self.inputs} input ciphertexts, got {len(cts)}")
        program = self.program(len(batch_keys))
        stack = np.empty(program.input_shape, dtype=np.int64)
        for i, ct in enumerate(ct for cts in batch_inputs for ct in cts):
            stack[0, :, i], stack[1, :, i] = ct.c0.data, ct.c1.data
        return self.scheme.ciphertexts(self.scheme.engine.run_layer(program, stack, batch_keys))

    def program(self, batch: int) -> LayerProgram:
        """The layer call for ``batch`` requests, lowered once (:func:`_lower`)."""
        program = self._programs.get(batch)
        if program is None:
            program = self._programs[batch] = _lower(self, batch)
        return program


@dataclass
class ConvPlan(LinearPlan):
    """A compiled valid (stride-1, dense) convolution schedule.

    Steps are the tap offsets and inputs the ``ci`` channels: each output
    channel's ``(k, co, fw^2 * ci, n)`` stack is tap-major, in the order the
    baby-rotated input stack is built once for all of them.  No folds.
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
        # 0/1 slot masks per tap (the output slots shifted by the tap's
        # giant step), scaled by each (oc, ic) filter coefficient via
        # broadcasting.
        baby, giant = _split(schedule, offsets)
        masks = np.zeros((fw * fw, row_size), dtype=np.int64)
        for ti in range(fw * fw):
            masks[ti, positions + giant[ti // len(baby)]] = 1
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
        baby, giant = _split(schedule, range(no_eff))
        for d in range(no_eff):
            rows[d, s + giant[d // len(baby)]] = extended[s % no_eff, (s + d) % ni]
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
