"""Both endpoints of the one plan body against the formulations they run as.

A layer call (one lowered program) rotates every input by its baby steps
in one key-switch op, then runs a few passes: one weight MAC over every
output's aligned giant group, then per run of rotated groups one MAC, one
hoist and one key-switch op, each group under its own Galois element, summed into
per-output running totals.  Sched-PA is the endpoint with one baby step
(the identity) and a giant group per tap or diagonal; its reference is the
loop that runs one partial at a time (``mul_plain_accumulate_grouped``,
then ``rotate_rows_batch``, then ``add``).  Sched-IA is the endpoint with
one giant group; its reference rotates every input by every step with
``rotate_rows_batch``, then runs one MAC.  Outputs must be byte-identical
and every counter delta equal, on both engine paths, for one request and a
batch of two, with pass budgets that do and do not divide a layer's
partials.  The op structure of both endpoints' lowered program is pinned
too, so a regression to one op per partial, or a pass after Sched-IA's
MAC, fails here.
"""

import copy
import math

import numpy as np
import pytest

from repro.bfv import BfvParameters, BfvScheme, native
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv import ntt_batch
from repro.bfv.ntt_batch import RnsNttEngine
from repro.core.noise_model import Schedule
from repro.scheduling import ConvPlan, FcPlan, encrypt_channels, pack_fc_input
from repro.scheduling import plan as plan_module
from repro.scheduling.conv2d import _infer_width

PATHS = [False] + ([None] if native.native_available() else [])
PATH_IDS = ["numpy"] + (["native"] if native.native_available() else [])

PARAMS = BfvParameters.create(
    n=256, plain_bits=18, coeff_bits=90, a_dcmp_bits=16, require_security=False
)
#: Key-switch bytes of one rotated partial under ``PARAMS``.
PARTIAL_BYTES = 8 * PARAMS.coeff_basis.count * PARAMS.n * (PARAMS.l_ct + 1)


@pytest.fixture(scope="module", params=PATHS, ids=PATH_IDS)
def scheme(request):
    base = BfvScheme(PARAMS, seed=3)
    scheme = copy.copy(base)
    scheme.engine = RnsNttEngine(PARAMS.n, PARAMS.coeff_basis.primes, use_native=request.param)
    return scheme


@pytest.fixture(scope="module")
def clients(scheme):
    """Two requests' keys: every step a conv or FC layer below needs."""
    steps = list(range(1, 32)) + [_infer_width(PARAMS.row_size) * dy + dx for dy in range(3) for dx in range(3)]
    out = []
    for seed in (11, 12):
        client = copy.copy(scheme)
        client.rng = np.random.default_rng(seed)
        secret, public = client.keygen()
        out.append((public, client.generate_galois_keys(secret, sorted(set(steps) - {0}))))
    return out


def _same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.c0.data, b.c0.data) and np.array_equal(a.c1.data, b.c1.data)


# -- the per-partial formulation ------------------------------------------------


def per_partial_conv(plan, batch_inputs, batch_keys):
    """One weight MAC, one rotate_rows_batch and one add per (oc, tap) partial."""
    scheme, ci = plan.scheme, plan.ci
    c0 = np.stack([np.stack([ct.c0.data for ct in cts], axis=1) for cts in batch_inputs], axis=1)
    c1 = np.stack([np.stack([ct.c1.data for ct in cts], axis=1) for cts in batch_inputs], axis=1)
    outputs = [[] for _ in batch_inputs]
    for oc in range(plan.co):
        totals = [None] * len(batch_inputs)
        for ti, offset in enumerate(plan.offsets):
            terms = plan.weight_stacks[:, oc, ti * ci : (ti + 1) * ci]
            partials = scheme.mul_plain_accumulate_grouped(c0, c1, terms)
            if offset:
                partials = scheme.rotate_rows_batch(partials, offset, batch_keys)
            totals = [p if t is None else scheme.add(t, p) for t, p in zip(totals, partials)]
        for i, total in enumerate(totals):
            outputs[i].append(total)
    return outputs


def per_partial_fc(plan, cts, batch_keys):
    """One weight MAC, one rotate_rows_batch and one add per diagonal, then the folds."""
    scheme = plan.scheme
    c0 = np.stack([ct.c0.data for ct in cts], axis=1)[:, :, None]
    c1 = np.stack([ct.c1.data for ct in cts], axis=1)[:, :, None]
    totals = [None] * len(cts)
    for d in range(plan.no_eff):
        partials = scheme.mul_plain_accumulate_grouped(c0, c1, plan.weight_stacks[:, d : d + 1])
        if d:
            partials = scheme.rotate_rows_batch(partials, d, batch_keys)
        totals = [p if t is None else scheme.add(t, p) for t, p in zip(totals, partials)]
    return _folds(plan, totals, batch_keys)


def _folds(plan, totals, batch_keys):
    for step in plan.fold_steps:
        rotated = plan.scheme.rotate_rows_batch(totals, step, batch_keys)
        totals = [plan.scheme.add(t, r) for t, r in zip(totals, rotated)]
    return totals


# -- the per-input formulation ----------------------------------------------------


def _refund_hoists(scheme, cts, steps):
    """Take back the hoists of ``cts`` past the first from the counters:
    ``rotate_rows_batch`` decomposes its inputs once per rotated step, the
    plan once per layer call; every other tally must agree as it stands."""
    extra = max(0, sum(1 for step in steps if step) - 1)
    before = GLOBAL_COUNTERS.snapshot()
    scheme.hoist_group(cts)
    GLOBAL_COUNTERS.fold(GLOBAL_COUNTERS.diff(before).he_ops(), sign=-(extra + 1))


def _term_stacks(terms):
    """``terms[b]``, request ``b``'s ciphertexts, as ``(k, B, T, n)`` halves."""
    return [
        np.stack([np.stack([getattr(ct, half).data for ct in row], axis=1) for row in terms], axis=1)
        for half in ("c0", "c1")
    ]


def per_input_conv(plan, batch_inputs, batch_keys):
    """Every input rotated by every tap with rotate_rows_batch, then one weight MAC."""
    scheme, ci = plan.scheme, plan.ci
    flat = [ct for cts in batch_inputs for ct in cts]
    keys = [key for key in batch_keys for _ in range(ci)]
    rotated = [scheme.rotate_rows_batch(flat, offset, keys) for offset in plan.offsets]
    _refund_hoists(scheme, flat, plan.offsets)
    c0, c1 = _term_stacks([
        [taps[b * ci + ic] for taps in rotated for ic in range(ci)]
        for b in range(len(batch_inputs))
    ])
    return scheme.mul_plain_accumulate_grouped(c0, c1, plan.weight_stacks)


def per_input_fc(plan, cts, batch_keys):
    """The input rotated by every diagonal with rotate_rows_batch, one weight MAC,
    then the folds."""
    scheme = plan.scheme
    rotated = [scheme.rotate_rows_batch(cts, d, batch_keys) for d in plan.steps]
    _refund_hoists(scheme, cts, plan.steps)
    c0, c1 = _term_stacks([[diagonals[b] for diagonals in rotated] for b in range(len(cts))])
    return _folds(plan, scheme.mul_plain_accumulate_grouped(c0, c1, plan.weight_stacks), batch_keys)


REFERENCES = {
    Schedule.PARTIAL_ALIGNED: (per_partial_conv, per_partial_fc),
    Schedule.INPUT_ALIGNED: (per_input_conv, per_input_fc),
}


def _ops(fn):
    before = GLOBAL_COUNTERS.snapshot()
    result = fn()
    return result, GLOBAL_COUNTERS.diff(before).he_ops()


def _conv_inputs(scheme, clients, ci, batch, seed):
    grid_w = _infer_width(PARAMS.row_size)
    rng = np.random.default_rng(seed)
    inputs = []
    for public, _ in clients[:batch]:
        grids = np.zeros((ci, grid_w, grid_w), dtype=np.int64)
        grids[:, :6, :6] = rng.integers(0, 8, (ci, 6, 6))
        inputs.append(encrypt_channels(scheme, grids, public))
    return inputs, [keys for _, keys in clients[:batch]]


# -- byte identity ------------------------------------------------------------------


#: (pass budget, schedule): Sched-PA under the default budget (every run in
#: one pass) and one that splits a 3x3 filter's 8 rotated taps 3 + 3 + 2 at
#: one request; Sched-IA has one giant group, so no pass to split.
CASES = {
    "default": (plan_module._PASS_BYTES, Schedule.PARTIAL_ALIGNED),
    "three": (3 * PARTIAL_BYTES, Schedule.PARTIAL_ALIGNED),
    "sched-ia": (plan_module._PASS_BYTES, Schedule.INPUT_ALIGNED),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("shape", [(2, 2, 3), (3, 2, 1)], ids=["3x3-ci2", "1x1"])
def test_conv_passes_equal_the_per_partial_loop(scheme, clients, monkeypatch, case, batch, shape):
    co, ci, fw = shape
    budget, schedule = CASES[case]
    monkeypatch.setattr(plan_module, "_PASS_BYTES", budget)
    weights = np.random.default_rng(5).integers(-4, 5, (co, ci, fw, fw))
    plan = ConvPlan.compile(scheme, weights, schedule)
    inputs, keys = _conv_inputs(scheme, clients, ci, batch, seed=6)
    got, got_ops = _ops(lambda: plan.execute_batch(inputs, keys))
    want, want_ops = _ops(lambda: REFERENCES[schedule][0](plan, inputs, keys))
    assert got_ops == want_ops
    for member in range(batch):
        _same_bytes(got[member], want[member])


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("shape", [(7, 24), (1, 8)], ids=["no_eff-12", "no_eff-1"])
def test_fc_passes_equal_the_per_partial_loop(scheme, clients, monkeypatch, case, batch, shape):
    budget, schedule = CASES[case]
    monkeypatch.setattr(plan_module, "_PASS_BYTES", budget)
    weights = np.random.default_rng(7).integers(-4, 5, shape)
    plan = FcPlan.compile(scheme, weights, schedule)
    assert (plan.no_eff > 1) == (shape[0] > 1)
    rng = np.random.default_rng(8)
    cts = [
        scheme.encrypt(
            scheme.encoder.encode_row(pack_fc_input(rng.integers(0, 8, shape[1]), PARAMS.row_size)),
            public,
        )
        for public, _ in clients[:batch]
    ]
    keys = [keys for _, keys in clients[:batch]]
    got, got_ops = _ops(lambda: [out for [out] in plan.execute_batch([[ct] for ct in cts], keys)])
    want, want_ops = _ops(lambda: REFERENCES[schedule][1](plan, cts, keys))
    assert got_ops == want_ops
    _same_bytes(got, want)


def test_unaligned_first_tap_is_refused(scheme, clients):
    """Offsets straight from artifact metadata: the passes start the totals
    from partial 0 unrotated, so a plan whose first offset is not the
    identity is an error, not a wrong output."""
    plan = ConvPlan.compile(scheme, np.ones((1, 1, 3, 3), dtype=np.int64))
    shifted = ConvPlan.from_stacks(
        scheme, schedule=plan.schedule, grid_w=plan.grid_w, co=1, ci=1, fw=3,
        offsets=plan.offsets[1:] + plan.offsets[:1], weight_stacks=plan.weight_stacks,
    )
    inputs, keys = _conv_inputs(scheme, clients, 1, 1, seed=4)
    with pytest.raises(ValueError, match="partial 0 must be aligned"):
        shifted.execute_batch(inputs, keys)


# -- call structure -------------------------------------------------------------------


@pytest.mark.parametrize(
    "batch, schedule",
    [(1, Schedule.PARTIAL_ALIGNED), (2, Schedule.PARTIAL_ALIGNED),
     (1, Schedule.INPUT_ALIGNED), (2, Schedule.INPUT_ALIGNED)],
    ids=["1", "2", "sched-ia-1", "sched-ia-2"],
)
def test_conv_layer_call_structure(scheme, clients, monkeypatch, batch, schedule):
    """The ops of the lowered layer call.  Sched-PA: one weight MAC per pass,
    ceil(rotated / per pass) key-switch tables, none for the aligned pass,
    no hoist whose k B l_ct digit rows exceed the budget.  Sched-IA: one
    key-switch table rotating every input by every tap, then one weight MAC
    and no op after it.  Every transform runs inside a hoist, and the call
    is one ``run_layer``: no other engine entry point."""
    per_pass = 4
    monkeypatch.setattr(plan_module, "_PASS_BYTES", per_pass * PARTIAL_BYTES)
    co, ci, fw = 3, 2, 3
    plan = ConvPlan.compile(
        scheme, np.random.default_rng(9).integers(-4, 5, (co, ci, fw, fw)), schedule
    )
    inputs, keys = _conv_inputs(scheme, clients, ci, batch, seed=10)
    engine = scheme.engine
    log = []

    def spy(name):
        original = getattr(engine, name)

        def wrapper(*args, **kwargs):
            log.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(engine, name, wrapper)

    names = ("weight_accumulate", "keyswitch_rotate", "hoist", "forward", "inverse", "run_layer")
    for name in names:
        spy(name)
    plan.execute_batch(inputs, keys)
    assert log == ["run_layer"]
    records = plan.program(batch).records
    macs = sum(1 for kind, *_ in records if kind == ntt_batch._MAC)
    keyswitch = [len(extra[1]) for kind, *_, extra in records if kind == ntt_batch._KEYSWITCH]
    rows = [
        math.prod(refs[0][2]) // PARAMS.n * PARAMS.l_ct
        for kind, *refs, _ in records if kind == ntt_batch._HOIST
    ]
    if schedule is Schedule.INPUT_ALIGNED:
        assert macs == 1
        assert keyswitch == [batch * ci * (fw * fw - 1)]
        assert records[-1][0] == ntt_batch._MAC
        return
    rotated = co * (fw * fw - 1)
    width = per_pass // batch
    passes = 1 + co * math.ceil((fw * fw - 1) / width)
    assert macs == passes
    assert keyswitch == [batch * width] * math.ceil(rotated / width)
    assert max(rows) * 8 * PARAMS.n <= per_pass * PARTIAL_BYTES
    assert max(rows) == PARAMS.coeff_basis.count * batch * width * PARAMS.l_ct
