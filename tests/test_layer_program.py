"""A layer call as one lowered program, against the primitives it replaced.

:meth:`LinearPlan.execute_batch` runs the plan's :class:`LayerProgram` for
its batch size in one :meth:`RnsNttEngine.run_layer` call: one
``rns_layer_run`` kernel call, or, without the kernel, the same ops
interpreted on the references.  The reference here is the op-by-op
composition of :class:`BfvScheme` primitives the plan body used to be
(``hoist_group``, ``rotate_rows_group``, ``mul_plain_accumulate_grouped``,
``rotate_rows_batch`` and ``add``), kept below.  ``ConvPlan`` and ``FcPlan``
(with two folds), both schedules and ``B`` in {1, 2, 3} must give the same
bytes and the same op counters on every transform body this host runs and
with the kernel off.  One program serves any key set, refuses a missing or
short key before any op runs, runs from two threads at once, is rebuilt
unchanged from an artifact's metadata, and is the plan's only kernel call.
"""

import copy
import threading

import numpy as np
import pytest

from repro.bfv import BfvParameters, BfvScheme, native
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv.keys import GaloisKeys, KeySwitchKey
from repro.bfv.ntt_batch import LayerProgram, RnsNttEngine
from repro.core.noise_model import Schedule
from repro.scheduling import ConvPlan, FcPlan, encrypt_channels, pack_fc_input
from repro.scheduling import plan as plan_module
from repro.scheduling.conv2d import _infer_width
from repro.scheduling.plan import LinearPlan, _split

PARAMS = BfvParameters.create(
    n=256, plain_bits=18, coeff_bits=90, a_dcmp_bits=16, require_security=False
)
#: Key-switch bytes of one rotated partial; three per pass splits a 3x3 filter's taps.
PARTIAL_BYTES = 8 * PARAMS.coeff_basis.count * PARAMS.n * (PARAMS.l_ct + 1)

#: Every transform body of the kernel this host runs, then the kernel off.
BACKENDS = (
    list(native.NTT_ISA_NAMES[: native.load_kernel().ntt_isa_max() + 1])
    if native.native_available() else []
) + ["reference"]
SCHEDULES = [Schedule.PARTIAL_ALIGNED, Schedule.INPUT_ALIGNED]
GRID_W = _infer_width(PARAMS.row_size)


def _scheme(backend: str) -> BfvScheme:
    scheme = copy.copy(BfvScheme(PARAMS, seed=3))
    scheme.engine = RnsNttEngine(PARAMS.n, PARAMS.coeff_basis.primes, use_native=backend != "reference")
    if scheme.engine.uses_native_kernel:
        scheme.engine._isa = native.NTT_ISA_NAMES.index(backend)
    return scheme


@pytest.fixture(scope="module", params=BACKENDS)
def scheme(request):
    return _scheme(request.param)


@pytest.fixture(scope="module")
def clients():
    """Three requests' public and Galois keys: every step the layers below need."""
    base = BfvScheme(PARAMS, seed=3)
    steps = set(range(1, 16)) | {GRID_W * dy + dx for dy in range(3) for dx in range(3)}
    out = []
    for seed in (11, 12, 13):
        client = copy.copy(base)
        client.rng = np.random.default_rng(seed)
        secret, public = client.keygen()
        out.append((public, client.generate_galois_keys(secret, sorted(steps - {0}))))
    return out


# -- the reference: the plan body as BfvScheme primitives ------------------------


def reference_layer(plan, batch_inputs, batch_keys):
    """The layer call one primitive at a time: hoist and rotate the inputs by
    the baby steps, MAC the aligned giant group into the totals, then per run
    of rotated groups a MAC, a hoist, a rotation and an add of each rotated
    group into its total, then each fold as a batched rotation and an add."""
    scheme, inputs = plan.scheme, plan.inputs
    baby, giant = _split(plan.schedule, plan.steps)
    k, n = plan.weight_stacks.shape[0], plan.weight_stacks.shape[-1]
    weights = plan.weight_stacks.reshape(k, -1, len(giant), len(baby) * inputs, n)
    batch, outputs, groups = len(batch_keys), weights.shape[1], len(giant)
    group = scheme.hoist_group([ct for cts in batch_inputs for ct in cts], decompose=any(baby))
    rot = np.empty((2, k, batch, len(baby) * inputs, n), dtype=np.int64)
    slots = rot.reshape(2, k, batch, len(baby), inputs, n).transpose(0, 1, 2, 4, 3, 5)
    scheme.rotate_rows_group(group, baby, [key for key in batch_keys for _ in range(inputs)], out=slots)
    totals = np.empty((2, k, batch, outputs, n), dtype=np.int64)
    scheme.mul_plain_accumulate_grouped(rot[0], rot[1], weights[:, :, 0], out=totals)
    sums = scheme.ciphertexts(totals)
    width = max(1, plan_module._PASS_BYTES // (8 * k * n * (PARAMS.l_ct + 1) * batch))
    for u in range(outputs):
        for lo in range(1, groups, width):
            run = giant[lo : lo + width]
            acc = np.empty((2, k, batch, len(run), n), dtype=np.int64)
            scheme.mul_plain_accumulate_grouped(rot[0], rot[1], weights[:, u, lo : lo + width], out=acc)
            hoisted = scheme.hoist_group(acc.reshape(2, k, -1, n))
            keys = [key for key in batch_keys for _ in run]
            steps = [[step] for _ in batch_keys for step in run]
            rotated = scheme.ciphertexts(scheme.rotate_rows_group(hoisted, steps, keys))
            for m, (ct,) in enumerate(rotated):  # member b * len(run) + r
                b = m // len(run)
                sums[b][u] = scheme.add(sums[b][u], ct)
    flat = [ct for cts in sums for ct in cts]
    keys = [key for key in batch_keys for _ in range(outputs)]
    for step in plan.folds:
        flat = list(map(scheme.add, flat, scheme.rotate_rows_batch(flat, step, keys)))
    return [flat[i * outputs : (i + 1) * outputs] for i in range(batch)]


def _counted(fn):
    before = GLOBAL_COUNTERS.snapshot()
    result = fn()
    return result, GLOBAL_COUNTERS.diff(before).he_ops()


def _same_bytes(got, want):
    assert len(got) == len(want)
    for request, expected in zip(got, want):
        assert len(request) == len(expected)
        for a, b in zip(request, expected):
            assert np.array_equal(a.c0.data, b.c0.data) and np.array_equal(a.c1.data, b.c1.data)


def _layer(scheme, kind, schedule):
    rng = np.random.default_rng(5)
    if kind == "conv":
        return ConvPlan.compile(scheme, rng.integers(-4, 5, (2, 2, 3, 3)), schedule)
    plan = FcPlan.compile(scheme, rng.integers(-4, 5, (3, 16)), schedule)
    assert len(plan.folds) == 2
    return plan


def _requests(scheme, plan, clients, batch, seed=6):
    rng = np.random.default_rng(seed)
    inputs = []
    for public, _ in clients[:batch]:
        if isinstance(plan, ConvPlan):
            grids = np.zeros((plan.ci, GRID_W, GRID_W), dtype=np.int64)
            grids[:, :6, :6] = rng.integers(0, 8, (plan.ci, 6, 6))
            inputs.append(encrypt_channels(scheme, grids, public))
        else:
            row = pack_fc_input(rng.integers(0, 8, plan.ni), PARAMS.row_size)
            inputs.append([scheme.encrypt(scheme.encoder.encode_row(row), public)])
    return inputs, [keys for _, keys in clients[:batch]]


# -- byte identity -------------------------------------------------------------------


@pytest.mark.parametrize("batch", [1, 2, 3])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.value)
@pytest.mark.parametrize("kind", ["conv", "fc"])
def test_program_equals_the_primitive_composition(scheme, clients, monkeypatch, kind, schedule, batch):
    monkeypatch.setattr(plan_module, "_PASS_BYTES", 3 * PARTIAL_BYTES)
    plan = _layer(scheme, kind, schedule)
    inputs, keys = _requests(scheme, plan, clients, batch)
    got, got_ops = _counted(lambda: plan.execute_batch(inputs, keys))
    want, want_ops = _counted(lambda: reference_layer(plan, inputs, keys))
    assert got_ops == want_ops
    _same_bytes(got, want)


def test_one_program_serves_two_key_sets(scheme, clients):
    plan = _layer(scheme, "conv", Schedule.PARTIAL_ALIGNED)
    program = plan.program(1)
    for client in (0, 1):
        inputs, keys = _requests(scheme, plan, clients[client:], 1, seed=client)
        _same_bytes(plan.execute_batch(inputs, keys), reference_layer(plan, inputs, keys))
        assert plan.program(1) is program


def _spy_ops(monkeypatch, engine):
    """The ops a call ran: the kernel's entry points, or the interpreter's calls."""
    calls = []
    if engine.uses_native_kernel:
        lib = engine._kernel

        class Counting:
            def __getattr__(self, name):
                fn = getattr(lib, name)
                return lambda *args: calls.append(name) or fn(*args)

        monkeypatch.setattr(engine, "_kernel", Counting())
    else:
        original = engine._run_reference
        monkeypatch.setattr(
            engine, "_run_reference", lambda *args: calls.append("reference") or original(*args)
        )
    return calls


def test_a_missing_or_short_key_is_refused_before_any_op(scheme, clients, monkeypatch):
    plan = _layer(scheme, "fc", Schedule.INPUT_ALIGNED)
    inputs, [keys] = _requests(scheme, plan, clients, 1)
    calls = _spy_ops(monkeypatch, scheme.engine)
    elts = list(plan.program(1).elts)  # the elements the layer rotates by
    missing = GaloisKeys({elt: key for elt, key in keys.keys.items() if elt != elts[-1]})
    original = keys.keys[elts[0]]
    short = GaloisKeys({
        **keys.keys,
        elts[0]: KeySwitchKey(
            np.ascontiguousarray(original.stack[:, :, :-1]), original.base_bits, elts[0],
            original.basis,
        ),
    })
    before = GLOBAL_COUNTERS.snapshot()
    with pytest.raises(KeyError, match="no Galois key"):
        plan.execute_batch(inputs, [missing])
    with pytest.raises(ValueError, match="digit pairs"):
        plan.execute_batch(inputs, [short])
    assert calls == []
    assert GLOBAL_COUNTERS.diff(before).he_ops() == dict.fromkeys(before.he_ops(), 0)
    plan.execute_batch(inputs, [keys])
    assert calls == ["rns_layer_run" if scheme.engine.uses_native_kernel else "reference"]


@pytest.mark.parametrize("kind", ["conv", "fc"])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.value)
def test_each_layer_call_is_one_kernel_call(scheme, clients, monkeypatch, kind, schedule):
    plan = _layer(scheme, kind, schedule)
    inputs, keys = _requests(scheme, plan, clients, 2)
    plan.program(2)  # lowered once, outside the call
    calls = _spy_ops(monkeypatch, scheme.engine)
    plan.execute_batch(inputs, keys)
    assert calls == ["rns_layer_run" if scheme.engine.uses_native_kernel else "reference"]


def test_two_threads_run_one_plan_at_once(clients):
    scheme = _scheme(BACKENDS[-2] if len(BACKENDS) > 1 else "reference")
    plan = _layer(scheme, "conv", Schedule.PARTIAL_ALIGNED)
    cases = [_requests(scheme, plan, clients[c:], 1, seed=c) for c in (0, 1)]
    want = [plan.execute_batch(inputs, keys) for inputs, keys in cases]
    got, errors = [[], []], []

    def worker(c):
        try:
            for _ in range(8):
                got[c].append(plan.execute_batch(*cases[c]))
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(c,)) for c in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    for c in (0, 1):
        for result in got[c]:
            _same_bytes(result, want[c])


@pytest.mark.parametrize("kind", ["conv", "fc"])
@pytest.mark.parametrize("schedule", SCHEDULES, ids=lambda s: s.value)
def test_a_plan_rebuilt_from_metadata_lowers_to_the_same_program(scheme, kind, schedule):
    plan = _layer(scheme, kind, schedule)
    rebuilt = LinearPlan.from_metadata(scheme, plan.metadata(), plan.weight_stacks.copy())
    for batch in (1, 3):
        a, b = plan.program(batch), rebuilt.program(batch)
        assert np.array_equal(a.table, b.table) and a.records == b.records
        assert np.array_equal(a.maps, b.maps) and a.elts == b.elts and a.sizes == b.sizes
        assert a.census.he_ops() == b.census.he_ops()
        assert np.array_equal(a.weights, b.weights) and a.weights is not b.weights


def test_build_time_views_refuse_to_be_read():
    """The views a program is built from mostly have no memory behind them:
    arithmetic, numpy functions and printing fail or show no data."""
    k, n = PARAMS.coeff_basis.count, PARAMS.n
    engine = RnsNttEngine(n, PARAMS.coeff_basis.primes, use_native=False)
    prog = LayerProgram(engine, PARAMS, 1, 2, 1, np.zeros((k, 1, 2, n), np.int64))
    for view in (prog.input, prog.output[0], prog.scratch("rot", (2, k, 1, 2, n))):
        for read in (lambda v: v % 7, lambda v: v.sum(), lambda v: np.array_equal(v, v)):
            with pytest.raises(TypeError, match="layer program operand"):
                read(view)
        assert repr(view) == str(view) == f"<layer call region {view.region} operand {view.shape}>"
    assert np.broadcast_to(prog.output[:, :, :, :1], (2, k, 1, 3, n), subok=True).region == 1
