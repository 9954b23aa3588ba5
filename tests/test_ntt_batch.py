"""Property and cross-check tests for the batched RNS-NTT engine.

The engine must be bit-identical to the per-limb reference
:class:`NttContext` on every path (the reference fallback and, when a
compiler is present, every transform body of the native C kernel the
host runs), keep
its lazily-reduced outputs fully reduced into [0, p), and leave the
paper's NTT/modmul accounting exactly as the scalar implementation
recorded it.
"""

import importlib.util
import platform
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv import native
from repro.bfv.counters import GLOBAL_COUNTERS
from repro.bfv.modmath import generate_ntt_primes
from repro.bfv.ntt import NttContext, naive_negacyclic_multiply
from repro.bfv.ntt_batch import RnsNttEngine, get_context, get_engine
from repro.bfv.native import NTT_ISA_NAMES, native_available

N = 64
K = 3

PATHS = [False] + ([None] if native_available() else [])
PATH_IDS = ["numpy"] + (["native"] if native_available() else [])


@pytest.fixture(scope="module")
def moduli():
    return generate_ntt_primes(28, N, K)


@pytest.fixture(scope="module", params=PATHS, ids=PATH_IDS)
def engine(request, moduli):
    return RnsNttEngine(N, moduli, use_native=request.param)


@pytest.fixture(scope="module")
def contexts(moduli):
    return [NttContext(N, m) for m in moduli]


def random_stack(moduli, shape_tail, seed):
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, m, shape_tail, dtype=np.int64) for m in moduli]
    )


class TestCrossCheck:
    @pytest.mark.parametrize("batch", [None, 1, 4])
    def test_forward_matches_context_bit_exactly(self, engine, contexts, moduli, batch):
        tail = (N,) if batch is None else (batch, N)
        stack = random_stack(moduli, tail, seed=batch or 0)
        got = engine.forward(stack, count_ops=False)
        ref = np.stack(
            [contexts[i].forward(stack[i], count_ops=False) for i in range(K)]
        )
        assert np.array_equal(got, ref)

    @pytest.mark.parametrize("batch", [None, 1, 4])
    def test_inverse_matches_context_bit_exactly(self, engine, contexts, moduli, batch):
        tail = (N,) if batch is None else (batch, N)
        stack = random_stack(moduli, tail, seed=10 + (batch or 0))
        got = engine.inverse(stack, count_ops=False)
        ref = np.stack(
            [contexts[i].inverse(stack[i], count_ops=False) for i in range(K)]
        )
        assert np.array_equal(got, ref)

    def test_roundtrip_identity(self, engine, moduli):
        stack = random_stack(moduli, (5, N), seed=2)
        back = engine.inverse(engine.forward(stack, count_ops=False), count_ops=False)
        assert np.array_equal(back, stack)

    def test_negative_and_unreduced_inputs_are_reduced(self, engine, contexts, moduli):
        rng = np.random.default_rng(3)
        stack = rng.integers(-(1 << 40), 1 << 40, (K, N), dtype=np.int64)
        got = engine.forward(stack, count_ops=False)
        ref = np.stack(
            [contexts[i].forward(stack[i], count_ops=False) for i in range(K)]
        )
        assert np.array_equal(got, ref)

    def test_matches_naive_negacyclic_multiply(self, engine, moduli):
        rng = np.random.default_rng(4)
        a = random_stack(moduli, (N,), seed=5)
        b = random_stack(moduli, (N,), seed=6)
        fast = engine.negacyclic_multiply(a, b)
        for i, m in enumerate(moduli):
            assert np.array_equal(fast[i], naive_negacyclic_multiply(a[i], b[i], m))

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_convolution_property_small_ring(self, data):
        n = 8
        moduli = generate_ntt_primes(18, n, 2)
        engine = RnsNttEngine(n, moduli, use_native=False)
        stack_a = np.stack(
            [
                np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
                for m in moduli
            ]
        )
        stack_b = np.stack(
            [
                np.array(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
                for m in moduli
            ]
        )
        fast = engine.negacyclic_multiply(stack_a, stack_b)
        for i, m in enumerate(moduli):
            assert np.array_equal(
                fast[i], naive_negacyclic_multiply(stack_a[i], stack_b[i], m)
            )


class TestLazyReduction:
    """Lazy intermediates must never leak: outputs live in [0, p)."""

    @pytest.mark.parametrize("batch", [1, 3])
    def test_forward_fully_reduced(self, engine, moduli, batch):
        stack = random_stack(moduli, (batch, N), seed=7)
        out = engine.forward(stack, count_ops=False)
        for i, m in enumerate(moduli):
            assert out[i].min() >= 0
            assert out[i].max() < m

    @pytest.mark.parametrize("batch", [1, 3])
    def test_inverse_fully_reduced(self, engine, moduli, batch):
        stack = random_stack(moduli, (batch, N), seed=8)
        out = engine.inverse(stack, count_ops=False)
        for i, m in enumerate(moduli):
            assert out[i].min() >= 0
            assert out[i].max() < m


class TestAccounting:
    """The refactor must not change GLOBAL_COUNTERS NTT/modmul tallies."""

    def test_forward_counts_match_scalar_loop(self, engine, contexts, moduli):
        stack = random_stack(moduli, (4, N), seed=9)
        before = GLOBAL_COUNTERS.snapshot()
        engine.forward(stack)
        batched = GLOBAL_COUNTERS.diff(before)
        before = GLOBAL_COUNTERS.snapshot()
        for i in range(K):
            contexts[i].forward(stack[i])
        scalar = GLOBAL_COUNTERS.diff(before)
        assert batched.ntt == scalar.ntt == 4 * K
        assert batched.butterflies == scalar.butterflies

    def test_count_ops_false_is_silent(self, engine, moduli):
        stack = random_stack(moduli, (N,), seed=11)
        before = GLOBAL_COUNTERS.snapshot()
        engine.inverse(engine.forward(stack, count_ops=False), count_ops=False)
        delta = GLOBAL_COUNTERS.diff(before)
        assert delta.ntt == 0 and delta.butterflies == 0

    def test_pointwise_counts_modmuls(self, engine, moduli):
        a = random_stack(moduli, (N,), seed=12)
        b = random_stack(moduli, (N,), seed=13)
        before = GLOBAL_COUNTERS.snapshot()
        engine.pointwise(a, b)
        assert GLOBAL_COUNTERS.diff(before).modmuls == K * N

    def test_pointwise_accumulate_counts_like_loop(self, engine, contexts, moduli):
        batch = 5
        a = random_stack(moduli, (batch, N), seed=14)
        b = random_stack(moduli, (batch, N), seed=15)
        before = GLOBAL_COUNTERS.snapshot()
        fused = engine.pointwise_accumulate(a, b)
        fused_delta = GLOBAL_COUNTERS.diff(before)
        before = GLOBAL_COUNTERS.snapshot()
        acc = np.zeros((K, N), dtype=np.int64)
        for d in range(batch):
            for i in range(K):
                term = contexts[i].pointwise(a[i, d], b[i, d])
                acc[i] = (acc[i] + term) % moduli[i]
        loop_delta = GLOBAL_COUNTERS.diff(before)
        assert np.array_equal(fused, acc)
        assert fused_delta.modmuls == loop_delta.modmuls == batch * K * N

    def test_rotation_census_is_unchanged(self, small_scheme, small_keys, small_galois):
        """HE_Rotate still records k*(1 + l_ct) NTTs and 2*l_ct*k*n modmuls."""
        secret, public = small_keys
        ct = small_scheme.encrypt_values(np.arange(small_scheme.params.n) % 50, public)
        params = small_scheme.params
        before = GLOBAL_COUNTERS.snapshot()
        small_scheme.rotate_rows(ct, 1, small_galois)
        delta = GLOBAL_COUNTERS.diff(before)
        k = params.coeff_basis.count
        assert delta.he_rotate == 1
        assert delta.ntt == k * (1 + params.l_ct)
        assert delta.modmuls == 2 * params.l_ct * k * params.n


class TestEngineConstruction:
    def test_get_engine_is_memoized(self, moduli):
        assert get_engine(N, moduli) is get_engine(N, tuple(moduli))
        assert get_engine(N, list(moduli)) is get_engine(N, moduli)

    def test_contexts_are_shared_via_get_context(self, moduli):
        engine = get_engine(N, moduli)
        for m, context in zip(moduli, engine.contexts):
            assert context is get_context(N, m)

    def test_scheme_and_encoder_share_memoized_engines(self, small_scheme):
        from repro.bfv import BatchEncoder, BfvScheme

        other = BfvScheme(small_scheme.params, seed=1)
        assert other.engine is small_scheme.engine
        assert (
            BatchEncoder(small_scheme.params).engine
            is small_scheme.encoder.engine
        )

    def test_shape_validation(self, engine):
        with pytest.raises(ValueError):
            engine.forward(np.zeros((K + 1, N), dtype=np.int64))
        with pytest.raises(ValueError):
            engine.forward(np.zeros((K, N // 2), dtype=np.int64))

    def test_requires_moduli(self):
        with pytest.raises(ValueError):
            RnsNttEngine(N, ())

    def test_concurrent_transforms_are_isolated(self, engine, contexts, moduli):
        """Memoized engines are shared across threads: concurrent
        transforms on one engine must each get their own result, on the
        lock-free C path and on the reference fallback alike."""
        import concurrent.futures

        stacks = [random_stack(moduli, (2, N), seed=20 + i) for i in range(8)]
        refs = [
            np.stack([contexts[i].forward(s[i], count_ops=False) for i in range(K)])
            for s in stacks
        ]
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            results = list(
                pool.map(lambda s: engine.forward(s, count_ops=False), stacks)
            )
        for got, ref in zip(results, refs):
            assert np.array_equal(got, ref)

    def test_numpy_and_native_paths_agree(self, moduli):
        if not native_available():
            pytest.skip("no C compiler: only the reference path exists")
        numpy_engine = RnsNttEngine(N, moduli, use_native=False)
        native_engine = RnsNttEngine(N, moduli, use_native=None)
        assert native_engine.uses_native_kernel
        stack = random_stack(moduli, (3, N), seed=16)
        assert np.array_equal(
            numpy_engine.forward(stack, count_ops=False),
            native_engine.forward(stack, count_ops=False),
        )
        assert np.array_equal(
            numpy_engine.inverse(stack, count_ops=False),
            native_engine.inverse(stack, count_ops=False),
        )


class TestIsaBodies:
    """Every transform body of the C kernel the host has, bit-exact.

    ``n`` covers the sizes where the vector bodies switch in (AVX-512 from
    16, AVX2 from 8; the scalar body below) up to the served default 4096
    and 8192, and the moduli are the served 25-bit and maximal 30-bit
    ones, whose lazy bound 4p sits just below the 2^32 the 32-bit Shoup
    product needs; inputs of all p - 1 (and of all 0) take the butterflies
    to the edges of that range.
    """

    @pytest.fixture(params=range(len(NTT_ISA_NAMES)), ids=NTT_ISA_NAMES)
    def isa(self, request):
        if not native_available():
            pytest.skip("no compiled kernel")
        if request.param > native.load_kernel().ntt_isa_max():
            pytest.skip(f"this CPU has no {NTT_ISA_NAMES[request.param]}")
        return request.param

    @pytest.mark.parametrize("bits", [25, 30])
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 2048, 4096, 8192])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_matches_context_bit_exactly(self, isa, bits, n, batch):
        moduli = generate_ntt_primes(bits, n, 2)
        engine = RnsNttEngine(n, moduli)
        engine._isa = isa
        rng = np.random.default_rng(n + batch + bits)
        inputs = {
            "random": np.stack([rng.integers(0, m, (batch, n)) for m in moduli]),
            "all p-1": np.stack([np.full((batch, n), m - 1) for m in moduli]),
            "all 0": np.zeros((len(moduli), batch, n), dtype=np.int64),
        }
        for name, stack in inputs.items():
            for direction in ("forward", "inverse"):
                got = getattr(engine, direction)(stack, count_ops=False)
                ref = np.stack(
                    [
                        getattr(get_context(n, m), direction)(stack[i], count_ops=False)
                        for i, m in enumerate(moduli)
                    ]
                )
                assert np.array_equal(got, ref), (name, direction)

    def test_status_names_the_body_the_engine_runs(self):
        if not native_available():
            pytest.skip("no compiled kernel")
        engine = RnsNttEngine(N, generate_ntt_primes(28, N, K))
        assert native.kernel_status()["ntt_isa"] == NTT_ISA_NAMES[engine._isa]
        cpuinfo = Path("/proc/cpuinfo")
        if platform.machine() == "x86_64" and cpuinfo.exists():
            flags = set()
            for line in cpuinfo.read_text().splitlines():
                if line.startswith("flags"):
                    flags.update(line.split(":", 1)[1].split())
            widest = next(
                (isa for isa in ("avx512f", "avx2") if isa in flags), "scalar"
            )
            assert NTT_ISA_NAMES[engine._isa] == widest



class TestKernelCache:
    """Where ``repro.bfv.native`` caches compiled kernels.

    A source tree caches under its own ``build/ntt``, a plain copy of
    ``src`` included, so a sanitizer build pre-seeded into one copy's
    ``shared_object_path()`` is loaded by no other tree; an installed
    package keeps the per-user temp dir.
    """

    @staticmethod
    def _build_dir_of(native_py: Path) -> Path:
        native_py.parent.mkdir(parents=True)
        shutil.copy(native.__file__, native_py)
        spec = importlib.util.spec_from_file_location("native_copy", native_py)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module._build_dir()

    def test_a_copied_source_tree_caches_under_its_own_build_dir(self, tmp_path):
        root = tmp_path.resolve() / "copy"
        build = self._build_dir_of(root / "src" / "repro" / "bfv" / "native.py")
        assert build == root / "build" / "ntt" and build.is_dir()

    def test_an_installed_package_caches_in_a_per_user_temp_dir(self, tmp_path):
        build = self._build_dir_of(tmp_path / "site-packages" / "repro" / "bfv" / "native.py")
        assert build.parent == Path(tempfile.gettempdir())
        assert build.name.startswith("repro-ntt-build-")
