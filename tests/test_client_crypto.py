"""The client's BFV crypto on the kernel tier, pinned byte for byte.

Encryption is one forward transform of the ``(k, 4, n)`` stack of u, e0,
e1 and Delta m plus one ``rns_mul_add`` pass; decryption is the phase in
one pass, the inverse transform and the fixed-point scale-and-round
(``rns_scale_round``); the Delta m lift of encryption, ``add_plain`` and
the cloud's blind is ``rns_lift``.  The seeded ciphertexts, plaintexts
and keys below are the SHA-256 digests the per-polynomial route (one
transform and one numpy pass per polynomial) produced; both the compiled
path and the kernel-off references must still produce them, with the
same per-call accounting.  The fixed-point rounding is cross-checked
against the word-level and the object-integer formulas, ties included,
for up to 15 limbs below 2^30 (the one limb bound) and t below 2^31.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import numpy as np
import pytest

from repro.bfv import native, ntt_batch
from repro.bfv.counters import counting
from repro.bfv.modmath import generate_ntt_primes
from repro.bfv.polynomial import Domain, RnsPolynomial, eval_domain_galois_map
from repro.bfv.rns import RnsBasis, compose_words, garner_tables, scale_round_words
from repro.bfv.params import BfvParameters
from repro.bfv.scheme import BfvScheme, Ciphertext
from repro.bfv.serialize import serialize_ciphertext, serialize_galois_keys
from repro.protocol.gazelle import blind_ciphertext_rows
from repro.scheduling.plan import Schedule, compile_plans, union_rotation_steps
from repro.serving import ClientSession, LoopbackTransport, ModelRegistry, ServingEngine
from repro.serving.models import (
    DEMO_RESCALE_BITS, demo_image, demo_network, demo_params, demo_weights,
)

PATHS = [False] + ([None] if native.native_available() else [])
PATH_IDS = ["numpy"] + (["native"] if native.native_available() else [])
needs_kernel = pytest.mark.skipif(not native.native_available(), reason="no compiled kernel")

#: SHA-256 of the seeded outputs of :func:`seeded_outputs`, per ring size.
PINS = {
    2048: {
        "ct": "4c1b2942748d39e1ea51992a10bbeee1bc22e1f6d9172ab4d2d317d03d79a3d5",
        "pt": "9718e196eec3806c4a49cacf1106b4cb25524b6999588e5da832e5ba6e795191",
        "add_plain": "c71e4ffb2af3714009e2aec2278e532e527ab78cb8aef96bc885835f016e5f14",
        "add_plain_pt": "1bb411a1f4584e5e01dc105e4ec747277a501a97ec06b7e52575d307f52c2fa6",
        "galois": "e5c0ad02bb7c84287532b76950d23b731f66afc33cda693999d3c551b8d12621",
    },
    4096: {
        "ct": "d52e8d2ef64428db525e26898a70953565906ce26012f124effe7b7c489d7794",
        "pt": "b781719afbd2f4d97f8b8e0a9256f1499def211bca212622da8d9851ef2065db",
        "add_plain": "825cc22b47f767500589a9f57d4e30160abf3b832e467dfa9376094dca1e57ae",
        "add_plain_pt": "f19da62ddcb5880c37bff8dfc8febb36d2e5043ea7edeadbb715a9d863f9958f",
        "galois": "bac86f7d1b7fcb3ad4ff3b5ec5d4f818aeae3630cabf3da838458d6c8bad1b83",
    },
}

#: SHA-256 of the seeded outputs of :func:`seeded_rotations`, per ring size,
#: as the coefficient-domain automorphism produced them before the
#: un-hoisted rotation and key generation took the eval-domain permutation.
ROTATION_PINS = {
    2048: {
        "rotate_rows": "6693895e9187ada508adfe8d14529f0b8fbcef242d2834dcf9f3d2d482b9b2ab",
        "rotate_columns": "1d002c220c0a270d70f333fd9a98d5f710203499990b41006b05a6d8366fabc0",
        "column_key": "1149329f8ecbde3d4212057691343e4e32c443e56860b504d724a5197fb2d6f9",
    },
    4096: {
        "rotate_rows": "3000143aad9aaf717c9699e5b39e2158da62df6bb9410d2fe1fd3ad4087f96c5",
        "rotate_columns": "a7f05b8e6868d40bdb28549342e16a398c0ee9a03a379ecbe14b48a1a1f25bee",
        "column_key": "e75e5d0992ddc3f5ba566f440f5caf7a28b377265740fcefafd54e6b0e967ed1",
    },
}

#: SHA-256 of the key sets of :func:`seeded_key_sets`, per ring size, as
#: the per-digit generation loop produced them (one draw, one lift and
#: forward, one multiply-add per digit pair, then one permutation per key).
KEY_SET_PINS = {
    2048: {
        "union": "2399170c32d3c061e0771410fda1a4255e1e9667903ec9776f83437a81428eaa",
        "repeated": "e7a013f0ce0b2a37d9d13fe70c029779d33eb0f4fd0195c872ad07fa3205271d",
    },
    4096: {
        "union": "fbd0868574077114b9bdf9eb4dca5ebb9ecb26408f708d00dd37eec9301e126b",
        "repeated": "ccd6ee92cf0c4d441e0cc409fccd620ec4e90fda642674b8b1f85f1b402a82c8",
    },
}


def sha(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


@pytest.fixture(params=PATHS, ids=PATH_IDS)
def path(request, monkeypatch):
    """Build every engine of the test on one path: compiled, or references."""

    @lru_cache(maxsize=None)
    def pinned(n, moduli):
        return ntt_batch.RnsNttEngine(n, moduli, use_native=request.param)

    monkeypatch.setattr(ntt_batch, "_get_engine_cached", pinned)
    return request.param


def seeded_outputs(n: int) -> dict:
    """Keygen, encrypt, decrypt, add_plain and a Galois key from fixed seeds."""
    params = demo_params(n)
    scheme = BfvScheme(params, seed=7)
    secret, public = scheme.keygen()
    values = np.random.default_rng(3).integers(0, params.plain_modulus, n)
    ct = scheme.encrypt_values(values, public)
    pt = scheme.decrypt(ct, secret)
    assert np.array_equal(pt.coeffs, scheme.encoder.encode(values).coeffs)
    mask = np.random.default_rng(4).integers(0, params.plain_modulus, n)
    blinded = scheme.add_plain(ct, scheme.encoder.encode(mask))
    galois = scheme.generate_galois_keys(secret, [1])
    return {
        "ct": sha(serialize_ciphertext(ct, params)),
        "pt": sha(pt.coeffs.astype("<i8").tobytes()),
        "add_plain": sha(serialize_ciphertext(blinded, params)),
        "add_plain_pt": sha(scheme.decrypt(blinded, secret).coeffs.astype("<i8").tobytes()),
        "galois": sha(serialize_galois_keys(galois, params)),
    }


def seeded_rotations(n: int) -> dict:
    """Un-hoisted row rotations by 1 and 3, a column rotation and its key."""
    params = demo_params(n)
    scheme = BfvScheme(params, seed=11)
    secret, public = scheme.keygen()
    ct = scheme.encrypt_values(np.random.default_rng(5).integers(0, params.plain_modulus, n), public)
    rows, columns = scheme.generate_galois_keys(secret, [1, 3]), scheme.generate_column_key(secret)
    return {
        "rotate_rows": sha(b"".join(
            serialize_ciphertext(scheme.rotate_rows(ct, step, rows), params) for step in (1, 3)
        )),
        "rotate_columns": sha(serialize_ciphertext(scheme.rotate_columns(ct, columns), params)),
        "column_key": sha(serialize_galois_keys(columns, params)),
    }


def seeded_key_sets(n: int) -> dict:
    """The demo model's whole key set, in the order a client session asks
    for it, and a step list whose second step repeats the first's element."""
    params = demo_params(n)
    plans = compile_plans(
        BfvScheme(params), demo_network(), demo_weights(), Schedule.PARTIAL_ALIGNED
    )
    union = union_rotation_steps(plans)
    assert len(union) == 24
    scheme = BfvScheme(params, seed=13)
    secret, _ = scheme.keygen()
    sets = {"union": union, "repeated": [3, 3 + n // 2, 1]}
    return {
        name: sha(serialize_galois_keys(scheme.generate_galois_keys(secret, steps), params))
        for name, steps in sets.items()
    }


class TestPinnedBytes:
    @pytest.mark.parametrize("n", sorted(PINS))
    def test_seeded_outputs_match_the_pins(self, path, n):
        assert seeded_outputs(n) == PINS[n]

    @pytest.mark.parametrize("n", sorted(ROTATION_PINS))
    def test_seeded_rotations_match_the_pins(self, path, n):
        assert seeded_rotations(n) == ROTATION_PINS[n]

    @pytest.mark.parametrize("n", sorted(KEY_SET_PINS))
    def test_seeded_key_sets_match_the_pins(self, path, n):
        assert seeded_key_sets(n) == KEY_SET_PINS[n]

    def test_per_call_accounting(self, path):
        """encrypt: 4k NTTs and 2kn modmuls; decrypt: k NTTs and kn modmuls;
        a Galois key: k l_ct NTTs and k l_ct n modmuls."""
        params = demo_params(2048)
        k, n = params.coeff_basis.count, params.n
        scheme = BfvScheme(params, seed=5)
        secret, public = scheme.keygen()
        plaintext = scheme.encoder.encode(np.arange(n))
        with counting() as delta:
            ct = scheme.encrypt(plaintext, public)
        assert (delta().ntt, delta().modmuls) == (4 * k, 2 * k * n)
        with counting() as delta:
            scheme.decrypt(ct, secret)
        assert (delta().ntt, delta().modmuls) == (k, k * n)
        l_ct = params.l_ct
        with counting() as delta:
            scheme.generate_galois_keys(secret, [1, 2, 1 + n // 2])
        assert (delta().ntt, delta().modmuls) == (2 * k * l_ct, 2 * k * l_ct * n)

    def test_a_rounds_replies_decrypt_in_one_pass(self, path, monkeypatch):
        """``decrypt`` of a list is one engine call for all of it: row b is the
        plaintext of decrypting ciphertext b alone, at the same op counts, and
        ``decode_row`` decodes row by row."""
        params = demo_params(2048)
        scheme = BfvScheme(params, seed=8)
        secret, public = scheme.keygen()
        rng = np.random.default_rng(9)
        cts = [scheme.encrypt_values(rng.integers(0, params.plain_modulus, 64), public)
               for _ in range(4)]
        # A reply that is a view into a larger stack, as a layer's outputs are.
        cts[2] = scheme.ciphertexts(np.stack([cts[2].c0.data, cts[2].c1.data])[:, :, None, None])[0][0]
        with counting() as delta:
            want = [scheme.decrypt(ct, secret).coeffs for ct in cts]
        alone = delta().he_ops()
        engine, calls = scheme.engine, []
        original = engine.decrypt
        monkeypatch.setattr(engine, "decrypt", lambda *a: calls.append("decrypt") or original(*a))
        with counting() as together:
            got = scheme.decrypt(cts, secret)
        assert calls == ["decrypt"]
        assert np.array_equal(got.coeffs, np.stack(want))
        assert together().he_ops() == alone
        rows = scheme.encoder.decode_row(got, signed=False)
        for row, ct in zip(rows, cts):
            assert np.array_equal(row, scheme.encoder.decode_row(scheme.decrypt(ct, secret), signed=False))


class TestMalformedCiphertexts:
    """A half in the wrong domain, with the wrong limb count or the wrong n
    is refused with a ValueError before any engine call."""

    @staticmethod
    def variants(scheme, ct):
        basis = scheme.params.coeff_basis
        coeff = RnsPolynomial(basis, ct.c1.data, Domain.COEFF)
        short = RnsPolynomial(RnsBasis(basis.primes[:-1]), ct.c1.data[:-1], Domain.EVAL)
        narrow = RnsPolynomial(basis, ct.c1.data[:, ::2], Domain.EVAL)
        yield Ciphertext(ct.c0, coeff)
        yield Ciphertext(RnsPolynomial(basis, ct.c0.data, Domain.COEFF), ct.c1)
        yield Ciphertext(ct.c0, short)
        yield Ciphertext(ct.c0, narrow)
        yield Ciphertext(narrow, ct.c1)

    def test_refused_before_the_engine(self, path, monkeypatch):
        scheme = BfvScheme(demo_params(2048), seed=6)
        secret, public = scheme.keygen()
        ct = scheme.encrypt_values(np.arange(8), public)

        def no_call(*_args, **_kwargs):
            raise AssertionError("the engine ran on a malformed ciphertext")

        for name in ("decrypt", "multiply_add", "inverse", "scale_round"):
            monkeypatch.setattr(scheme.engine, name, no_call)
        for bad in self.variants(scheme, ct):
            with pytest.raises(ValueError):
                scheme.decrypt(bad, secret)


# -- a round's steps, one engine call each -------------------------------------------


def served_params():
    """The benchmark's parameters: four 25-bit limbs, t of 20 bits."""
    return BfvParameters.create(n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
                                require_security=False)


def kernel_calls(monkeypatch, engine) -> list:
    """The names of the kernel entry points ``engine`` calls from here on."""
    calls, lib = [], engine._kernel

    class Counting:
        def __getattr__(self, name):
            fn = getattr(lib, name)
            return lambda *args: calls.append(name) or fn(*args)

    monkeypatch.setattr(engine, "_kernel", Counting())
    return calls


def views(scheme, cts):
    """The ciphertexts as the halves of one (2, k, B, 1, n) stack, as a layer's outputs are."""
    stack = np.stack([np.stack([ct.c0.data, ct.c1.data]) for ct in cts], axis=2)[:, :, :, None]
    return [row[0] for row in scheme.ciphertexts(stack)]


class TestClientSteps:
    @pytest.mark.parametrize("rows", [1, 3])
    def test_a_rounds_encrypt_is_its_single_encrypts(self, path, rows):
        """Ciphertext r of one encrypt of R plaintexts is byte for byte what
        encrypting plaintext r alone returns after the rows before it, with
        the same draws and the same op counts."""
        params = served_params()
        values = np.random.default_rng(rows).integers(0, params.plain_modulus, (rows, 700))
        alone, together = BfvScheme(params, seed=31), BfvScheme(params, seed=31)
        _, public = alone.keygen()
        together.keygen()
        plaintexts = [alone.encoder.encode_row(v) for v in values]
        with counting() as delta:
            want = [alone.encrypt(pt, public) for pt in plaintexts]
        one = delta().he_ops()
        with counting() as delta:
            got = together.encrypt(plaintexts, public)
        assert delta().he_ops() == one
        assert [serialize_ciphertext(ct, params) for ct in got] == [
            serialize_ciphertext(ct, params) for ct in want
        ]
        assert alone.rng.integers(1 << 30) == together.rng.integers(1 << 30)  # the same draws

    def test_blind_is_add_plain_per_ciphertext(self, path):
        """``blind_ciphertext_rows`` adds ``encode_row(mask)`` to each
        ciphertext as ``add_plain`` does, strided halves included, at the same
        op counts, and leaves its inputs as they were."""
        params = served_params()
        scheme = BfvScheme(params, seed=32)
        _, public = scheme.keygen()
        rng = np.random.default_rng(33)
        cts = views(scheme, [scheme.encrypt_values(rng.integers(0, 99, 64), public)
                             for _ in range(4)])
        before = [serialize_ciphertext(ct, params) for ct in cts]
        with counting() as delta:
            masked, masks = blind_ciphertext_rows(scheme, np.random.default_rng(34), cts)
        fused = delta().he_ops()
        assert np.array_equal(masks, np.random.default_rng(34).integers(
            0, params.plain_modulus, (4, params.row_size)))
        with counting() as delta:
            want = [scheme.add_plain(ct, scheme.encoder.encode_row(m)) for ct, m in zip(cts, masks)]
        assert delta().he_ops() == fused
        assert [serialize_ciphertext(ct, params) for ct in masked] == [
            serialize_ciphertext(ct, params) for ct in want
        ]
        assert [serialize_ciphertext(ct, params) for ct in cts] == before

    @pytest.mark.parametrize("ring", ["served", "30-bit"])
    def test_decrypt_equals_the_composed_path(self, path, ring):
        """Random phases and phases whose coefficients are ties and near-ties
        of the rounding decrypt as the phase, the inverse and the word-level
        rounding do, and as the big-integer formula does."""
        if ring == "served":
            params = served_params()
        else:
            params = BfvParameters.create(n=64, plain_bits=17, coeff_bits=150, a_dcmp_bits=16,
                                          require_security=False)
        basis, n, t = params.coeff_basis, params.n, params.plain_modulus
        scheme = BfvScheme(params, seed=35)
        secret, _ = scheme.keygen()
        rng = np.random.default_rng(36)
        ties = np.array(tie_values(basis.modulus, t) * (n // 28 + 1), dtype=object)[:n]
        residues = [basis.decompose(w) for w in (rng.permutation(ties), rng.integers(0, 1 << 62, n))]
        phases = [scheme.engine.forward(r) for r in residues]
        cts = []
        for b, phase in enumerate(phases):  # c0 = phase - c1 s
            c1 = random_stack(basis.primes, (n,), b)
            cts.append(scheme._ciphertext((phase - c1 * secret.eval_poly.data) % basis.primes_column, c1))
        reference = ntt_batch.RnsNttEngine(n, basis.primes, use_native=False)
        got = scheme.decrypt(views(scheme, cts), secret).coeffs
        assert np.array_equal(got, reference.scale_round(reference.inverse(np.stack(phases, axis=1)), t))
        for row, r in zip(got, residues):
            assert np.array_equal(row, object_rounding(basis, r, t))

    @needs_kernel
    def test_one_kernel_call_per_step(self, monkeypatch):
        """A round's encrypt, its blind and the decrypt of its replies are one
        kernel call each."""
        params = served_params()
        scheme = BfvScheme(params, seed=37)
        secret, public = scheme.keygen()
        plaintexts = [scheme.encoder.encode_row(np.arange(9) * r) for r in range(3)]
        calls = kernel_calls(monkeypatch, scheme.engine)
        cts = scheme.encrypt(plaintexts, public)
        assert calls == ["rns_encrypt"]
        masked, _ = blind_ciphertext_rows(scheme, np.random.default_rng(38), cts)
        assert calls == ["rns_encrypt", "rns_blind"]
        scheme.decrypt(masked, secret)
        assert calls == ["rns_encrypt", "rns_blind", "rns_decrypt"]

    @pytest.mark.parametrize("schedule,census", [
        (Schedule.INPUT_ALIGNED, (224, 41, 70, 71)),
        (Schedule.PARTIAL_ALIGNED, (2176, 65, 70, 71)),
    ])
    def test_a_served_inference_counts_the_same_ops(self, path, schedule, census):
        """NTTs, HE_Rotate, HE_Mult and HE_Add per served inference of the demo model."""
        params = served_params()
        registry = ModelRegistry()
        registry.register("demo", demo_network(), demo_weights(), params, schedule=schedule,
                          rescale_bits=DEMO_RESCALE_BITS)
        session = ClientSession(demo_network(), params,
                                LoopbackTransport(ServingEngine(registry, max_batch=1)))
        session.connect("demo")
        with counting() as delta:
            session.infer(demo_image(3))
        ops = delta()
        assert (ops.ntt, ops.he_rotate, ops.he_mult, ops.he_add) == census


# -- the engine entry points against their formulas --------------------------------

N = 16


def random_stack(moduli, tail, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, p, tail, dtype=np.int64) for p in moduli])


@pytest.mark.parametrize("use_native", PATHS, ids=PATH_IDS)
class TestEngineFormulas:
    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("with_w", [False, True])
    def test_multiply_add(self, use_native, rows, with_w):
        moduli = generate_ntt_primes(30, N, 3)
        engine = ntt_batch.RnsNttEngine(N, moduli, use_native=use_native)
        primes = np.array(moduli, dtype=object)[:, None]
        # Strided views (a row of a larger stack) and the p - 1 maxima.
        stack = random_stack(moduli, (5, N), 21)
        stack[:, 4] = primes.astype(np.int64) - 1
        xs, zs = [stack[:, h] for h in range(rows)], [stack[:, 2 + h] for h in range(rows)]
        y, w = stack[:, 4], stack[:, 3] if with_w else None
        got = engine.multiply_add(xs, y, zs, w)
        for h in range(rows):
            want = xs[h].astype(object) * y + zs[h]
            if h == 0 and with_w:
                want = want + w
            assert np.array_equal(got[h], (want % primes).astype(np.int64))

    def test_multiply_add_refuses_mismatched_shapes(self, use_native):
        moduli = generate_ntt_primes(30, N, 2)
        engine = ntt_batch.RnsNttEngine(N, moduli, use_native=use_native)
        x = random_stack(moduli, (N,), 1)
        for xs, y, zs in (([x], x[:, :8], [x]), ([x, x], x, [x]), ([x, x, x], x, [x, x, x])):
            with pytest.raises(ValueError):
                engine.multiply_add(xs, y, zs)

    @pytest.mark.parametrize("t", [2, 65537, (1 << 31) - 1, (1 << 40) + 15])
    def test_lift(self, use_native, t):
        moduli = generate_ntt_primes(30, N, 3)
        engine = ntt_batch.RnsNttEngine(N, moduli, use_native=use_native)
        rng = np.random.default_rng(t % 1000)
        small = rng.integers(-40, 41, (3, N))
        messages = rng.integers(0, t, (2, N))
        # A negative or out-of-range coefficient is reduced mod t first.
        messages[1, :4] = [-1, t, -t - 3, 3 * t + 2]
        got = engine.lift(small, messages, t)
        primes = np.array(moduli, dtype=object)[:, None, None]
        delta = int(np.prod(np.array(moduli, dtype=object))) // t
        want_small = small.astype(object)[None] % primes
        want_delta = (messages.astype(object)[None] % t) * delta % primes
        assert got.shape == (3, 5, N)
        assert np.array_equal(got, np.concatenate([want_small, want_delta], axis=1))
        assert np.array_equal(engine.lift((), messages, t), got[:, 3:])
        assert np.array_equal(engine.lift(small, (), t), got[:, :3])

    @pytest.mark.parametrize("k,terms", [(1, 1), (1, 9), (5, 1), (5, 9)])
    @pytest.mark.parametrize("order", ["identity", "galois", "random"])
    def test_galois_key(self, use_native, k, terms, order):
        """Pair ``j`` is ``(-(a s + e) + 2^(16 j) s', a)`` with ``s' = s``
        under the map whose slot order the stack is in, residues at 0 and
        p - 1 included; the kernel and the numpy reference agree."""
        moduli = generate_ntt_primes(30, N, k)
        engine = ntt_batch.RnsNttEngine(N, moduli, use_native=use_native)
        p = np.array(moduli, dtype=np.int64)[:, None, None]
        draws = random_stack(moduli, (2, terms, N), 40 + 10 * k + terms)
        a, neg_e = draws[:, 0], draws[:, 1]
        a[..., :3], neg_e[..., :3] = p - 1, 0
        a[..., 3:5], neg_e[..., 3:5] = 0, p - 1
        s = random_stack(moduli, (N,), 7 * k)
        s[:, ::4], s[:, 1::4] = 0, p[:, 0] - 1
        slots = {
            "identity": np.arange(N),
            "galois": np.argsort(eval_domain_galois_map(N, 3)),
            "random": np.random.default_rng(terms).permutation(N),
        }[order]
        got = engine.galois_key(a, neg_e, s, slots, 16)
        g = np.argsort(slots)  # the map: slot o is stored at g(o)
        a_big, s_big = a.astype(object), s.astype(object)[:, None]
        powers = np.array([1 << 16 * j for j in range(terms)], dtype=object)[:, None]
        body = (-a_big * s_big + neg_e + powers * s_big[..., g]) % p.astype(object)
        want = np.stack([body, a]).astype(np.uint32)[..., slots]
        assert got.dtype == np.uint32 and got.shape == (2, k, terms, N)
        assert np.array_equal(got, want)
        reference = ntt_batch.RnsNttEngine(N, moduli, use_native=False)
        assert np.array_equal(got, reference.galois_key(a, neg_e, s, slots, 16))

    def test_galois_key_refuses_bad_slots(self, use_native):
        moduli = generate_ntt_primes(30, N, 2)
        engine = ntt_batch.RnsNttEngine(N, moduli, use_native=use_native)
        a, s = random_stack(moduli, (3, N), 1), random_stack(moduli, (N,), 2)
        for slots in (np.arange(N) + 1, -np.arange(N), np.arange(N // 2)):
            with pytest.raises(ValueError):
                engine.galois_key(a, a, s, slots, 16)
        with pytest.raises(ValueError):
            engine.galois_key(a, a[:, :2], s, np.arange(N), 16)


# -- the fixed-point scale-and-round -----------------------------------------------



def fixed_point(moduli, residues, t):
    """``rns_scale_round`` on ``(k, cols)`` residues: the rounded
    coefficients and how many of them took the exact tie branch."""
    g = garner_tables(tuple(moduli))
    residues = np.ascontiguousarray(residues, dtype=np.int64).reshape(len(moduli), -1)
    out = np.empty(residues.shape[1], dtype=np.int64)
    tables = [g.primes, g.inv, g.inv_shoup, g.lift, g.q_words]
    exact = native.load_kernel().rns_scale_round(
        residues.ctypes.data, out.ctypes.data, *ntt_batch._plain_tables(tuple(moduli), t)[1][1:],
        *(table.ctypes.data for table in tables), len(moduli), out.size, g.words32, t,
    )
    return out, exact


def object_rounding(basis, residues, t):
    w = basis.compose(residues)
    q = basis.modulus
    return (((w * t * 2 + q) // (2 * q)) % t).astype(np.int64)


def tie_values(q, t):
    """``floor((2j + 1) q / 2t) + d`` for d in -3..3: the half-way points."""
    values = set()
    for j in {0, 1, t // 2, t - 1}:
        tie = (2 * j + 1) * q // (2 * t)
        values.update(tie + d for d in range(-3, 4) if 0 <= tie + d < q)
    return sorted(values)


T_VALUES = [2, 3, 65537, 786433, (1 << 31) - 1]


@needs_kernel
class TestFixedPointRounding:
    @pytest.mark.parametrize("k", [*range(1, 9), 9, 15])
    def test_random_residues(self, k):
        moduli = generate_ntt_primes(30, N, k)
        basis, tables = RnsBasis(moduli), garner_tables(tuple(moduli))
        residues = random_stack(moduli, (512,), 100 + k)
        for t in T_VALUES:
            got, _ = fixed_point(moduli, residues, t)
            assert np.array_equal(got, object_rounding(basis, residues, t))
            words = scale_round_words(compose_words(residues, tables), tables, t)
            assert np.array_equal(got, words)

    @pytest.mark.parametrize("k", [*range(1, 9), 9, 15])
    def test_ties_round_exactly(self, k):
        moduli = generate_ntt_primes(30, N, k)
        basis = RnsBasis(moduli)
        for t in T_VALUES:
            residues = basis.decompose(np.array(tie_values(basis.modulus, t), dtype=object))
            got, _ = fixed_point(moduli, residues, t)
            assert np.array_equal(got, object_rounding(basis, residues, t))

    @pytest.mark.parametrize("k", [*range(3, 9), 9, 15])
    def test_ties_take_the_exact_branch(self, k):
        """With q / t above 2^58 every constructed tie lies within 2^8
        units of 2^-64 of its half-way point, far inside the error band
        (sum p_i > 2^31), so each one must go through the exact rounding --
        the branch cannot go dead."""
        moduli = generate_ntt_primes(30, N, k)
        basis = RnsBasis(moduli)
        for t in T_VALUES:
            ties = tie_values(basis.modulus, t)
            _, exact = fixed_point(moduli, basis.decompose(np.array(ties, dtype=object)), t)
            assert exact == len(ties)

    def test_batch_is_columns(self):
        """A ``(k, B, n)`` stack is ``B n`` columns: each member rounds as
        its own ``(k, n)`` stack does through the engine."""
        moduli = generate_ntt_primes(30, N, 4)
        engine = ntt_batch.RnsNttEngine(N, moduli)
        basis = RnsBasis(moduli)
        coeff = random_stack(moduli, (3, N), 9)
        coeff[:, 1, :8] = basis.decompose(np.array(tie_values(basis.modulus, 65537)[:8], dtype=object))
        got, _ = fixed_point(moduli, coeff, 65537)
        for b, row in enumerate(got.reshape(3, N)):
            assert np.array_equal(row, engine.scale_round(coeff[:, b], 65537))
            assert np.array_equal(row, object_rounding(basis, coeff[:, b], 65537))

    def test_largest_terms_at_fifteen_limbs(self):
        """r_i = p_i - 1 and t = 2^31 - 1 maximise every term of the 128-bit
        sums; on the first 15-limb window where sum r_i omega_i passes 2^64
        a 64-bit accumulator would wrap.  Each term is below 2^61 at limbs
        below 2^30, so no window of 8 limbs or fewer can reach it."""
        t = (1 << 31) - 1

        def integer_sum(moduli):
            omega = ntt_batch._plain_tables(moduli, t)[0][1]
            return sum((p - 1) * int(o) for p, o in zip(moduli, omega))

        pool = generate_ntt_primes(30, N, 24)
        windows = (tuple(pool[s : s + 15]) for s in range(10))
        moduli = next(m for m in windows if integer_sum(m) >= 1 << 64)
        residues = np.array(moduli, dtype=np.int64)[:, None] - np.arange(1, 5)
        got, _ = fixed_point(moduli, residues, t)
        assert np.array_equal(got, object_rounding(RnsBasis(list(moduli)), residues, t))
