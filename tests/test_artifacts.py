"""Tests for the ahead-of-time model artifact subsystem (repro.artifacts).

Covers the two guarantees the subsystem exists for -- warm starts do
**zero recompute** (no NTT transforms, memmapped read-only stacks) and
serve **bit-identical logits** to a fresh compile -- plus the integrity
discipline: truncated, bit-flipped, version-skewed, or wrong-parameter
artifacts are rejected with specific errors instead of corrupting plans.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
import struct

import numpy as np
import pytest

from repro.artifacts import (
    ArtifactError,
    load_artifact,
    load_zoo,
    read_manifest,
    save_artifact,
    update_manifest,
)
from repro.artifacts.format import (
    FORMAT_VERSION,
    MAGIC,
    _PREFIX,
    _align,
    read_container,
    write_container,
)
from repro.bfv import BfvParameters
from repro.bfv.counters import counting
from repro.bfv.modmath import generate_ntt_primes
from repro.core.noise_model import Schedule
from repro.nn.layers import ActivationLayer, ConvLayer, FCLayer
from repro.nn.models import Network, network_from_dict, network_to_dict
from repro.protocol import GazelleProtocol
from repro.scheduling.plan import ConvPlan, FcPlan
from repro.serving import (
    DEMO_RESCALE_BITS,
    ClientSession,
    LoopbackTransport,
    ModelRegistry,
    ServingEngine,
    demo_image,
    demo_network,
    demo_params,
    demo_weights,
)
from repro.serving.shards import ShardWorkerServer

SERVE_SCHEDULE = Schedule.INPUT_ALIGNED


@pytest.fixture(scope="module")
def serve_params() -> BfvParameters:
    return BfvParameters.create(
        n=2048, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


@pytest.fixture(scope="module")
def fresh_registry(serve_params) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register(
        "demo",
        demo_network(),
        demo_weights(),
        serve_params,
        schedule=SERVE_SCHEDULE,
        rescale_bits=DEMO_RESCALE_BITS,
    )
    return registry


@pytest.fixture(scope="module")
def artifact_path(fresh_registry, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "demo.rpa"
    save_artifact(fresh_registry.get("demo"), path)
    return path


def _small_params() -> BfvParameters:
    return BfvParameters.create(
        n=256, plain_bits=18, coeff_bits=90, a_dcmp_bits=16,
        require_security=False,
    )


def _small_network() -> Network:
    return Network(
        "TinyCNN",
        [
            ConvLayer("c1", w=4, fw=3, ci=1, co=2),
            ActivationLayer("r1", "relu", 2 * 2 * 2),
            FCLayer("f1", 8, 4),
        ],
    )


def _small_weights(seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {
        "c1": rng.integers(-4, 5, (2, 1, 3, 3)),
        "f1": rng.integers(-4, 5, (4, 8)),
    }


@pytest.fixture()
def small_artifact(tmp_path):
    registry = ModelRegistry()
    entry = registry.register(
        "tiny", _small_network(), _small_weights(), _small_params(),
        schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
    )
    path = tmp_path / "tiny.rpa"
    save_artifact(entry, path)
    return entry, path


class TestRoundTrip:
    def test_zero_recompute_warm_start(self, fresh_registry, artifact_path):
        """Loading must run zero NTT transforms and copy nothing."""
        fresh = fresh_registry.get("demo")
        with counting() as delta:
            registry = ModelRegistry()
            entry = registry.register_artifact(artifact_path)
        assert delta().ntt == 0, "artifact load must not pay any NTT"
        assert entry.rotation_steps == fresh.rotation_steps
        assert entry.schedule is fresh.schedule
        assert entry.rescale_bits == fresh.rescale_bits
        for name, plan in fresh.plans.items():
            loaded = entry.plans[name]
            assert loaded.metadata() == plan.metadata()
            assert np.array_equal(loaded.weight_stacks, plan.weight_stacks)
            # Memmap-backed and read-only: pages are shared, never copied.
            assert not loaded.weight_stacks.flags.writeable
            assert isinstance(loaded.weight_stacks.base, np.memmap) or isinstance(
                loaded.weight_stacks, np.memmap
            )

    def test_serving_bit_identical_to_fresh_compile(
        self, fresh_registry, serve_params, artifact_path
    ):
        """Loopback serving off the artifact == fresh compile == direct run."""
        registry = ModelRegistry()
        registry.register_artifact(artifact_path)
        image = demo_image(11)
        logits = {}
        for tag, source in (("fresh", fresh_registry), ("artifact", registry)):
            engine = ServingEngine(source, max_batch=1, seed=5)
            session = ClientSession(
                demo_network(), serve_params, LoopbackTransport(engine), seed=7
            )
            session.connect("demo")
            logits[tag] = session.infer(image).logits
        direct = GazelleProtocol(
            demo_network(), demo_weights(), serve_params,
            schedule=SERVE_SCHEDULE, rescale_bits=DEMO_RESCALE_BITS, seed=3,
        ).run(image).logits
        assert np.array_equal(logits["artifact"], logits["fresh"])
        assert np.array_equal(logits["artifact"], direct)

    def test_gazelle_protocol_direct_on_loaded_plans(self, small_artifact):
        """Loaded plans also execute directly (not only through serving)."""
        entry, path = small_artifact
        loaded = ModelRegistry().register_artifact(path)
        scheme = loaded.scheme
        secret, public = scheme.keygen()
        steps = loaded.rotation_steps
        keys = scheme.generate_galois_keys(secret, steps)
        plan = loaded.plans["f1"]
        from repro.scheduling.fc import pack_fc_input

        x = np.arange(8)
        packed = pack_fc_input(x, scheme.params.row_size)
        ct = scheme.encrypt(scheme.encoder.encode_row(packed), public)
        got = scheme.decrypt_values(plan.execute(ct, keys), secret, signed=False)
        want = scheme.decrypt_values(
            entry.plans["f1"].execute(ct, keys), secret, signed=False
        )
        assert np.array_equal(got, want)

    def test_network_dict_round_trip(self):
        network = demo_network()
        assert network_from_dict(network_to_dict(network)) == network


class TestIntegrity:
    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "junk.rpa"
        path.write_bytes(b"definitely not an artifact, but long enough" * 4)
        with pytest.raises(ArtifactError, match="not a repro model artifact"):
            load_artifact(path)

    def test_truncated_artifact_rejected(self, small_artifact, tmp_path):
        _entry, path = small_artifact
        blob = path.read_bytes()
        clipped = tmp_path / "clipped.rpa"
        clipped.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(ArtifactError, match="truncated"):
            load_artifact(clipped)

    def test_bit_flipped_section_rejected(self, small_artifact, tmp_path):
        _entry, path = small_artifact
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x40  # inside the last weight section
        flipped = tmp_path / "flipped.rpa"
        flipped.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="CRC-32 mismatch"):
            load_artifact(flipped)
        with pytest.raises(ArtifactError, match="corrupted"):
            load_artifact(flipped, verify="full")

    def test_full_verify_checks_sha256(self, small_artifact, tmp_path):
        """A forged section that fools CRC-32 still fails the SHA-256 pass."""
        import json
        import zlib

        _entry, path = small_artifact
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack_from("<I", blob, _PREFIX.size - 4)[0]
        header = json.loads(bytes(blob[_PREFIX.size : _PREFIX.size + header_len]))
        # Flip a section bit AND fix up the stored CRC to match, as an
        # attacker (or a very unlucky disk) could; re-seal the header hash.
        # The bit is the last residue's lowest set one, so the forged
        # residue stays below its modulus, where the default range check
        # cannot see it either.
        word = int.from_bytes(blob[-8:], "little")
        blob[-8:] = (word & (word - 1)).to_bytes(8, "little")
        data_start = (
            (_PREFIX.size + header_len + 4096 - 1) // 4096 * 4096
        )
        last = max(header["sections"], key=lambda s: s["offset"])
        start = data_start + last["offset"]
        count = int(np.prod(last["shape"]))
        last["crc32"] = zlib.crc32(bytes(blob[start : start + count * 8]))
        new_header = json.dumps(header, sort_keys=True).encode()
        import hashlib

        rebuilt = bytearray()
        rebuilt += struct.pack(
            "<4sI32sI", MAGIC, FORMAT_VERSION,
            hashlib.sha256(new_header).digest(), len(new_header),
        )
        rebuilt += new_header
        new_data_start = (len(rebuilt) + 4096 - 1) // 4096 * 4096
        rebuilt += b"\0" * (new_data_start - len(rebuilt))
        rebuilt += blob[data_start:]
        forged = tmp_path / "forged.rpa"
        forged.write_bytes(bytes(rebuilt))
        load_artifact(forged)  # CRC passes: the forgery is consistent
        with pytest.raises(ArtifactError, match="SHA-256 mismatch"):
            load_artifact(forged, verify="full")

    def test_bit_flipped_header_rejected(self, small_artifact, tmp_path):
        _entry, path = small_artifact
        blob = bytearray(path.read_bytes())
        blob[_PREFIX.size + 10] ^= 0x01  # inside the header JSON
        flipped = tmp_path / "flipped.rpa"
        flipped.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="header corrupted"):
            load_artifact(flipped)

    def test_version_mismatch_rejected(self, small_artifact, tmp_path):
        _entry, path = small_artifact
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", FORMAT_VERSION + 1)
        skewed = tmp_path / "skewed.rpa"
        skewed.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError, match="format version"):
            load_artifact(skewed)
        assert blob[:4] == MAGIC  # the version field really was what flipped

    def test_unknown_verify_level_rejected(self, small_artifact):
        """A typo'd verify level must not silently degrade the check."""
        _entry, path = small_artifact
        with pytest.raises(ValueError, match="verify must be"):
            load_artifact(path, verify="FULL")

    def test_wrong_params_rejected(self, small_artifact):
        _entry, path = small_artifact
        other = BfvParameters.create(
            n=256, plain_bits=17, coeff_bits=90, a_dcmp_bits=16,
            require_security=False,
        )
        with pytest.raises(ArtifactError, match="different parameters"):
            load_artifact(path, params=other)

    def test_from_stacks_rejects_mismatched_shapes(self, small_artifact):
        entry, _path = small_artifact
        scheme = entry.scheme
        good = entry.plans["c1"]
        with pytest.raises(ValueError, match="shape"):
            ConvPlan.from_stacks(
                scheme,
                schedule=good.schedule,
                grid_w=good.grid_w,
                co=good.co + 1,  # claims one more channel than the stack has
                ci=good.ci,
                fw=good.fw,
                offsets=good.offsets,
                weight_stacks=good.weight_stacks,
            )
        fc = entry.plans["f1"]
        with pytest.raises(ValueError, match="shape"):
            FcPlan.from_stacks(
                scheme,
                schedule=fc.schedule,
                ni=fc.ni,
                no=fc.no,
                no_eff=fc.no_eff,
                weight_stacks=fc.weight_stacks[:, :-1],
            )


class TestZoo:
    def test_multi_model_zoo_round_trip(self, tmp_path):
        registry = ModelRegistry()
        params = _small_params()
        for index, name in enumerate(["alpha", "beta"]):
            entry = registry.register(
                name, _small_network(), _small_weights(seed=index), params,
                schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
            )
            path = tmp_path / f"{name}.rpa"
            save_artifact(entry, path, tuned={"n": params.n})
            update_manifest(tmp_path, load_artifact(path), path.name)

        manifest = read_manifest(tmp_path)
        assert [m["name"] for m in manifest["models"]] == ["alpha", "beta"]
        assert all(m["tuned"] == {"n": params.n} for m in manifest["models"])
        assert all(m["params"]["n"] == params.n for m in manifest["models"])

        loaded = load_zoo(tmp_path)
        assert loaded.names() == ["alpha", "beta"]
        assert not np.array_equal(
            loaded.get("alpha").plans["c1"].weight_stacks,
            loaded.get("beta").plans["c1"].weight_stacks,
        )

    def test_zoo_rejects_duplicate_model_names(self, tmp_path):
        registry = ModelRegistry()
        entry = registry.register(
            "tiny", _small_network(), _small_weights(), _small_params(),
            schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
        )
        save_artifact(entry, tmp_path / "a.rpa")
        save_artifact(entry, tmp_path / "b.rpa")
        with pytest.raises(ArtifactError, match="redeclares"):
            load_zoo(tmp_path)

    def test_zoo_warns_on_unlisted_artifact(self, tmp_path):
        """A .rpa sitting next to a manifest that omits it is an operator
        mistake (compile without --manifest) -- warn, don't silently skip."""
        registry = ModelRegistry()
        listed = registry.register(
            "listed", _small_network(), _small_weights(), _small_params(),
            schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
        )
        path = tmp_path / "listed.rpa"
        save_artifact(listed, path)
        update_manifest(tmp_path, load_artifact(path), "listed.rpa")
        stray = registry.register(
            "stray", _small_network(), _small_weights(seed=9), _small_params(),
            schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
        )
        save_artifact(stray, tmp_path / "stray.rpa")
        with pytest.warns(UserWarning, match="stray.rpa.*not listed"):
            loaded = load_zoo(tmp_path)
        assert loaded.names() == ["listed"]

    def test_zoo_manifest_missing_file(self, tmp_path):
        registry = ModelRegistry()
        entry = registry.register(
            "tiny", _small_network(), _small_weights(), _small_params(),
            schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
        )
        path = tmp_path / "tiny.rpa"
        save_artifact(entry, path)
        update_manifest(tmp_path, load_artifact(path), "tiny.rpa")
        path.unlink()
        with pytest.raises(ArtifactError, match="missing"):
            load_zoo(tmp_path)

    def test_empty_zoo_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no .* artifacts"):
            load_zoo(tmp_path)


class TestRegistryValidation:
    """Satellite: weights are validated before any compilation starts."""

    def _register(self, weights):
        ModelRegistry().register(
            "tiny", _small_network(), weights, _small_params(),
            schedule=Schedule.PARTIAL_ALIGNED, rescale_bits=2,
        )

    def test_missing_layer_rejected(self):
        weights = _small_weights()
        del weights["f1"]
        with pytest.raises(ValueError, match="missing weights.*f1"):
            self._register(weights)

    def test_unexpected_key_rejected(self):
        weights = _small_weights()
        weights["ghost"] = np.zeros((1, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="unexpected weight key.*ghost"):
            self._register(weights)

    def test_wrong_shape_rejected(self):
        weights = _small_weights()
        weights["c1"] = weights["c1"][:, :, :2, :2]
        with pytest.raises(ValueError, match=r"'c1' expects weights of shape"):
            self._register(weights)

    def test_float_weights_rejected(self):
        weights = _small_weights()
        weights["f1"] = weights["f1"].astype(np.float64)
        with pytest.raises(ValueError, match="integer .*weights"):
            self._register(weights)

    def test_all_problems_reported_at_once(self):
        weights = _small_weights()
        del weights["c1"]
        weights["ghost"] = np.zeros(3, dtype=np.int64)
        weights["f1"] = weights["f1"].astype(np.float32)
        with pytest.raises(ValueError) as excinfo:
            self._register(weights)
        message = str(excinfo.value)
        assert "missing" in message and "ghost" in message and "float32" in message


#: SHA-256 of the demo artifact at n = 2048 (the benchmark ring), as the
#: conv and FC plans wrote it before they shared one execution body.  A
#: plan refactor must not move a byte of what servers load.
DEMO_RPA_SHA256 = {
    Schedule.INPUT_ALIGNED: "aaf1d85357fe6510190ad1ed5392d13db840694e972e7c69df8d04dbfcb53e05",
    Schedule.PARTIAL_ALIGNED: "6faf43fb35999fb7b0a66d023d84c2dfe51b74b198b2bf3d7e5c2d46312abedc",
}


@pytest.mark.parametrize("schedule", list(DEMO_RPA_SHA256), ids=lambda s: s.value)
def test_demo_artifact_bytes_are_pinned(schedule, tmp_path):
    entry = ModelRegistry().register(
        "demo", demo_network(), demo_weights(), demo_params(n=2048),
        schedule=schedule, rescale_bits=DEMO_RESCALE_BITS,
    )
    path = save_artifact(entry, tmp_path / "demo.rpa")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DEMO_RPA_SHA256[schedule]


def _forge(source, out, mutate):
    """Re-seal ``source`` with ``mutate(header)`` applied: a consistent file
    (digest and CRCs hold) whose header no longer describes a model."""
    header, arrays = read_container(source)
    mutate(header)
    write_container(out, header, arrays)


FORGERIES = {
    "conv-field-dropped": (lambda h: h["layers"]["c1"].pop("co"), r"layer 'c1'.*'co'"),
    "unknown-kind": (lambda h: h["layers"]["c1"].update(kind="bogus"), r"layer 'c1'.*'kind'"),
    "layer-not-a-dict": (lambda h: h["layers"].update(f1=7), r"layer 'f1'"),
    "bad-layer-schedule": (
        lambda h: h["layers"]["f1"].update(schedule="nope"), r"layer 'f1'.*'schedule'"
    ),
    "model-missing": (lambda h: h.pop("model"), r"'model\.name'"),
    "network-malformed": (lambda h: h.update(network={}), r"'network'"),
    "bad-model-schedule": (
        lambda h: h["model"].update(schedule="sched-xx"), r"'model\.schedule'"
    ),
    # Every layer runs Sched-PA while the entry, the handshake and the noise
    # floor would say Sched-IA.
    "layer-schedule-disagrees": (
        lambda h: h["model"].update(schedule="sched-ia"), r"layer 'c1'.*'schedule'"
    ),
    # A parameter fingerprint that names no BFV parameter set.
    "params-n-dropped": (lambda h: h["params"].pop("n"), r"'params'"),
    "params-primes-not-a-list": (lambda h: h["params"].update(coeff_primes=7), r"'params'"),
    "params-primes-repeated": (
        lambda h: h["params"].update(coeff_primes=h["params"]["coeff_primes"][:1] * 2),
        r"'params'.*distinct",
    ),
    "params-t-not-batching": (
        lambda h: h["params"].update(plain_modulus=h["params"]["plain_modulus"] + 2),
        r"'params'.*1 mod 2n",
    ),
    # A plain modulus that is no batching prime below the limb bound.
    "params-t-one": (lambda h: h["params"].update(plain_modulus=1), r"'params'.*prime"),
    "params-t-negative": (
        lambda h: h["params"].update(plain_modulus=1 - 2 * h["params"]["n"]), r"'params'.*prime"
    ),
    "params-t-above-limb-bound": (
        lambda h: h["params"].update(
            plain_modulus=generate_ntt_primes(31, h["params"]["n"], 1)[0]
        ),
        r"'params'.*2\^30",
    ),
    # A 31-bit limb: above the one limb bound, refused with the basis.
    "params-prime-above-limb-bound": (
        lambda h: h["params"]["coeff_primes"].__setitem__(
            0, generate_ntt_primes(31, h["params"]["n"], 1)[0]
        ),
        r"'params'.*2\^30",
    ),
}


def _reseal(source, out, mutate):
    """Re-seal ``source`` with ``mutate(header)`` applied to the header as
    stored, section table included (:func:`_forge` rebuilds the table):
    a fresh header digest, the data area moved to its new aligned start."""
    blob = source.read_bytes()
    magic, version, _digest, header_len = _PREFIX.unpack_from(blob)
    header = json.loads(blob[_PREFIX.size : _PREFIX.size + header_len])
    mutate(header)
    raw = json.dumps(header, sort_keys=True).encode()
    prefix = _PREFIX.pack(magic, version, hashlib.sha256(raw).digest(), len(raw))
    pad = _align(_PREFIX.size + len(raw)) - _PREFIX.size - len(raw)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_bytes(prefix + raw + b"\0" * pad + blob[_align(_PREFIX.size + header_len) :])


def _first_section(edit):
    return lambda h: edit(h["sections"][0])


#: Section tables of the wrong shape, each re-sealed into a consistent file.
FORGED_SECTIONS = {
    "sections-not-a-list": (lambda h: h.update(sections=5), r"missing section table"),
    "section-not-an-object": (
        lambda h: h["sections"].__setitem__(0, 5), r"section 0 is not an object"
    ),
    "shape-missing": (_first_section(lambda s: s.pop("shape")), r"section 'c1'.*'shape'"),
    "offset-missing": (_first_section(lambda s: s.pop("offset")), r"section 'c1'.*'offset'"),
    "shape-not-ints": (_first_section(lambda s: s.update(shape=["a"])), r"section 'c1'.*'shape'"),
    "shape-negative": (
        _first_section(lambda s: s.update(shape=[-2, -5])), r"section 'c1'.*negative"
    ),
    "shape-not-a-list": (_first_section(lambda s: s.update(shape=10)), r"section 'c1'.*'shape'"),
    "offset-null": (_first_section(lambda s: s.update(offset=None)), r"section 'c1'.*'offset'"),
}


#: One residue of the conv stack's first limb set out of range in a
#: re-sealed file (every checksum holds): each one served wrong logits.
FORGED_RESIDUES = {
    "residue-is-p0": lambda p0: p0,
    "residue-negative": lambda p0: -1,
    "residue-2^40": lambda p0: 1 << 40,
}


class TestForgedHeader:
    """A re-sealed header that does not describe a model is an ArtifactError
    naming the file, the layer and the field -- never a KeyError or
    TypeError escaping the loader (a shard worker only survives the former)."""

    @pytest.mark.parametrize("case", list(FORGERIES))
    def test_load_zoo_raises_artifact_error(self, small_artifact, tmp_path, case):
        _entry, path = small_artifact
        mutate, field = FORGERIES[case]
        zoo = tmp_path / "zoo"
        _forge(path, zoo / "tiny.rpa", mutate)
        with pytest.raises(ArtifactError, match=r"^tiny\.rpa: .*" + field):
            load_zoo(zoo)

    @pytest.mark.parametrize("case", list(FORGED_SECTIONS))
    def test_section_table_raises_artifact_error(self, small_artifact, tmp_path, case):
        _entry, path = small_artifact
        mutate, field = FORGED_SECTIONS[case]
        zoo = tmp_path / "zoo"
        _reseal(path, zoo / "tiny.rpa", mutate)
        with pytest.raises(ArtifactError, match=r"^tiny\.rpa: .*" + field):
            load_zoo(zoo)

    @pytest.mark.parametrize("case", list(FORGED_RESIDUES))
    def test_out_of_range_weight_residue_raises(self, small_artifact, tmp_path, case):
        _entry, path = small_artifact
        header, arrays = read_container(path)
        c1 = np.array(arrays["c1"])
        c1.reshape(len(c1), -1)[0, 0] = FORGED_RESIDUES[case](header["params"]["coeff_primes"][0])
        write_container(tmp_path / "zoo" / "tiny.rpa", header, {**arrays, "c1": c1})
        with pytest.raises(ArtifactError, match=r"^tiny\.rpa: layer 'c1'.*limb 0"):
            load_zoo(tmp_path / "zoo")

    def test_worker_reload_keeps_its_generation(self, small_artifact, tmp_path, caplog):
        _entry, path = small_artifact
        zoo = tmp_path / "zoo"
        zoo.mkdir()
        shutil.copy(path, zoo / "tiny.rpa")
        artifact = load_artifact(zoo / "tiny.rpa")
        update_manifest(zoo, artifact, "tiny.rpa")
        server = ShardWorkerServer(zoo)
        server.registry = load_zoo(zoo)
        generation = server.registry.zoo_generation
        _forge(path, zoo / "tiny.rpa", FORGERIES["conv-field-dropped"][0])
        update_manifest(zoo, artifact, "tiny.rpa")  # a new generation to pick up
        with caplog.at_level(logging.WARNING):
            server._maybe_reload()
        assert server.registry.zoo_generation == generation
        assert server.reloads_total == 0
        assert server.registry.names() == ["tiny"]
        assert "keeping zoo generation" in caplog.text
