"""Zoo generations and live reloads: the deployment-versioning contract.

The live-upgrade path (PR 10) rests on two small guarantees:

* the manifest ``generation`` counter is monotonic and total -- every
  ``update_manifest`` bumps it by exactly one, unversioned manifests
  compare older than every versioned one, and malformed counters raise
  instead of mis-ordering a deployment;
* :meth:`~repro.serving.registry.ModelRegistry.reload_zoo` is
  *transactional*: idempotent at the same generation, all-or-nothing
  across a multi-model diff, and it refuses parameter-fingerprint
  changes with a specific :class:`~repro.artifacts.ArtifactError`
  (sessions and Galois keys are parameter-bound).

Hypothesis drives the generation-counter properties; the reload tests run
against real compiled artifacts so the staging path (load, verify,
cross-check) is the production one.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts import (
    ArtifactError,
    load_zoo,
    manifest_generation,
    read_manifest,
    save_artifact,
    update_manifest,
)
from repro.bfv import BfvParameters
from repro.core.noise_model import Schedule
from repro.serving import (
    DEMO_RESCALE_BITS,
    ModelRegistry,
    demo_network,
    demo_weights,
)

SCHEDULE = Schedule.INPUT_ALIGNED


# -- generation counter --------------------------------------------------------

class TestManifestGeneration:
    def test_absent_manifest_is_generation_zero(self, tmp_path):
        assert manifest_generation(None) == 0
        assert manifest_generation(tmp_path) == 0  # no manifest.json at all

    def test_pre_versioning_manifest_is_generation_zero(self):
        assert manifest_generation({"kind": "repro-artifact-zoo", "models": []}) == 0

    @given(bad=st.one_of(st.text(alphabet="xyz!", min_size=1), st.none()))
    def test_malformed_counter_raises(self, bad):
        with pytest.raises(ArtifactError, match="generation"):
            manifest_generation({"generation": bad})

    @given(generation=st.integers(max_value=-1))
    def test_negative_counter_raises(self, generation):
        with pytest.raises(ArtifactError, match="generation"):
            manifest_generation({"generation": generation})

    @given(updates=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_every_update_bumps_by_exactly_one(self, tmp_path_factory, updates):
        # update_manifest only reads the model's recorded facts, so a
        # lightweight stand-in exercises the counter without compiling.
        params = BfvParameters.create(
            n=64, plain_bits=18, coeff_bits=54, a_dcmp_bits=10,
            require_security=False,
        )
        model = SimpleNamespace(
            name="m", params=params, schedule=SCHEDULE,
            rescale_bits=DEMO_RESCALE_BITS, rotation_steps=[1, 2],
        )
        directory = tmp_path_factory.mktemp("gen")
        for expected in range(1, updates + 1):
            update_manifest(directory, model, "m.rpa")
            assert manifest_generation(read_manifest(directory)) == expected


# -- transactional reloads -----------------------------------------------------

@pytest.fixture(scope="module")
def params():
    return BfvParameters.create(
        n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=16,
        require_security=False,
    )


def _compile(name: str, params, seed: int = 0):
    return ModelRegistry().register(
        name, demo_network(), demo_weights(seed=seed), params,
        schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
    )


def _write(directory, *entries):
    for entry in entries:
        save_artifact(entry, directory / f"{entry.name}.rpa")
        update_manifest(directory, entry, f"{entry.name}.rpa")
    return directory


@pytest.fixture(scope="module")
def zoo_v1(params, tmp_path_factory):
    return _write(
        tmp_path_factory.mktemp("zoo-v1"),
        _compile("alpha", params, seed=0),
        _compile("beta", params, seed=1),
    )


class TestReloadZoo:
    def test_same_generation_reload_is_idempotent(self, zoo_v1):
        registry = load_zoo(zoo_v1)
        before = {name: registry.get(name) for name in registry.names()}
        for _ in range(2):
            summary = registry.reload_zoo()
            assert summary["applied"] is False
            assert summary["generation"] == summary["previous_generation"]
        # Not merely equal: the very same live entries (no churn at all).
        for name, entry in before.items():
            assert registry.get(name) is entry

    def test_new_generation_swaps_updated_entries_only(
        self, params, zoo_v1, tmp_path_factory
    ):
        registry = load_zoo(zoo_v1)
        old_alpha = registry.get("alpha")
        old_beta = registry.get("beta")
        # Regenerate beta in place (same weights): generation moves.
        _write(zoo_v1, _compile("beta", params, seed=1))
        summary = registry.reload_zoo()
        assert summary["applied"] is True
        assert summary["generation"] == summary["previous_generation"] + 1
        assert summary["updated"] == ["alpha", "beta"]
        assert registry.zoo_generation == summary["generation"]
        # Old entries stay alive for pinned sessions; the table moved on.
        assert registry.get("beta") is not old_beta
        assert old_alpha.plans and old_beta.plans

    def test_params_fingerprint_change_is_rejected(
        self, params, zoo_v1, tmp_path_factory
    ):
        registry = load_zoo(zoo_v1)
        other_params = BfvParameters.create(
            n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=20,
            require_security=False,
        )
        bad = _write(
            tmp_path_factory.mktemp("zoo-badparams"),
            _compile("alpha", other_params, seed=0),
            _compile("beta", params, seed=1),
        )
        before = {name: registry.get(name) for name in registry.names()}
        generation = registry.zoo_generation
        with pytest.raises(ArtifactError, match="parameter fingerprint"):
            registry.reload_zoo(bad)
        # Nothing applied: same entries, same generation, same directory.
        assert {name: registry.get(name) for name in registry.names()} == before
        assert registry.zoo_generation == generation
        assert registry.zoo_dir == str(zoo_v1)

    def test_multi_model_diff_never_partially_applies(
        self, params, zoo_v1, tmp_path_factory
    ):
        """One good artifact + one bad one must apply *neither*."""
        registry = load_zoo(zoo_v1)
        other_params = BfvParameters.create(
            n=256, plain_bits=20, coeff_bits=100, a_dcmp_bits=20,
            require_security=False,
        )
        mixed = _write(
            tmp_path_factory.mktemp("zoo-mixed"),
            _compile("alpha", params, seed=0),   # fine: same fingerprint
            _compile("beta", other_params, seed=1),  # rejected
        )
        old_alpha = registry.get("alpha")
        generation = registry.zoo_generation
        with pytest.raises(ArtifactError, match="parameter fingerprint"):
            registry.reload_zoo(mixed)
        assert registry.get("alpha") is old_alpha
        assert registry.zoo_generation == generation

    def test_dropped_model_is_removed(self, params, tmp_path_factory):
        full = _write(
            tmp_path_factory.mktemp("zoo-full"),
            _compile("alpha", params, seed=0),
            _compile("beta", params, seed=1),
        )
        registry = load_zoo(full)
        slim = _write(
            tmp_path_factory.mktemp("zoo-slim"), _compile("alpha", params, seed=0)
        )
        summary = registry.reload_zoo(slim)
        assert summary["applied"] is True
        assert summary["removed"] == ["beta"]
        assert registry.names() == ["alpha"]

    def test_reload_without_zoo_provenance_raises(self, params):
        registry = ModelRegistry()
        registry.register(
            "demo", demo_network(), demo_weights(), params,
            schedule=SCHEDULE, rescale_bits=DEMO_RESCALE_BITS,
        )
        with pytest.raises(ArtifactError, match="needs a directory"):
            registry.reload_zoo()
