"""Server-side model registry: compile once, serve every session.

A :class:`ModelRegistry` owns the cloud's share of each deployed model:
the network description, a server :class:`~repro.bfv.scheme.BfvScheme`
(no secret key -- the cloud only ever computes on ciphertexts), and the
compiled :class:`~repro.scheduling.plan.ConvPlan` / ``FcPlan`` for every
linear layer.  Plans are weight-bound but key-independent, so one offline
compile is amortised across all sessions and all clients; the underlying
NTT engine is likewise shared through the
:func:`~repro.bfv.ntt_batch.get_engine` memoization, so two models on the
same parameter set reuse one set of twiddle tables.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..bfv.params import BfvParameters
from ..bfv.scheme import BfvScheme
from ..bfv.serialize import params_to_dict
from ..core.noise_model import Schedule
from ..nn.layers import ConvLayer, FCLayer
from ..nn.models import Network
from ..scheduling.plan import compile_plans, union_rotation_steps


def validate_weights(network: Network, weights: dict) -> None:
    """Check a weights dict against a network *before* any compilation.

    Requires the keys to be exactly the network's linear-layer names and
    every array to have the layer's shape -- ``(co, ci, fw, fw)`` for a
    convolution, ``(no, ni)`` for an FC layer -- with an integer dtype
    (plans quantize offline; float weights are a caller bug).  All
    problems are reported in one :class:`ValueError` instead of surfacing
    one at a time mid-compile.
    """
    expected_names = [layer.name for layer in network.linear_layers]
    problems = []
    missing = [name for name in expected_names if name not in weights]
    if missing:
        problems.append(f"missing weights for layer(s) {missing}")
    unexpected = sorted(set(weights) - set(expected_names))
    if unexpected:
        problems.append(
            f"unexpected weight key(s) {unexpected} "
            f"(linear layers are {expected_names})"
        )
    for layer in network.linear_layers:
        if layer.name not in weights:
            continue
        array = np.asarray(weights[layer.name])
        if isinstance(layer, ConvLayer):
            expected_shape = (layer.co, layer.ci, layer.fw, layer.fw)
        else:
            expected_shape = (layer.no, layer.ni)
        if array.shape != expected_shape:
            problems.append(
                f"layer {layer.name!r} expects weights of shape "
                f"{expected_shape}, got {array.shape}"
            )
        if array.dtype.kind not in "iu":
            problems.append(
                f"layer {layer.name!r} expects integer (quantized) weights, "
                f"got dtype {array.dtype}"
            )
    if problems:
        raise ValueError(
            f"invalid weights for network {network.name!r}: "
            + "; ".join(problems)
        )


@dataclass
class ModelEntry:
    """One deployed model: params, server scheme, and compiled plans."""

    name: str
    network: Network
    params: BfvParameters
    schedule: Schedule
    rescale_bits: int
    scheme: BfvScheme = field(repr=False)
    plans: dict = field(repr=False)
    rotation_steps: list[int] = field(default_factory=list)

    def layer(self, name: str):
        """Resolve a *linear* layer by name (activations never hit the wire)."""
        for layer in self.network.linear_layers:
            if layer.name == name:
                return layer
        raise KeyError(f"model {self.name!r} has no linear layer {name!r}")

    def handshake_meta(self) -> dict:
        """The JSON-safe model facts a client needs after ``hello``."""
        layers = {}
        for layer in self.network.linear_layers:
            if isinstance(layer, ConvLayer):
                layers[layer.name] = {
                    "kind": "conv",
                    "grid_w": self.plans[layer.name].grid_w,
                }
            else:
                layers[layer.name] = {"kind": "fc", "no": layer.no}
        return {
            "rotation_steps": list(self.rotation_steps),
            "schedule": self.schedule.value,
            "rescale_bits": self.rescale_bits,
            "layers": layers,
        }


class ModelRegistry:
    """Name -> :class:`ModelEntry` table with one-time plan compilation.

    Reads are lock-free: lookups hand out immutable :class:`ModelEntry`
    references, and :meth:`reload_zoo` replaces the whole name table in
    one atomic assignment (read-copy-update), so an in-flight round that
    already resolved its entry keeps serving the old generation while new
    handshakes bind the new one.
    """

    def __init__(self) -> None:
        self._models: dict[str, ModelEntry] = {}
        #: Serialises registry *mutations* (reloads and registrations);
        #: never taken on the lookup path.
        self._swap_lock = threading.Lock()
        #: Deployment identity when the registry was populated by
        #: :meth:`reload_zoo` (which :func:`~repro.artifacts.zoo.load_zoo`
        #: calls on a fresh registry).
        self.zoo_dir: str | None = None
        self.zoo_generation: int = 0
        self._zoo_names: set[str] = set()

    def register(
        self,
        name: str,
        network: Network,
        weights: dict[str, np.ndarray],
        params: BfvParameters,
        schedule: Schedule = Schedule.PARTIAL_ALIGNED,
        rescale_bits: int = 6,
        seed: int = 0,
    ) -> ModelEntry:
        """Deploy a model: compile every linear layer's plan offline.

        The returned entry is shared by every future session for ``name``;
        re-registering a name replaces it.  The ``weights`` dict is
        validated up front (see :func:`validate_weights`), so a missing
        layer, stray key, or wrong-shaped array raises one clear error
        here instead of failing partway through plan compilation.
        """
        validate_weights(network, weights)
        scheme = BfvScheme(params, seed=seed)
        plans = compile_plans(scheme, network, weights, schedule)
        entry = ModelEntry(
            name=name,
            network=network,
            params=params,
            schedule=schedule,
            rescale_bits=rescale_bits,
            scheme=scheme,
            plans=plans,
            rotation_steps=union_rotation_steps(plans),
        )
        self._models[name] = entry
        return entry

    def register_artifact(
        self,
        source,
        name: str | None = None,
        verify: bool | str = True,
        seed: int = 0,
    ) -> ModelEntry:
        """Deploy a model from a compiled ``.rpa`` artifact -- zero recompute.

        ``source`` is an artifact path or an already-loaded
        :class:`~repro.artifacts.store.ModelArtifact`.  The weight stacks
        stay memmapped read-only (no NTT runs, nothing is copied at
        load); plans are rebuilt from metadata via ``from_stacks``.  The
        artifact's recorded rotation-step union is cross-checked against
        the rebuilt plans so a tampered header cannot under-provision
        Galois keys.

        ``verify`` only applies when ``source`` is a path: a pre-loaded
        ``ModelArtifact`` was already checked at whatever level its
        ``load_artifact`` call requested, and is not re-read here.
        """
        entry = self._entry_from_artifact(source, name=name, verify=verify, seed=seed)
        self._models[entry.name] = entry
        return entry

    def _entry_from_artifact(
        self,
        source,
        name: str | None = None,
        verify: bool | str = True,
        seed: int = 0,
    ) -> ModelEntry:
        """Build (but do not register) a :class:`ModelEntry` from an artifact."""
        from ..artifacts.store import ModelArtifact, load_artifact

        artifact = (
            source
            if isinstance(source, ModelArtifact)
            else load_artifact(source, verify=verify)
        )
        scheme = BfvScheme(artifact.params, seed=seed)
        plans = artifact.build_plans(scheme)
        steps = union_rotation_steps(plans)
        if steps != sorted(artifact.rotation_steps):
            from ..artifacts.format import ArtifactError

            raise ArtifactError(
                f"artifact rotation steps {sorted(artifact.rotation_steps)} "
                f"do not match the rebuilt plans' union {steps}"
            )
        return ModelEntry(
            name=name or artifact.name,
            network=artifact.network,
            params=artifact.params,
            schedule=artifact.schedule,
            rescale_bits=artifact.rescale_bits,
            scheme=scheme,
            plans=plans,
            rotation_steps=steps,
        )

    def reload_zoo(self, directory=None, verify: bool | str = True) -> dict:
        """Reload a zoo directory and atomically swap to its generation.

        The live-upgrade path (``repro admin reload-zoo``): re-reads
        ``directory`` (default: the directory this registry was loaded
        from), and

        - **no-ops when nothing changed** -- same directory at the same
          manifest generation returns ``{"applied": False, ...}`` without
          touching any entry (reloads are idempotent, so an admin retry
          or a replayed wire frame is harmless);
        - **stages everything before applying anything** -- every
          artifact of the new generation is loaded and validated first,
          so a corrupt or incompatible artifact raises
          :class:`~repro.artifacts.format.ArtifactError` and leaves the
          registry exactly as it was (a multi-model diff is never
          partially applied);
        - **rejects parameter changes** -- a model whose parameter
          fingerprint differs from the entry currently serving that name
          raises ``ArtifactError``: sessions, Galois keys, and mask
          encodings are parameter-bound, so such a change needs a new
          deployment, not a live swap;
        - **swaps by read-copy-update** -- the name table is replaced in
          one assignment.  Sessions that pinned an old entry at handshake
          keep computing on it (old plans and memmaps stay alive as long
          as anything references them); new handshakes resolve the new
          generation.

        Returns a summary dict: ``applied``, ``generation``,
        ``previous_generation``, and the ``added`` / ``updated`` /
        ``removed`` model-name lists.
        """
        from ..artifacts.format import ArtifactError
        from ..artifacts.store import ARTIFACT_SUFFIX, load_artifact
        from ..artifacts.zoo import (
            manifest_generation,
            read_manifest,
            zoo_files,
        )

        if directory is None:
            directory = self.zoo_dir
        if directory is None:
            raise ArtifactError(
                "reload_zoo needs a directory: this registry was not "
                "loaded from a zoo and none was given"
            )
        directory = Path(directory)
        with self._swap_lock:
            generation = manifest_generation(read_manifest(directory))
            previous = self.zoo_generation
            if (
                self.zoo_dir is not None
                and directory == Path(self.zoo_dir)
                and generation == previous
            ):
                return {
                    "applied": False,
                    "generation": generation,
                    "previous_generation": previous,
                    "added": [],
                    "updated": [],
                    "removed": [],
                }
            # Stage: load and validate the entire new generation before
            # touching the live table.
            files = zoo_files(directory)
            if not files:
                raise ArtifactError(
                    f"no {ARTIFACT_SUFFIX} artifacts found in {directory}"
                )
            staged: dict[str, ModelEntry] = {}
            sources: dict[str, Path] = {}
            for path in files:
                artifact = load_artifact(path, verify=verify)
                if artifact.name in staged:
                    raise ArtifactError(
                        f"{path.name} redeclares model {artifact.name!r} "
                        f"already provided by {sources[artifact.name].name}"
                    )
                sources[artifact.name] = path
                current = self._models.get(artifact.name)
                if current is not None and params_to_dict(
                    artifact.params
                ) != params_to_dict(current.params):
                    raise ArtifactError(
                        f"reload rejected: model {artifact.name!r} changes "
                        f"its parameter fingerprint; live sessions and keys "
                        f"are parameter-bound (redeploy instead)"
                    )
                staged[artifact.name] = self._entry_from_artifact(artifact)
            removed = sorted(self._zoo_names - set(staged))
            added = sorted(name for name in staged if name not in self._models)
            updated = sorted(name for name in staged if name in self._models)
            # Commit: one new table, one assignment.
            models = {
                name: entry
                for name, entry in self._models.items()
                if name not in removed
            }
            models.update(staged)
            self._models = models
            self.zoo_dir = str(directory)
            self.zoo_generation = generation
            self._zoo_names = set(staged)
        return {
            "applied": True,
            "generation": generation,
            "previous_generation": previous,
            "added": added,
            "updated": updated,
            "removed": removed,
        }

    def get(self, name: str) -> ModelEntry:
        try:
            return self._models[name]
        except KeyError:
            raise KeyError(
                f"no model {name!r} registered (available: {sorted(self._models)})"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._models)

    def entries(self) -> list[ModelEntry]:
        """The currently registered entries (latest registration per name)."""
        return list(self._models.values())

    def params_compatible(self, entry: ModelEntry, client_params) -> str | None:
        """Validate a client's ``hello`` parameter dict against a model.

        Returns ``None`` when compatible, else a human-readable reason --
        ``params`` is an object whose every wire field must match, because
        plans, Galois keys, and mask encodings are all parameter-bound.
        """
        if not isinstance(client_params, dict):
            return f"hello 'params' must be an object, got {type(client_params).__name__}"
        for key, value in params_to_dict(entry.params).items():
            if (got := client_params.get(key)) != value:
                return (
                    f"parameter mismatch on {key!r}: model {entry.name!r} "
                    f"expects {value}, client sent {got}"
                )
        return None
