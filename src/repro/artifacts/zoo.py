"""The artifact model zoo: a directory of ``.rpa`` files + one manifest.

A deployment is a directory of compiled model artifacts.  The optional
``manifest.json`` is the deployment record: one entry per model naming
the artifact file, its parameter fingerprint, schedule, and (when the
deployment was tuned with :mod:`repro.core.ptune`) the tuned-parameter
stamp, so operations can answer "exactly what was this fleet compiled
for?" without opening the binaries.

:func:`load_zoo` turns such a directory into a populated
:class:`~repro.serving.registry.ModelRegistry` -- one multi-model server
warm-started from disk with zero plan recompilation.  The loading itself
lives in one place, :meth:`~repro.serving.registry.ModelRegistry.reload_zoo`:
a first load is a reload into an empty registry.

Manifests are *versioned*: every :func:`update_manifest` call bumps a
monotonic ``generation`` counter, so a running server can answer "is the
zoo on disk newer than what I serve?" with one integer compare
(:func:`manifest_generation`) and reload only when it is.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

from ..bfv.serialize import params_to_dict
from .format import ArtifactError
from .store import ARTIFACT_SUFFIX

MANIFEST_NAME = "manifest.json"

_MANIFEST_KIND = "repro-artifact-zoo"


def manifest_entry(model, file_name: str, tuned: dict | None = None) -> dict:
    """The deployment-record line for one artifact.

    ``model`` is anything carrying ``name/params/schedule/rescale_bits/
    rotation_steps`` -- a loaded :class:`ModelArtifact` or the
    :class:`~repro.serving.registry.ModelEntry` that was just compiled
    (so ``repro compile`` never re-reads the file it wrote).  ``tuned``
    defaults to the model's own stamp when it has one.
    """
    entry = {
        "name": model.name,
        "file": str(file_name),
        "params": params_to_dict(model.params),
        "schedule": model.schedule.value,
        "rescale_bits": int(model.rescale_bits),
        "rotation_steps": len(model.rotation_steps),
    }
    if tuned is None:
        tuned = getattr(model, "tuned", None)
    if tuned is not None:
        entry["tuned"] = tuned
    return entry


def manifest_generation(manifest) -> int:
    """The generation counter of a manifest (or zoo directory).

    Accepts a parsed manifest dict, a directory (read on the spot), or
    ``None``.  Manifests written before generations existed -- and
    directories without a manifest at all -- count as generation 0, so
    every versioned manifest compares newer than every unversioned one.
    """
    if manifest is None:
        return 0
    if not isinstance(manifest, dict):
        manifest = read_manifest(manifest)
        if manifest is None:
            return 0
    generation = manifest.get("generation", 0)
    try:
        generation = int(generation)
    except (TypeError, ValueError):
        raise ArtifactError(
            f"zoo manifest generation must be an integer, got {generation!r}"
        ) from None
    if generation < 0:
        raise ArtifactError(
            f"zoo manifest generation must be >= 0, got {generation}"
        )
    return generation


def read_manifest(directory) -> dict | None:
    """Parse ``manifest.json`` in ``directory``; ``None`` when absent."""
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: malformed zoo manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != _MANIFEST_KIND:
        raise ArtifactError(f"{path}: not a {_MANIFEST_KIND} manifest")
    return manifest


def update_manifest(
    directory, model, file_name: str, tuned: dict | None = None
) -> Path:
    """Add or replace ``model``'s entry in the directory manifest.

    Every call bumps the manifest's ``generation`` counter: the manifest
    is the deployment record, and any write to it *is* a new deployment
    generation as far as a running server is concerned.
    """
    directory = Path(directory)
    manifest = read_manifest(directory) or {"kind": _MANIFEST_KIND, "models": []}
    models = [
        entry for entry in manifest.get("models", [])
        if entry.get("name") != model.name
    ]
    models.append(manifest_entry(model, file_name, tuned=tuned))
    manifest["models"] = sorted(models, key=lambda entry: entry["name"])
    manifest["generation"] = manifest_generation(manifest) + 1
    path = directory / MANIFEST_NAME
    directory.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def zoo_files(directory) -> list[Path]:
    """The artifact files of a zoo directory, manifest order when present.

    When a manifest exists it is authoritative, but an ``.rpa`` file
    sitting in the directory *unlisted* is almost always an operator
    mistake (``repro compile`` without ``--manifest``), so it is warned
    about rather than silently skipped -- the inverse case (listed but
    missing) is an error, matching.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    on_disk = sorted(directory.glob(f"*{ARTIFACT_SUFFIX}"))
    if manifest is None:
        return on_disk
    files = []
    for entry in manifest.get("models", []):
        path = directory / str(entry.get("file", ""))
        if not path.exists():
            raise ArtifactError(
                f"manifest lists {entry.get('file')!r} for model "
                f"{entry.get('name')!r}, but the file is missing from {directory}"
            )
        files.append(path)
    unlisted = [path.name for path in on_disk if path not in files]
    if unlisted:
        warnings.warn(
            f"{directory}: artifact(s) {unlisted} are not listed in "
            f"{MANIFEST_NAME} and will not be served (compile with "
            f"--manifest, or delete them)",
            stacklevel=2,
        )
    return files


def load_zoo(directory, verify: bool | str = True):
    """Load every artifact of a zoo directory into a fresh registry.

    Returns the populated :class:`~repro.serving.registry.ModelRegistry`:
    :meth:`~repro.serving.registry.ModelRegistry.reload_zoo` into an empty
    one, so every model warm-starts from its artifact -- memmapped stacks,
    zero plan recompilation -- and two artifacts declaring the same model
    name are an error (a zoo is a deployment record, not a precedence
    puzzle).

    The loaded registry remembers *which* deployment it serves: the zoo
    directory, the manifest generation, and the set of model names the
    zoo provided, so a later ``reload_zoo`` can no-op on a
    same-generation directory and remove models a new generation drops.
    """
    from ..serving.registry import ModelRegistry

    registry = ModelRegistry()
    registry.reload_zoo(directory, verify=verify)
    return registry
