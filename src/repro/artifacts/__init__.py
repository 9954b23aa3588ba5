"""Ahead-of-time model artifacts: compile once, warm-start everywhere.

The subsystem that persists a fully compiled model -- eval-domain weight
stacks, plan metadata, rotation-step union, parameter fingerprint -- as
a versioned, integrity-hashed ``.rpa`` binary and loads it back with
zero recompute (stacks are ``np.memmap``'d read-only; plans rebuild from
metadata alone).  See :mod:`repro.artifacts.format` for the container,
:mod:`repro.artifacts.store` for save/load, and
:mod:`repro.artifacts.zoo` for multi-model deployment directories.
"""

from .format import ArtifactError, FORMAT_VERSION, SECTION_ALIGN
from .store import ARTIFACT_SUFFIX, ModelArtifact, load_artifact, save_artifact
from .zoo import (
    MANIFEST_NAME,
    load_zoo,
    manifest_entry,
    manifest_generation,
    read_manifest,
    update_manifest,
    zoo_files,
)

__all__ = [
    "ArtifactError",
    "FORMAT_VERSION",
    "SECTION_ALIGN",
    "ARTIFACT_SUFFIX",
    "ModelArtifact",
    "load_artifact",
    "save_artifact",
    "MANIFEST_NAME",
    "load_zoo",
    "manifest_entry",
    "manifest_generation",
    "read_manifest",
    "update_manifest",
    "zoo_files",
]
