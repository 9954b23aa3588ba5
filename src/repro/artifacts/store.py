"""Save and load fully compiled models as ``.rpa`` artifacts.

Cheetah's discipline is to pay HE cost offline so the online path is
bare: plans compile once and execute many times, and one server compile
is amortised across every session.  This module extends the amortisation
across *process lifetimes*: :func:`save_artifact` persists everything a
compiled :class:`~repro.serving.registry.ModelEntry` derived from the
weights -- the eval-domain weight stacks, per-layer plan metadata, the
rotation-step union, the network description, and a parameter
fingerprint -- and :func:`load_artifact` brings it back with **zero
recompute**: the weight stacks are read-only memmap views (no NTT calls,
no copies) and plans are rebuilt from metadata alone via
``LinearPlan.from_metadata``.  A header that does not describe a model --
a missing, unknown or mistyped field -- raises
:class:`~repro.artifacts.format.ArtifactError` naming the file, the layer
and the field, like every other rejected artifact.

A fleet of server processes pointed at one artifact therefore
warm-starts in milliseconds and shares the weight pages through the OS
page cache instead of each process re-encoding and privately holding
every weight plaintext.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..bfv.params import BfvParameters
from ..bfv.serialize import params_from_dict, params_to_dict
from ..core.noise_model import Schedule
from ..nn.models import Network, network_from_dict, network_to_dict
from ..scheduling.plan import LinearPlan
from .format import ArtifactError, read_container, write_container

#: Conventional file suffix for repro model artifacts.
ARTIFACT_SUFFIX = ".rpa"

_KIND = "repro-model-artifact"


@dataclass
class ModelArtifact:
    """A compiled model as loaded from (or destined for) an ``.rpa`` file.

    ``stacks`` holds one eval-domain weight array per linear layer --
    read-only memmap views when the artifact came from
    :func:`load_artifact`.  :meth:`build_plans` turns the metadata +
    stacks into executable plans without recomputing anything.
    """

    name: str
    network: Network
    params: BfvParameters
    schedule: Schedule
    rescale_bits: int
    rotation_steps: list[int]
    layer_meta: dict[str, dict]
    stacks: dict[str, np.ndarray] = field(repr=False)
    tuned: dict | None = None
    path: Path | None = None

    def build_plans(self, scheme) -> dict:
        """Reconstruct executable plans from metadata + stacks (no NTTs)."""
        return {
            name: _read(self.path, f"layer {name!r}", lambda: LinearPlan.from_metadata(
                scheme, self.layer_meta[name], self.stacks[name]
            ))
            for name in (layer.name for layer in self.network.linear_layers)
        }


def _read(path, what: str, read):
    """``read()``; a malformed header field raises an :class:`ArtifactError`
    naming the file and ``what``."""
    try:
        return read()
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        name = path.name if path is not None else "artifact"
        raise ArtifactError(f"{name}: malformed {what}: {exc}") from exc


def save_artifact(entry, path, tuned: dict | None = None) -> Path:
    """Serialise a compiled registry entry to ``path`` (an ``.rpa`` file).

    ``entry`` is a :class:`~repro.serving.registry.ModelEntry` (anything
    with ``name/network/params/schedule/rescale_bits/plans/
    rotation_steps``).  ``tuned`` optionally stamps the HE-PTune
    parameter record the deployment was tuned with, so the artifact (and
    any zoo manifest built from it) documents exactly the
    ``(n, q, w_dcmp, schedule)`` it was compiled for.
    """
    header = {
        "kind": _KIND,
        "model": {
            "name": entry.name,
            "schedule": entry.schedule.value,
            "rescale_bits": int(entry.rescale_bits),
        },
        "params": params_to_dict(entry.params),
        "network": network_to_dict(entry.network),
        "rotation_steps": [int(step) for step in entry.rotation_steps],
        "layers": {
            name: plan.metadata() for name, plan in entry.plans.items()
        },
    }
    if tuned is not None:
        header["tuned"] = tuned
    arrays = {name: plan.weight_stacks for name, plan in entry.plans.items()}
    path = Path(path)
    write_container(path, header, arrays)
    return path


def load_artifact(
    path, params: BfvParameters | None = None, verify: bool | str = True
) -> ModelArtifact:
    """Load an ``.rpa`` artifact with zero recompute.

    The weight stacks come back as read-only memmap views; no NTT runs
    and nothing is copied.  When ``params`` is given, the artifact's
    parameter fingerprint must match it field-for-field (plans are
    parameter-bound), otherwise the parameters are reconstructed from the
    fingerprint.  Integrity failures and mismatches raise
    :class:`~repro.artifacts.format.ArtifactError` with a reason.
    """
    path = Path(path)
    header, arrays = read_container(path, verify=verify)
    if header.get("kind") != _KIND:
        raise ArtifactError(
            f"{path.name}: expected a {_KIND}, got {header.get('kind')!r}"
        )
    stored_params = header.get("params")
    if not isinstance(stored_params, dict):
        raise ArtifactError(f"{path.name}: artifact missing parameter fingerprint")
    if params is not None:
        expected = params_to_dict(params)
        for key, value in expected.items():
            if stored_params.get(key) != value:
                raise ArtifactError(
                    f"{path.name}: artifact was compiled for different "
                    f"parameters (mismatch on {key!r}: artifact has "
                    f"{stored_params.get(key)}, expected {value})"
                )
    else:
        params = params_from_dict(stored_params)

    network = _read(path, "'network'", lambda: network_from_dict(header["network"]))
    layers = header.get("layers")
    if not isinstance(layers, dict):
        raise ArtifactError(f"{path.name}: malformed 'layers': not an object")
    for name, meta in layers.items():
        if not isinstance(meta, dict):
            raise ArtifactError(f"{path.name}: malformed layer {name!r}: not an object")
    layer_meta = {str(name): dict(meta) for name, meta in layers.items()}
    linear_names = {layer.name for layer in network.linear_layers}
    if set(layer_meta) != linear_names:
        raise ArtifactError(
            f"{path.name}: plan metadata covers {sorted(layer_meta)}, "
            f"network has linear layers {sorted(linear_names)}"
        )
    missing = linear_names - set(arrays)
    if missing:
        raise ArtifactError(
            f"{path.name}: missing weight section(s) {sorted(missing)}"
        )
    model = header.get("model")
    return ModelArtifact(
        name=_read(path, "'model.name'", lambda: str(model["name"])),
        network=network,
        params=params,
        schedule=_read(path, "'model.schedule'", lambda: Schedule(model["schedule"])),
        rescale_bits=_read(path, "'model.rescale_bits'", lambda: int(model["rescale_bits"])),
        rotation_steps=_read(
            path, "'rotation_steps'",
            lambda: [int(step) for step in header.get("rotation_steps", [])],
        ),
        layer_meta=layer_meta,
        stacks={name: arrays[name] for name in linear_names},
        tuned=header.get("tuned"),
        path=path,
    )
