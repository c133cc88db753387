"""Versioned model checkpoints and the model registry.

A checkpoint is one directory holding everything a serving process needs to
rebuild a trained model and find its data:

.. code-block:: text

    v00003/
      checkpoint.json   # format version, model class + constructor config,
                        # compression scheme, dataset metadata, created time
      weights.npz       # the flattened parameter vector

Weights travel through ``model.get_parameters()`` / ``set_parameters()``,
so every model in :mod:`repro.ml.models` checkpoints without model-specific
code.  The :class:`ModelRegistry` stacks numbered checkpoint directories
under one root and resolves ``"latest"`` or a pinned version number, which
is what lets a trainer keep publishing new versions while serving stays on
a known-good one.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.ml.models import (
    FeedForwardNetwork,
    LinearRegressionModel,
    LinearSVMModel,
    LogisticRegressionModel,
)
from repro.ml.multiclass import OneVsRestModel
from repro.storage.mmapio import publish_file

CHECKPOINT_NAME = "checkpoint.json"
WEIGHTS_NAME = "weights.npz"

#: Format v2 adds the ``"api"`` block (facade metadata written by
#: :meth:`repro.api.Estimator.save`); v1 checkpoints predate it and load with
#: an empty block.
CHECKPOINT_FORMAT_VERSION = 2

#: Checkpoint formats :func:`load_checkpoint` understands.
SUPPORTED_CHECKPOINT_VERSIONS = (1, 2)

#: Models the checkpoint layer can rebuild, keyed by their ``name`` attribute.
MODEL_CLASSES = {
    cls.name: cls
    for cls in (
        LinearRegressionModel,
        LogisticRegressionModel,
        LinearSVMModel,
        FeedForwardNetwork,
        OneVsRestModel,
    )
}


def _model_config(model) -> dict:
    """Constructor kwargs needed to rebuild ``model`` with the right shape."""
    if isinstance(model, FeedForwardNetwork):
        return {
            "n_features": model.n_features,
            "hidden_sizes": [int(w.shape[1]) for w in model.weights[:-1]],
            "n_classes": model.n_classes,
            "l2": model.l2,
        }
    if isinstance(model, OneVsRestModel):
        return {
            "n_features": model.n_features,
            "base": model.base,
            "n_classes": model.n_classes,
            "l2": model.l2,
        }
    return {"n_features": model.n_features, "l2": model.l2}


def _build_model(model_name: str, config: dict):
    try:
        cls = MODEL_CLASSES[model_name]
    except KeyError:
        raise ValueError(
            f"checkpoint holds unknown model {model_name!r}; known: {sorted(MODEL_CLASSES)}"
        ) from None
    config = dict(config)
    if "hidden_sizes" in config:
        config["hidden_sizes"] = tuple(config["hidden_sizes"])
    return cls(**config)


@dataclass
class Checkpoint:
    """A trained model rebuilt from disk, plus its provenance."""

    model: object
    model_name: str
    scheme_name: str | None
    dataset_meta: dict = field(default_factory=dict)
    created_unix: float = 0.0
    version: int | None = None
    path: Path | None = None
    #: Facade metadata (estimator hyper-parameters, fit provenance); empty
    #: for format-v1 checkpoints, which predate the ``repro.api`` layer.
    api_meta: dict = field(default_factory=dict)
    format_version: int = CHECKPOINT_FORMAT_VERSION

    @property
    def shard_dir(self) -> Path | None:
        """Shard directory recorded at save time, if any."""
        recorded = self.dataset_meta.get("shard_dir")
        return Path(recorded) if recorded else None


def save_checkpoint(
    model,
    directory: Path | str,
    *,
    scheme_name: str | None = None,
    dataset_meta: dict | None = None,
    api_meta: dict | None = None,
) -> Path:
    """Persist ``model`` (weights + rebuild config + provenance) to ``directory``.

    ``api_meta`` is the facade's block (format v2): estimator configuration
    and fit provenance that :meth:`repro.api.Estimator.load` uses to rebuild
    the estimator around the model.
    """
    model_name = getattr(model, "name", None)
    if model_name not in MODEL_CLASSES:
        raise ValueError(
            f"cannot checkpoint {type(model).__name__}: not one of {sorted(MODEL_CLASSES)}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    weights = io.BytesIO()
    np.savez(weights, parameters=model.get_parameters())
    publish_file(directory / WEIGHTS_NAME, weights.getvalue())
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model": model_name,
        "config": _model_config(model),
        "scheme": scheme_name,
        "dataset": dict(dataset_meta or {}),
        "api": dict(api_meta or {}),
        "created_unix": time.time(),
    }
    # Written last and whole: a version directory without it is not listed.
    publish_file(directory / CHECKPOINT_NAME, json.dumps(manifest, indent=2).encode())
    return directory


def load_checkpoint(directory: Path | str) -> Checkpoint:
    """Rebuild a model (and its provenance) from a checkpoint directory."""
    directory = Path(directory)
    manifest_path = directory / CHECKPOINT_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no checkpoint at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if version not in SUPPORTED_CHECKPOINT_VERSIONS:
        raise ValueError(
            f"unsupported checkpoint format {version!r} "
            f"(expected one of {SUPPORTED_CHECKPOINT_VERSIONS})"
        )
    model = _build_model(manifest["model"], manifest["config"])
    with np.load(directory / WEIGHTS_NAME) as archive:
        model.set_parameters(archive["parameters"])
    return Checkpoint(
        model=model,
        model_name=manifest["model"],
        scheme_name=manifest.get("scheme"),
        dataset_meta=manifest.get("dataset", {}),
        created_unix=float(manifest.get("created_unix", 0.0)),
        path=directory,
        # v1 predates the facade block; an absent key migrates to empty.
        api_meta=manifest.get("api", {}),
        format_version=int(version),
    )


class ModelRegistry:
    """Numbered checkpoint directories under one root, newest wins.

    ``save`` allocates the next version (``v00001``, ``v00002``, ...);
    ``load`` resolves either a pinned version number or ``"latest"``.
    """

    def __init__(self, root: Path | str):
        self.root = Path(root)

    def versions(self) -> list[int]:
        """Existing version numbers, ascending."""
        if not self.root.is_dir():
            return []
        found = []
        for entry in self.root.iterdir():
            if entry.is_dir() and entry.name.startswith("v") and (entry / CHECKPOINT_NAME).exists():
                try:
                    found.append(int(entry.name[1:]))
                except ValueError:
                    continue
        return sorted(found)

    def latest_version(self) -> int:
        versions = self.versions()
        if not versions:
            raise FileNotFoundError(f"registry {self.root} holds no checkpoints")
        return versions[-1]

    def path_for(self, version: int) -> Path:
        return self.root / f"v{version:05d}"

    def save(
        self,
        model,
        *,
        scheme_name: str | None = None,
        dataset_meta: dict | None = None,
        api_meta: dict | None = None,
    ) -> int:
        """Checkpoint ``model`` as the next version and return its number."""
        versions = self.versions()
        version = (versions[-1] + 1) if versions else 1
        save_checkpoint(
            model,
            self.path_for(version),
            scheme_name=scheme_name,
            dataset_meta=dataset_meta,
            api_meta=api_meta,
        )
        return version

    def load(self, version: int | str = "latest") -> Checkpoint:
        """Load a pinned version number, or the newest with ``"latest"``."""
        if version == "latest":
            resolved = self.latest_version()
        else:
            resolved = int(version)
            if resolved not in self.versions():
                raise FileNotFoundError(
                    f"registry {self.root} has no version {resolved} "
                    f"(available: {self.versions() or 'none'})"
                )
        checkpoint = load_checkpoint(self.path_for(resolved))
        checkpoint.version = resolved
        return checkpoint
