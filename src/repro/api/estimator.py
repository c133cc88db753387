"""The :class:`Estimator` facade: scikit-style fit/predict over any input.

One object wraps model construction, scheme selection, the in-memory MGD
loop, and the out-of-core engine behind ``fit(data)``:

* ``fit(X, y)`` on arrays trains in memory over compressed mini-batches
  (SciPy sparse input trains directly on the sparse batches through
  :mod:`repro.exec`);
* ``fit(X, y, shard_dir=...)`` shards to disk first and streams through the
  byte-budgeted buffer pool;
* ``fit(dataset)`` on a :class:`~repro.engine.shards.Dataset` (or a shard
  directory path) always takes the out-of-core path — the backend is chosen
  by what the caller hands over, never by a flag.

``save``/``load`` go through the checkpoint
:class:`~repro.serve.checkpoint.ModelRegistry`; the estimator's
hyper-parameters ride along in the format-v2 ``api`` block, so
:meth:`Estimator.load` rebuilds the whole facade object, not just the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.compression.registry import get_scheme
from repro.core.calibration import DEFAULT_WORKLOAD, check_workload
from repro.data.minibatch import iter_minibatch_slices
from repro.engine.encode import AUTO_SCHEME, resolve_scheme_name
from repro.engine.shards import Dataset
from repro.engine.trainer import OOCTrainReport, OutOfCoreTrainer
from repro.ml.models import (
    FeedForwardNetwork,
    LinearRegressionModel,
    LinearSVMModel,
    LogisticRegressionModel,
)
from repro.ml.multiclass import OVR_BASE_MODELS, OneVsRestModel
from repro.ml.optimizer import (
    GradientDescentConfig,
    MiniBatchGradientDescent,
    TrainingHistory,
)
from repro.serve.checkpoint import Checkpoint, ModelRegistry

#: Model spec strings accepted by ``Estimator(model=...)``, short and long.
MODEL_ALIASES = {
    "logreg": LogisticRegressionModel,
    "logistic_regression": LogisticRegressionModel,
    "svm": LinearSVMModel,
    "linreg": LinearRegressionModel,
    "linear_regression": LinearRegressionModel,
    "ffnn": FeedForwardNetwork,
    "neural_network": FeedForwardNetwork,
}

#: Prefix for one-vs-rest multi-class specs: ``"ovr:<binary classifier>"``.
OVR_PREFIX = "ovr:"


@dataclass
class FitReport:
    """What one ``fit``/``partial_fit`` call did, whichever backend ran."""

    backend: str  # "in-memory" or "out-of-core"
    history: TrainingHistory
    n_examples: int
    #: Engine-level report when the out-of-core path ran.
    ooc: OOCTrainReport | None = None
    #: The dataset trained over when the out-of-core path ran.
    dataset: Dataset | None = None

    @property
    def final_loss(self) -> float:
        return self.history.final_loss

    @property
    def epochs(self) -> int:
        return len(self.history.epoch_losses)


class Estimator:
    """Train, predict, and checkpoint any :mod:`repro.ml` model — one facade.

    Parameters
    ----------
    model:
        A spec string (``"logreg"``, ``"svm"``, ``"linreg"``, ``"ffnn"`` or
        their long names, or ``"ovr:<base>"`` for one-vs-rest multi-class
        over a binary classifier, e.g. ``"ovr:logreg"`` with ``n_classes``)
        or an already-built model instance.  Spec-built models are
        (re)created on ``fit`` once the feature width is known.
    scheme:
        Compression for training batches and on-disk shards: a registered
        scheme name, ``"auto"`` (default — the advisor picks per batch), or
        ``None`` to train on raw dense batches.
    workload:
        Op mix the ``"auto"`` advisor optimises for when encoding.  Defaults
        to ``"train"`` — fitting is matmat-heavy epochs, so batches are
        compressed with the scheme whose *measured* kernel costs make those
        epochs cheapest (see :mod:`repro.core.calibration`).
    batch_size / epochs / learning_rate / learning_rate_decay / seed:
        MGD hyper-parameters (the seed also drives shuffling and model init).
    l2:
        L2 penalty; ``None`` keeps each model's own default.
    hidden_sizes / n_classes:
        Feed-forward network shape (ignored by the linear models).
    budget_bytes / budget_ratio:
        Buffer-pool size, passed to the engine when the out-of-core path
        runs.
    workers:
        Encode fan-out when ``fit(X, y, shard_dir=...)`` shards arrays (see
        :meth:`Dataset.create`).
    """

    def __init__(
        self,
        model: str | object = "logreg",
        *,
        scheme: str | None = AUTO_SCHEME,
        workload: str = DEFAULT_WORKLOAD,
        batch_size: int = 250,
        epochs: int = 10,
        learning_rate: float = 0.1,
        learning_rate_decay: float = 1.0,
        seed: int | None = 0,
        l2: float | None = None,
        hidden_sizes: tuple[int, ...] = (200, 50),
        n_classes: int = 2,
        budget_bytes: int | None = None,
        budget_ratio: float = 0.5,
        workers: int | None = None,
    ):
        self._ovr_base: str | None = None
        if isinstance(model, str):
            if model.startswith(OVR_PREFIX):
                base = model[len(OVR_PREFIX):].strip()
                if base not in OVR_BASE_MODELS:
                    raise ValueError(
                        f"unknown one-vs-rest base {base!r}; "
                        f"known: {sorted(OVR_BASE_MODELS)} (spec: 'ovr:<base>')"
                    )
                self._model_cls = OneVsRestModel
                self._ovr_base = OVR_BASE_MODELS[base].name
            elif model in MODEL_ALIASES:
                self._model_cls = MODEL_ALIASES[model]
            else:
                raise ValueError(
                    f"unknown model {model!r}; known: {sorted(MODEL_ALIASES)} "
                    f"or 'ovr:<base>' for one-vs-rest multi-class"
                )
            self.model = None
            # Spec-built models belong to the estimator: fit() re-initialises
            # them.  Caller-supplied instances are trained in place.
            self._owns_model = True
        else:
            self._model_cls = type(model)
            self.model = model
            self._owns_model = False
            if isinstance(model, OneVsRestModel):
                self._ovr_base = model.base
        if scheme is not None and scheme != AUTO_SCHEME:
            try:
                get_scheme(scheme)
            except KeyError:
                raise ValueError(f"unknown compression scheme {scheme!r}") from None
        self.scheme = scheme
        self.workload = check_workload(workload)
        self.batch_size = batch_size
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.learning_rate_decay = learning_rate_decay
        self.seed = seed
        self.l2 = l2
        self.hidden_sizes = tuple(hidden_sizes)
        self.n_classes = n_classes
        self.budget_bytes = budget_bytes
        self.budget_ratio = budget_ratio
        self.workers = workers
        #: The checkpoint this estimator was loaded from, if any.
        self.checkpoint: Checkpoint | None = None
        self._last_fit: FitReport | None = None
        # Fail fast on bad config, exactly like the trainer would later.
        self._config()

    # -- configuration ---------------------------------------------------------

    def get_params(self) -> dict:
        """Constructor kwargs, JSON-ready (stored in the checkpoint ``api`` block)."""
        if self._model_cls is OneVsRestModel and self._ovr_base:
            model_spec = f"{OVR_PREFIX}{self._ovr_base}"
        else:
            model_spec = getattr(self._model_cls, "name", self._model_cls.__name__)
        return {
            "model": model_spec,
            "scheme": self.scheme,
            "workload": self.workload,
            "batch_size": self.batch_size,
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "learning_rate_decay": self.learning_rate_decay,
            "seed": self.seed,
            "l2": self.l2,
            "hidden_sizes": list(self.hidden_sizes),
            "n_classes": self.n_classes,
            "budget_bytes": self.budget_bytes,
            "budget_ratio": self.budget_ratio,
            "workers": self.workers,
        }

    def _config(self, epochs: int | None = None) -> GradientDescentConfig:
        return GradientDescentConfig(
            batch_size=self.batch_size,
            epochs=epochs if epochs is not None else self.epochs,
            learning_rate=self.learning_rate,
            learning_rate_decay=self.learning_rate_decay,
            shuffle_seed=self.seed,
        )

    def _build_model(self, n_features: int):
        kwargs: dict = {"seed": self.seed}
        if self.l2 is not None:
            kwargs["l2"] = self.l2
        if self._model_cls is FeedForwardNetwork:
            kwargs["hidden_sizes"] = self.hidden_sizes
            kwargs["n_classes"] = self.n_classes
        elif self._model_cls is OneVsRestModel:
            kwargs["base"] = self._ovr_base or "logistic_regression"
            kwargs["n_classes"] = self.n_classes
        return self._model_cls(n_features, **kwargs)

    def _ensure_model(self, n_features: int, reset: bool):
        """Return the model to train: rebuild spec-built models on ``fit``."""
        if self.model is None or (reset and self._owns_model):
            self.model = self._build_model(n_features)
        elif self.model.n_features != n_features:
            raise ValueError(
                f"model expects {self.model.n_features} features, data has {n_features}"
            )
        return self.model

    # -- fitting ---------------------------------------------------------------

    def fit(self, data, labels=None, *, shard_dir=None, eval_fn=None) -> FitReport:
        """Train from scratch; the input decides the backend.

        ``data`` may be a :class:`Dataset` / shard-directory path (labels
        live in the shards — pass no ``labels``), or a feature matrix
        (ndarray or SciPy sparse) with ``labels``.  Arrays train in memory
        unless ``shard_dir`` is given, which routes them through the
        out-of-core engine (shard, spill, stream).
        """
        return self._run(
            data, labels, shard_dir=shard_dir, eval_fn=eval_fn,
            config=self._config(), reset=True,
        )

    def partial_fit(self, data, labels=None, *, epochs: int = 1, eval_fn=None) -> FitReport:
        """Continue training the current model for ``epochs`` more epochs.

        The first call builds the model; later calls keep its parameters —
        this is the online/update path (new day of data, warm restarts).
        """
        return self._run(
            data, labels, shard_dir=None, eval_fn=eval_fn,
            config=self._config(epochs), reset=False,
        )

    def _run(self, data, labels, *, shard_dir, eval_fn, config, reset) -> FitReport:
        dataset = self._as_dataset(data)
        if dataset is not None:
            if labels is not None:
                raise ValueError("labels travel inside a Dataset; pass only the dataset")
            report = self._run_out_of_core(dataset, config, eval_fn, reset)
        elif shard_dir is not None:
            if labels is None:
                raise ValueError("array input needs labels (or pass a Dataset)")
            features = np.asarray(data, dtype=np.float64)
            dataset = Dataset.create(
                shard_dir,
                features,
                np.asarray(labels),
                scheme=self.scheme or "DEN",
                batch_size=config.batch_size,
                seed=config.shuffle_seed,
                workers=self.workers,
                workload=self.workload,
            )
            report = self._run_out_of_core(dataset, config, eval_fn, reset)
        else:
            report = self._run_in_memory(data, labels, config, eval_fn, reset)
        self._last_fit = report
        return report

    @staticmethod
    def _as_dataset(data) -> Dataset | None:
        """Coerce dataset-ish inputs; ``None`` means array-like."""
        if isinstance(data, Dataset):
            return data
        if isinstance(data, (str, Path)):
            if not Dataset.exists(data):
                raise FileNotFoundError(f"no shard manifest under {data}")
            return Dataset.open(data)
        return None

    def _run_out_of_core(self, dataset, config, eval_fn, reset) -> FitReport:
        trainer = OutOfCoreTrainer(
            config,
            budget_bytes=self.budget_bytes,
            budget_ratio=self.budget_ratio,
        )
        trainer.attach(dataset)
        model = self._ensure_model(dataset.n_cols, reset)
        ooc = trainer.train(model, eval_fn=eval_fn)
        return FitReport(
            backend="out-of-core",
            history=ooc.history,
            n_examples=dataset.n_examples,
            ooc=ooc,
            dataset=dataset,
        )

    def _run_in_memory(self, features, labels, config, eval_fn, reset) -> FitReport:
        if labels is None:
            raise ValueError("array input needs labels (or pass a Dataset)")
        targets = np.asarray(labels)
        if sp.issparse(features):
            matrix = features.tocsr()
            batches = [
                (matrix[idx], targets[idx])
                for idx in iter_minibatch_slices(
                    matrix.shape[0], config.batch_size, seed=config.shuffle_seed
                )
            ]
            n_rows, n_cols = matrix.shape
        else:
            dense = np.asarray(features, dtype=np.float64)
            batches = []
            for idx in iter_minibatch_slices(
                dense.shape[0], config.batch_size, seed=config.shuffle_seed
            ):
                batch = dense[idx]
                if self.scheme is not None:
                    # "auto" advises per batch, exactly as shard encoding
                    # does, from this process's calibration.
                    name = resolve_scheme_name(self.scheme, batch, workload=self.workload)
                    batch = get_scheme(name).compress(batch)
                batches.append((batch, targets[idx]))
            n_rows, n_cols = dense.shape
        model = self._ensure_model(n_cols, reset)
        history = MiniBatchGradientDescent(config).train(model, batches, eval_fn=eval_fn)
        return FitReport(backend="in-memory", history=history, n_examples=n_rows)

    # -- prediction ------------------------------------------------------------

    def _require_model(self):
        if self.model is None:
            raise RuntimeError("fit the estimator (or load a checkpoint) first")
        return self.model

    def predict(self, data) -> np.ndarray:
        """Predict for arrays, SciPy sparse matrices, or whole ``Dataset``\\ s.

        Dataset shards are decoded to their compressed form and the model
        runs directly on it — prediction never densifies a shard.
        """
        model = self._require_model()
        dataset = self._as_dataset(data)
        if dataset is not None:
            return np.concatenate([model.predict(m) for m, _ in dataset.batches()])
        return np.asarray(model.predict(data))

    def predict_proba(self, data) -> np.ndarray:
        model = self._require_model()
        if not hasattr(model, "predict_proba"):
            raise AttributeError(f"{type(model).__name__} has no predict_proba")
        dataset = self._as_dataset(data)
        if dataset is not None:
            return np.concatenate([model.predict_proba(m) for m, _ in dataset.batches()])
        return np.asarray(model.predict_proba(data))

    # -- persistence -----------------------------------------------------------

    def save(self, registry_root: Path | str) -> tuple[int, Path]:
        """Publish the fitted model as the next registry version.

        The checkpoint (format v2) carries the estimator's hyper-parameters
        and the last fit's provenance in its ``api`` block, plus the shard
        directory when the out-of-core path trained it — which is what lets
        ``python -m repro serve`` find the features again.
        """
        model = self._require_model()
        registry = ModelRegistry(registry_root)
        dataset_meta: dict = {}
        fit_meta: dict = {}
        scheme_name = self.scheme
        last = self._last_fit
        if last is not None:
            fit_meta = {
                "backend": last.backend,
                "n_examples": last.n_examples,
                "epochs": last.epochs,
                "final_loss": last.final_loss,
            }
            if last.dataset is not None:
                stats = last.dataset.stats()
                scheme_name = stats.scheme
                dataset_meta = {
                    "shard_dir": str(last.dataset.path.resolve()),
                    "n_examples": stats.n_examples,
                    "n_shards": stats.n_shards,
                    "scheme": stats.scheme,
                    "requested_scheme": stats.requested_scheme,
                    "scheme_counts": stats.scheme_counts,
                }
        version = registry.save(
            model,
            scheme_name=scheme_name,
            dataset_meta=dataset_meta,
            api_meta={"estimator": self.get_params(), "fit": fit_meta},
        )
        return version, registry.path_for(version)

    @classmethod
    def load(cls, registry_root: Path | str, version: int | str = "latest") -> "Estimator":
        """Rebuild an estimator (model + facade config) from the registry.

        Format-v2 checkpoints restore the saved hyper-parameters; v1
        checkpoints predate the ``api`` block and load with defaults.  The
        resolved :class:`Checkpoint` stays on ``estimator.checkpoint``.

        The loaded estimator keeps the facade contract: :meth:`partial_fit`
        continues from the checkpointed weights, while :meth:`fit` trains
        from scratch (the model is re-initialised, not warm-started).
        """
        checkpoint = ModelRegistry(registry_root).load(version)
        params = dict(checkpoint.api_meta.get("estimator", {}))
        params.pop("model", None)
        # Checkpoints saved while the inert read-ahead knob, the encode
        # executor knob or the simulated disk bandwidth existed record them;
        # those saved while a null workload meant "rank by ratio" record
        # that, and now get the default.
        params.pop("prefetch_depth", None)
        params.pop("executor", None)
        params.pop("disk_bandwidth_bytes_per_sec", None)
        if params.get("workload") is None:
            params.pop("workload", None)
        if "hidden_sizes" in params:
            params["hidden_sizes"] = tuple(params["hidden_sizes"])
        if isinstance(checkpoint.model, FeedForwardNetwork):
            # v1 checkpoints carry no api block: recover the network shape
            # from the model itself so a later fit() rebuilds it correctly.
            params.setdefault(
                "hidden_sizes",
                tuple(int(w.shape[1]) for w in checkpoint.model.weights[:-1]),
            )
            params.setdefault("n_classes", checkpoint.model.n_classes)
        estimator = cls(model=checkpoint.model, **params)
        estimator.checkpoint = checkpoint
        # fit() must mean "from scratch" even after load(); only partial_fit
        # continues from the checkpointed parameters.
        estimator._owns_model = True
        return estimator
