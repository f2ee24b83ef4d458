"""Device predictors: a classifier over the §V-B features, per policy.

:class:`DevicePredictor` adapts any :mod:`repro.ml` estimator to the
scheduling problem: it trains on a :class:`~repro.sched.dataset.SchedulerDataset`
and answers "which device?" for a (model spec, batch, dGPU state) triple.
The default estimator is the paper's pick — a random forest (§V-A) — with
the Table I-winning hyperparameters.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.errors import SchedulerError
from repro.ml.base import BaseEstimator, clone
from repro.ml.forest import RandomForestClassifier
from repro.nn.builders import ModelSpec
from repro.sched.dataset import DEVICE_CLASSES, SchedulerDataset
from repro.sched.features import FEATURE_NAMES, encode_point
from repro.sched.policies import Policy

__all__ = ["DevicePredictor", "default_estimator"]

_BATCH = FEATURE_NAMES.index("batch")


def default_estimator(random_state: int = 7) -> BaseEstimator:
    """The paper's production configuration: a tuned random forest."""
    return RandomForestClassifier(
        n_estimators=50,
        criterion="entropy",
        max_depth=10,
        min_samples_leaf=1,
        random_state=random_state,
    )


class DevicePredictor:
    """A trained device-selection model for one policy."""

    def __init__(self, policy: "Policy | str", estimator: BaseEstimator | None = None):
        self.policy = Policy.parse(policy)
        self.estimator = estimator if estimator is not None else default_estimator()
        self._fitted = False
        # (model, gpu_state) -> (batch cuts, per-interval probabilities).
        self._tables: "dict[tuple[str, str], tuple[list, list]]" = {}
        #: Bumped on every (re)fit; decision caches key their validity on it.
        self.fit_generation = 0
        # (estimator, its params, x, y) of the last real fit.
        self._last_fit: "tuple | None" = None

    def fit(self, dataset: SchedulerDataset) -> "DevicePredictor":
        """Train on a labelled sweep; the dataset's policy must match.

        A refit on rows bit-equal to the last fit's, with the same
        int-seeded estimator, would rebuild the estimator it already holds,
        so that estimator and its step tables are kept.  The generation
        still bumps: every fit invalidates the decision caches the same
        way whether or not it had to train.
        """
        if dataset.policy is not self.policy:
            raise SchedulerError(
                f"dataset labelled for policy {dataset.policy}, "
                f"predictor is for {self.policy}"
            )
        if not self._repeats_last_fit(dataset.x, dataset.y):
            self.estimator = clone(self.estimator)
            self.estimator.fit(dataset.x, dataset.y)
            self._tables.clear()
            self._last_fit = (self.estimator, self.estimator.get_params(),
                              np.array(dataset.x), np.array(dataset.y))
        self._fitted = True
        self.fit_generation += 1
        return self

    def _repeats_last_fit(self, x: np.ndarray, y: np.ndarray) -> bool:
        """Whether fitting ``(x, y)`` now would reproduce the held estimator."""
        if self._last_fit is None:
            return False
        estimator, params, last_x, last_y = self._last_fit
        seed = params.get("random_state")
        return (
            estimator is self.estimator
            and isinstance(seed, (int, np.integer))
            and estimator.get_params() == params
            and all(
                a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes()
                for a, b in ((np.asarray(x), last_x), (np.asarray(y), last_y))
            )
        )

    def cell_proba(
        self, spec: ModelSpec, batch: int, gpu_state: str
    ) -> "np.ndarray | None":
        """Class probabilities for one (model, batch, dGPU-state) cell.

        For a fixed (model, dGPU state) every feature but ``batch`` is
        constant, so a tree model's output is a step function of batch
        that only changes at the model's own ``batch`` thresholds.  The
        first query per (model, state) after a fit evaluates one row per
        interval between those cuts in a single batched call; every later
        query is a binary search over the cuts.  Trees send a sample left
        iff ``x <= threshold``, so interval ``i`` is ``(cuts[i-1],
        cuts[i]]`` and ``cuts[i]`` itself represents it: the answer is
        bit-identical to evaluating the cell's own row.  Estimators without
        ``flatten()`` evaluate that row directly.  Returns None when the
        estimator exposes no ``predict_proba``.
        """
        self._require_fitted()
        if not hasattr(self.estimator, "predict_proba"):
            return None
        if not hasattr(self.estimator, "flatten"):
            features = encode_point(spec, batch, gpu_state)[None, :]
            return self.estimator.predict_proba(features)[0]
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        key = (spec.name, gpu_state)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._step_table(spec, gpu_state)
        cuts, probas = table
        return probas[bisect_left(cuts, float(batch))]

    def _step_table(self, spec: ModelSpec, gpu_state: str):
        """Sorted unique ``batch`` cuts (a list, for ``bisect``) and one
        probability row per interval, the last one past the top cut."""
        flat = self.estimator.flatten()
        cuts = np.unique(flat.threshold[flat.feature == _BATCH])
        last = np.nextafter(cuts[-1], np.inf) if cuts.size else 1.0
        rows = np.repeat(encode_point(spec, 1, gpu_state)[None, :],
                         cuts.size + 1, axis=0)
        rows[:, _BATCH] = np.append(cuts, last)
        return cuts.tolist(), list(self.estimator.predict_proba(rows))

    def predict_index(self, spec: ModelSpec, batch: int, gpu_state: str) -> int:
        """Class index (0=CPU, 1=dGPU, 2=iGPU) for one decision."""
        proba = self.cell_proba(spec, batch, gpu_state)
        if proba is not None:
            return int(np.argmax(proba))
        features = encode_point(spec, batch, gpu_state)[None, :]
        return int(self.estimator.predict(features)[0])

    def predict_device(self, spec: ModelSpec, batch: int, gpu_state: str) -> str:
        """Device-class value ('cpu' / 'dgpu' / 'igpu') for one decision."""
        return DEVICE_CLASSES[self.predict_index(spec, batch, gpu_state)]

    def predict_batch(self, x: np.ndarray) -> np.ndarray:
        """Vectorized prediction over a prepared feature matrix."""
        self._require_fitted()
        return self.estimator.predict(np.asarray(x, dtype=np.float64))

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise SchedulerError("DevicePredictor used before fit()")
