"""Golden fits: the split search must reproduce recorded trees exactly.

The digests below were recorded with the earlier split search, which
looped over candidate features one argsort at a time.  Each one hashes
``export_text()``, the exact split thresholds, ``feature_importances_``
and ``predict_proba`` over seeded tree and forest fits, so any change to
which split wins, where its threshold lands or how importances
accumulate shows up as a different digest.
The datasets lean on integer-valued features so tied values and tied
impurities (the in-order ``< best - 1e-12`` rule) are exercised, and
they sweep both criteria and ``min_samples_leaf`` 1-3.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier


def _dataset(seed: int, n: int = 60, d: int = 6, n_classes: int = 3):
    rng = np.random.default_rng(seed)
    # Integer-valued columns with few levels: plenty of ties in both the
    # sorted feature values and the candidate impurities.
    x = rng.integers(0, 5, size=(n, d)).astype(np.float64)
    x[:, 0] += rng.normal(scale=0.5, size=n)  # one continuous column
    y = (x[:, 1] + x[:, 2] + rng.integers(0, 2, size=n)) % n_classes
    return x, y.astype(int)


def _digest(models, probe: np.ndarray) -> str:
    h = hashlib.sha256()
    for model in models:
        trees = model.trees_ if hasattr(model, "trees_") else [model]
        for tree in trees:
            h.update(tree.export_text().encode())
            # export_text rounds thresholds; pin them to the bit as well.
            flat = tree.flatten()
            h.update(flat.feature.tobytes() + flat.threshold.tobytes())
            h.update(tree.feature_importances_.tobytes())
        h.update(model.feature_importances_.tobytes())
        h.update(model.predict_proba(probe).tobytes())
    return h.hexdigest()


def _fits(criterion: str):
    models = []
    for seed in range(4):
        x, y = _dataset(seed)
        for leaf in (1, 2, 3):
            models.append(DecisionTreeClassifier(
                criterion=criterion, min_samples_leaf=leaf,
                max_features=None if seed % 2 else 3,
                random_state=seed,
            ).fit(x, y))
            models.append(RandomForestClassifier(
                n_estimators=5, criterion=criterion, max_depth=6,
                min_samples_leaf=leaf, random_state=seed,
            ).fit(x, y))
    return models


GOLDEN = {
    "gini": "c07af5dbc22cfad18fa47dd8a45dd1cd389da13d7417a89c862468845dc64cdf",
    "entropy": "7eac1c5e4814c0071689b0cebee88f1988411a2901d32ab39ae0a06319900fd7",
}


@pytest.mark.parametrize("criterion", sorted(GOLDEN))
def test_split_search_reproduces_recorded_fits(criterion):
    probe, _ = _dataset(99, n=40)
    assert _digest(_fits(criterion), probe) == GOLDEN[criterion]


# -- scheduler-shaped fits ---------------------------------------------------
#
# The online refits train the paper's forest (50 trees, entropy,
# max_depth=10) on 16-40 scheduler rows: seven structural model columns
# that are constant per model, a power-of-two batch column and the dGPU
# state.  These digests pin that shape, including a dataset whose top
# class is rare enough that some bootstraps miss it, so those trees take
# the padded-refit path on their own generator.

#: Structural columns of two zoo-like models (an FFNN and a CNN).
_MODEL_ROWS = np.array([
    [0.0, 3.0, 160.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 8.0, 9000.0, 2.0, 2.0, 3.0, 2.0],
])


def _scheduler_dataset(seed: int, n: int, n_models: int = 2,
                       rare_top: bool = False):
    rng = np.random.default_rng(seed)
    model = rng.integers(0, n_models, size=n)
    batch = 2.0 ** rng.integers(0, 18, size=n)
    warm = rng.integers(0, 2, size=n).astype(np.float64)
    x = np.column_stack([_MODEL_ROWS[model], batch, warm])
    # cpu for small batches, else a dGPU/iGPU pick with some label noise.
    y = np.where(batch < 64, 0, np.where(warm > 0, 1, 2))
    flip = rng.random(n) < 0.15
    y[flip] = rng.integers(0, 3, size=int(flip.sum()))
    if rare_top:
        y = np.minimum(y, 1)
        y[rng.integers(0, n)] = 2
    return x, y.astype(int)


_SCHEDULER_CASES = (
    # (seed, rows, models, min_samples_leaf)
    (0, 16, 1, 1), (1, 24, 2, 1), (2, 32, 2, 2),
    (3, 36, 1, 2), (4, 40, 2, 1), (5, 20, 2, 2),
)


def _scheduler_fits(rare_top: bool):
    models = []
    for seed, n, n_models, leaf in _SCHEDULER_CASES:
        x, y = _scheduler_dataset(seed, n, n_models, rare_top=rare_top)
        models.append(RandomForestClassifier(
            n_estimators=50, criterion="entropy", max_depth=10,
            min_samples_leaf=leaf, random_state=seed,
        ).fit(x, y))
    return models


SCHEDULER_GOLDEN = {
    "common": "63bc9bdb7be60b2cbca77dee6f45499402b783b2acaed4f309c35fd60d194476",
    "rare_top": "8a81eb66c8d49e581b93d2e485982ba4606c76d02faa4f0b3799e39b3309d246",
}


@pytest.mark.parametrize("case", sorted(SCHEDULER_GOLDEN))
def test_scheduler_shaped_forests_reproduce_recorded_fits(case):
    probe, _ = _scheduler_dataset(99, 40)
    models = _scheduler_fits(rare_top=case == "rare_top")
    assert _digest(models, probe) == SCHEDULER_GOLDEN[case]


def test_rare_top_class_takes_the_padded_refit_path():
    """Some bootstraps of the rare-top datasets miss the top class, so the
    digest above covers trees refit with the synthetic pad row."""
    from repro.rng import ensure_rng, spawn

    missed = 0
    for seed, n, n_models, _ in _SCHEDULER_CASES:
        _, y = _scheduler_dataset(seed, n, n_models, rare_top=True)
        assert np.count_nonzero(y == 2) == 1
        for child in spawn(ensure_rng(seed), 50):
            idx = child.integers(0, n, size=n)
            missed += int(y[idx].max() < 2)
    assert missed > 0
