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
