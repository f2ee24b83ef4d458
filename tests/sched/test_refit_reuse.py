"""Refit reuse: a fit on unchanged rows keeps the forest it would rebuild.

``DevicePredictor.fit`` skips training when the rows are bit-equal to the
last fit's and the estimator is int-seeded (a seeded forest refit on the
same rows is the same forest).  The generation still bumps, so decision
caches clear exactly as after a real refit.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.nn.zoo import MNIST_SMALL, SIMPLE
from repro.sched.features import FEATURE_NAMES
from repro.sched.online import OnlineConfig, OnlinePredictor
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor

SPECS = {SIMPLE.name: SIMPLE, MNIST_SMALL.name: MNIST_SMALL}
_BATCH = FEATURE_NAMES.index("batch")


def probe(predictor) -> np.ndarray:
    """``cell_proba`` over both models, a batch sweep and both dGPU states."""
    return np.array([
        predictor.cell_proba(spec, batch, state)
        for spec in SPECS.values()
        for batch in (1, 7, 64, 500, 1024, 20000, 262144, 10**6)
        for state in ("warm", "idle")
    ])


def copied(dataset, **changes):
    """The dataset with fresh (bit-equal unless changed) x and y arrays."""
    fresh = {"x": dataset.x.copy(), "y": dataset.y.copy(), **changes}
    return replace(dataset, **fresh)


class TestDevicePredictorReuse:
    def test_bit_equal_rows_keep_the_estimator(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        estimator, before = predictor.estimator, probe(predictor)
        generation = predictor.fit_generation

        predictor.fit(copied(online_dataset))
        assert predictor.estimator is estimator
        assert predictor.fit_generation == generation + 1
        assert np.array_equal(probe(predictor), before)
        # ... and that is exactly what a from-scratch fit produces.
        fresh = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        assert np.array_equal(probe(fresh), before)

    def test_one_changed_label_refits(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        estimator = predictor.estimator
        y = online_dataset.y.copy()
        y[0] = (y[0] + 1) % 3
        predictor.fit(copied(online_dataset, y=y))
        assert predictor.estimator is not estimator
        fresh = DevicePredictor(Policy.THROUGHPUT).fit(copied(online_dataset, y=y))
        assert np.array_equal(probe(predictor), probe(fresh))

    def test_one_changed_row_refits(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        estimator = predictor.estimator
        x = online_dataset.x.copy()
        x[-1, _BATCH] = np.nextafter(x[-1, _BATCH], np.inf)
        predictor.fit(copied(online_dataset, x=x))
        assert predictor.estimator is not estimator

    def test_appended_row_refits(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        estimator = predictor.estimator
        grown = copied(online_dataset).merge(copied(online_dataset))
        predictor.fit(grown)
        assert predictor.estimator is not estimator

    @pytest.mark.parametrize("seed", [None, "generator"])
    def test_unseeded_or_generator_estimators_always_refit(self, online_dataset, seed):
        random_state = np.random.default_rng(3) if seed == "generator" else None
        predictor = DevicePredictor(Policy.THROUGHPUT, RandomForestClassifier(
            n_estimators=5, random_state=random_state,
        )).fit(online_dataset)
        estimator = predictor.estimator
        predictor.fit(copied(online_dataset))
        assert predictor.estimator is not estimator
        assert predictor.fit_generation == 2

    def test_changed_params_refit(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        predictor.estimator.set_params(max_depth=2)
        estimator = predictor.estimator
        predictor.fit(online_dataset)
        assert predictor.estimator is not estimator
        assert max(tree.depth_ for tree in predictor.estimator.trees_) <= 2

    def test_replaced_estimator_refits(self, online_dataset):
        predictor = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        predictor.estimator = RandomForestClassifier(n_estimators=3, random_state=7)
        predictor.fit(online_dataset)
        assert len(predictor.estimator.trees_) == 3


class TestOnlineRefitCounting:
    def test_n_refits_counts_kept_and_real_fits(self, online_dataset):
        """Two refit intervals over the same two-device cell produce the
        same live rows: the second refit keeps the forest, but still
        counts as a refit and bumps the generation."""
        config = OnlineConfig(refit_interval=8)
        base = DevicePredictor(Policy.THROUGHPUT).fit(online_dataset)
        online = OnlinePredictor(base, SPECS, online_dataset, config)
        offline = base.estimator
        generation = online.fit_generation
        forests = []
        for i in range(2 * config.refit_interval):
            device, service = ("dgpu", 0.005) if i % 2 else ("cpu", 0.02)
            events = online.observe("simple", 64, "warm", device, service,
                                    predicted_s=service, now=i * 0.01)
            if events.refit:
                forests.append(online.estimator)
        assert online.n_refits == 2
        assert online.fit_generation == generation + 2
        assert forests[0] is not offline
        assert forests[1] is forests[0]
