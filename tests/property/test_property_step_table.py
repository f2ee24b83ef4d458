"""Property tests for the predictor's per-(model, state) step tables.

``DevicePredictor.cell_proba`` answers from a table of one probability
row per interval between the fitted model's ``batch`` thresholds.  The
claim is exactness, not approximation: for any fitted tree or forest,
any deployed model, either dGPU state and any positive batch, the table
returns the very bits the estimator computes for the cell's own feature
row, before and after a refit.  The probes hit every cut's floor and
ceiling, batch 1, and batches past the largest cut, where an off-by-one
interval choice would show.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import DecisionTreeClassifier
from repro.nn.zoo import MNIST_CNN, MNIST_SMALL, SIMPLE
from repro.sched.dataset import SchedulerDataset
from repro.sched.features import FEATURE_NAMES, encode_point
from repro.sched.policies import Policy
from repro.sched.predictor import DevicePredictor

SPECS = (SIMPLE, MNIST_SMALL, MNIST_CNN)
BATCH = FEATURE_NAMES.index("batch")


def _dataset(seed: int, n: int) -> SchedulerDataset:
    """Random 9-feature rows: deployed specs, lognormal batches, both
    dGPU states, with integer noise on the structural columns so trees
    also split on features other than batch."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        spec = SPECS[rng.integers(len(SPECS))]
        batch = int(rng.lognormal(5.0, 2.0)) + 1
        rows.append(encode_point(spec, batch, ("warm", "idle")[rng.integers(2)]))
    x = np.vstack(rows)
    x[:, :BATCH] += rng.integers(0, 2, size=(n, BATCH)) * (rng.random(n) < 0.2)[:, None]
    y = (np.log2(x[:, BATCH]) / 4 + rng.integers(0, 2, size=n)).astype(int) % 3
    y[:3] = (0, 1, 2)  # every class present, so probability rows are 3 wide
    return SchedulerDataset(policy=Policy.THROUGHPUT, x=x, y=y)


def _probe_batches(predictor: DevicePredictor, extra: list) -> list:
    flat = predictor.estimator.flatten()
    cuts = flat.threshold[flat.feature == BATCH]
    probes = {1, *extra}
    for cut in cuts:
        probes.update((math.floor(cut), math.ceil(cut), math.ceil(cut) + 1))
    if cuts.size:
        top = math.ceil(cuts.max())
        probes.update((top + 1, 2 * top + 7, 10 ** 9))
    return sorted(b for b in probes if b >= 1)


def _assert_exact(predictor: DevicePredictor, extra: list) -> None:
    for spec in SPECS:
        for state in ("warm", "idle"):
            for batch in _probe_batches(predictor, extra):
                got = predictor.cell_proba(spec, batch, state)
                row = encode_point(spec, batch, state)[None, :]
                want = predictor.estimator.predict_proba(row)[0]
                assert got.tobytes() == want.tobytes(), (spec.name, batch, state)


class TestStepTableExactness:
    @settings(deadline=None, max_examples=15)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(12, 60),
        forest=st.booleans(),
        criterion=st.sampled_from(["gini", "entropy"]),
        batches=st.lists(st.integers(1, 1 << 20), max_size=8),
    )
    def test_cell_proba_matches_the_cell_row_across_refits(
        self, seed, n, forest, criterion, batches
    ):
        if forest:
            estimator = RandomForestClassifier(
                n_estimators=7, criterion=criterion, max_depth=8,
                random_state=seed,
            )
        else:
            estimator = DecisionTreeClassifier(
                criterion=criterion, max_features="sqrt", random_state=seed
            )
        predictor = DevicePredictor(Policy.THROUGHPUT, estimator)
        predictor.fit(_dataset(seed, n))
        _assert_exact(predictor, batches)
        # A refit on different data must drop every table built above.
        predictor.fit(_dataset(seed + 1, n + 5))
        _assert_exact(predictor, batches)
