"""Property-based tests for the classical-ML substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.metrics import accuracy_score, confusion_matrix, f1_score
from repro.ml.model_selection import StratifiedKFold
from repro.ml.preprocessing import LabelEncoder, StandardScaler
from repro.ml.tree import DecisionTreeClassifier

labels = st.lists(st.integers(0, 3), min_size=4, max_size=60)


class TestMetricsProperties:
    @given(y=labels)
    def test_accuracy_self_is_one(self, y):
        assert accuracy_score(y, y) == 1.0

    @given(y=labels)
    def test_f1_self_is_one(self, y):
        assert f1_score(y, y) == 1.0

    @given(yt=labels, seed=st.integers(0, 100))
    def test_accuracy_equals_confusion_trace(self, yt, seed):
        rng = np.random.default_rng(seed)
        yp = rng.integers(0, 4, size=len(yt))
        cm = confusion_matrix(np.asarray(yt), yp)
        assert accuracy_score(yt, yp) == np.trace(cm) / len(yt)

    @given(yt=labels, seed=st.integers(0, 100))
    def test_scores_bounded(self, yt, seed):
        yp = np.random.default_rng(seed).integers(0, 4, size=len(yt))
        assert 0.0 <= f1_score(yt, yp) <= 1.0


class TestScalerProperties:
    @settings(deadline=None)
    @given(
        x=arrays(
            np.float64, (20, 3),
            elements=st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
        )
    )
    def test_roundtrip(self, x):
        sc = StandardScaler().fit(x)
        np.testing.assert_allclose(
            sc.inverse_transform(sc.transform(x)), x, rtol=1e-6, atol=1e-6
        )

    @settings(deadline=None)
    @given(
        x=arrays(
            np.float64, (30, 2),
            elements=st.floats(-100, 100, allow_nan=False, allow_infinity=False),
        )
    )
    def test_transform_idempotent_statistics(self, x):
        z = StandardScaler().fit_transform(x)
        z2 = StandardScaler().fit_transform(z)
        np.testing.assert_allclose(z, z2, atol=1e-9)


class TestEncoderProperties:
    @given(
        y=st.lists(
            st.sampled_from(["cpu", "igpu", "dgpu", "fpga", "npu"]),
            min_size=1, max_size=40,
        )
    )
    def test_roundtrip(self, y):
        enc = LabelEncoder().fit(y)
        np.testing.assert_array_equal(
            enc.inverse_transform(enc.transform(y)), np.asarray(y)
        )

    @given(
        y=st.lists(st.integers(-5, 5), min_size=1, max_size=30)
    )
    def test_codes_contiguous(self, y):
        codes = LabelEncoder().fit_transform(y)
        assert codes.min() >= 0
        assert codes.max() == len(set(y)) - 1


class TestStratifiedFoldProperties:
    @settings(deadline=None, max_examples=25)
    @given(
        n_per_class=st.integers(4, 20),
        n_splits=st.integers(2, 4),
        seed=st.integers(0, 50),
    )
    def test_partition_and_stratification(self, n_per_class, n_splits, seed):
        y = np.repeat([0, 1, 2], n_per_class)
        x = np.zeros((len(y), 1))
        cv = StratifiedKFold(n_splits, random_state=seed)
        all_test = []
        for train, test in cv.split(x, y):
            all_test.extend(test.tolist())
            # per-fold class counts within 1 of the ideal share
            counts = np.bincount(y[test], minlength=3)
            ideal = n_per_class / n_splits
            assert all(abs(c - ideal) <= 1 for c in counts)
        assert sorted(all_test) == list(range(len(y)))


class TestTreeProperties:
    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(0, 200),
        depth=st.integers(1, 8),
    )
    def test_depth_never_exceeds_cap(self, seed, depth):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((50, 3))
        y = rng.integers(0, 3, 50)
        tree = DecisionTreeClassifier(max_depth=depth).fit(x, y)
        assert tree.depth_ <= depth

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 200))
    def test_prediction_invariant_to_feature_scaling(self, seed):
        """Trees are scale-invariant — the property that makes the RF
        scheduler immune to the paper's raw feature encoding."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] + x[:, 1] > 0).astype(int)
        scales = np.array([1e-3, 1.0, 1e5])
        a = DecisionTreeClassifier(max_depth=4).fit(x, y).predict(x)
        b = DecisionTreeClassifier(max_depth=4).fit(x * scales, y).predict(x * scales)
        np.testing.assert_array_equal(a, b)


def _tree_signature(tree):
    """Everything that defines a fitted tree, to the bit."""
    flat = tree.flatten()
    return (tree.n_classes_, tree.export_text(), flat.feature.tobytes(),
            flat.threshold.tobytes(), flat.proba.tobytes(),
            tree._importance_raw.tobytes())


class TestLockstepForestProperties:
    """A forest grows all its trees in one lockstep pass (one batched split
    search per step, nodes padded to the step's largest).  Each tree must
    be exactly the tree a batch of one grows from the same spawned
    generator and bootstrap, so padding and per-node masks cannot leak
    between trees."""

    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 48),
        n_classes=st.integers(2, 4),
        levels=st.integers(2, 6),
        criterion=st.sampled_from(["gini", "entropy"]),
        max_depth=st.sampled_from([None, 1, 3, 10]),
        min_samples_leaf=st.integers(1, 3),
        max_features=st.sampled_from(["sqrt", None, 2]),
        bootstrap=st.booleans(),
    )
    def test_every_tree_matches_its_solo_fit(
        self, seed, n, n_classes, levels, criterion, max_depth,
        min_samples_leaf, max_features, bootstrap,
    ):
        from repro.ml.forest import RandomForestClassifier
        from repro.rng import ensure_rng, spawn

        rng = np.random.default_rng(seed)
        # Few levels per column: ties, constant columns and duplicate rows.
        x = rng.integers(0, levels, size=(n, 5)).astype(np.float64)
        x[:, 1] = 2.0
        y = rng.integers(0, n_classes, size=n)
        params = dict(criterion=criterion, max_depth=max_depth,
                      min_samples_leaf=min_samples_leaf,
                      max_features=max_features)
        forest = RandomForestClassifier(
            n_estimators=12, bootstrap=bootstrap, random_state=seed, **params
        ).fit(x, y)
        top = int(y.max())
        for tree, child in zip(forest.trees_, spawn(ensure_rng(seed), 12)):
            idx = child.integers(0, n, size=n) if bootstrap else np.arange(n)
            solo = DecisionTreeClassifier(random_state=child, **params)
            solo.fit(x[idx], y[idx])
            if solo.n_classes_ != top + 1:  # the padded refit, same generator
                solo.fit(np.vstack([x[idx], x[idx][:1]]), np.append(y[idx], top))
            assert _tree_signature(tree) == _tree_signature(solo)
