"""CART decision-tree classifier (Table II's second-best predictor).

Standard greedy axis-aligned splitting with gini or entropy impurity
(Table I's ``criterion`` hyperparameter), ``max_depth`` and
``min_samples_leaf`` controls, and ``max_features`` random feature
subsampling (used by the random forest).

Trees grow depth-first in lockstep (:func:`fit_trees`): a forest's trees
each contribute their next node to one batched split search per step —
one argsort over every node's candidate features, class-count prefix
sums, and an impurity evaluation over every valid (feature, threshold)
candidate at once.  A single tree is the one-tree case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import BaseEstimator, check_fitted, check_xy
from repro.rng import ensure_rng

__all__ = ["DecisionTreeClassifier", "fit_trees"]


@dataclass
class _Node:
    """One tree node; leaves carry a class distribution."""

    proba: np.ndarray            # class distribution at this node
    feature: int = -1            # split feature (-1 = leaf)
    threshold: float = 0.0       # go left iff x[feature] <= threshold
    left: "._Node | None" = None
    right: "._Node | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node has no split."""
        return self.feature < 0


def _impurity(counts: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of class-count rows; ``counts`` is (..., n_classes)."""
    totals = counts.sum(axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        p = np.where(totals > 0, counts / totals, 0.0)
    if criterion == "gini":
        return 1.0 - np.sum(p * p, axis=-1)
    if criterion == "entropy":
        logs = np.zeros_like(p)
        np.log2(p, where=p > 0, out=logs)
        return -np.sum(p * logs, axis=-1)
    raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")


class DecisionTreeClassifier(BaseEstimator):
    """Greedy CART classifier.

    Parameters mirror Table I: ``criterion`` ('gini'/'entropy'),
    ``max_depth`` and ``min_samples_leaf``.  ``max_features`` ('sqrt', an
    int, or None for all) enables the forest's feature subsampling;
    ``random_state`` seeds it.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: "int | str | None" = None,
        random_state: "int | np.random.Generator | None" = None,
    ):
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be 'gini' or 'entropy', got {criterion!r}")
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_leaf < 1:
            raise ValueError(f"min_samples_leaf must be >= 1, got {min_samples_leaf}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.random_state = random_state
        self.root_: _Node | None = None
        self.n_classes_: int = 0
        self.n_features_: int = 0
        self._importance_raw: np.ndarray | None = None
        self._n_fit_samples: int = 0
        self._flat = None  # lazily built FlatTree, invalidated by fit()

    # -- fitting ---------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "DecisionTreeClassifier":
        x, y = check_xy(x, y)
        fit_trees([self], [x], [y.astype(np.int64)])
        return self

    def _n_candidate_features(self) -> int:
        if self.max_features is None:
            return self.n_features_
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(self.n_features_)))
        k = int(self.max_features)
        if not (1 <= k <= self.n_features_):
            raise ValueError(
                f"max_features must be in [1, {self.n_features_}], got {k}"
            )
        return k

    # -- inference ---------------------------------------------------------

    def _check_x(self, x: np.ndarray) -> np.ndarray:
        check_fitted(self, "root_")
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise ValueError(
                f"expected (n, {self.n_features_}) input, got shape {x.shape}"
            )
        return x

    def flatten(self):
        """The fitted tree as a :class:`~repro.ml.flatten.FlatTree`
        (built once per fit, cached)."""
        check_fitted(self, "root_")
        if self._flat is None:
            from repro.ml.flatten import FlatTree

            self._flat = FlatTree.from_tree(self)
        return self._flat

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Batched class distributions via the flat-array fast path.

        Bit-identical to :meth:`predict_proba_recursive` (asserted by
        ``tests/property``): the same comparisons route every sample to
        the same leaf, whose stored distribution is copied out.
        """
        return self.flatten().predict_proba(self._check_x(x))

    def predict_proba_recursive(self, x: np.ndarray) -> np.ndarray:
        """Reference path: walk the Python ``_Node`` graph.

        Kept for equivalence testing against the flat path — one
        interpreter iteration per node makes it the slow baseline the
        wall-clock harness measures against.
        """
        x = self._check_x(x)
        out = np.empty((x.shape[0], self.n_classes_))
        # Iterative routing: partition index sets level by level (no Python
        # loop over individual samples).
        stack = [(self.root_, np.arange(x.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.proba
                continue
            mask = x[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
        return out

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(x), axis=1)

    # -- introspection ---------------------------------------------------------

    def export_text(self, feature_names: "list[str] | None" = None,
                    class_names: "list[str] | None" = None) -> str:
        """Human-readable tree dump (the interpretability the paper trades
        away when it picks the forest over the single tree).

        One line per node: ``feature <= threshold`` for splits, the class
        distribution for leaves.
        """
        check_fitted(self, "root_")
        if feature_names is None:
            feature_names = [f"x[{i}]" for i in range(self.n_features_)]
        if len(feature_names) < self.n_features_:
            raise ValueError(
                f"need >= {self.n_features_} feature names, got {len(feature_names)}"
            )
        if class_names is None:
            class_names = [str(i) for i in range(self.n_classes_)]

        lines: list[str] = []

        def walk(node: _Node, depth: int) -> None:
            pad = "|   " * depth
            if node.is_leaf:
                winner = class_names[int(np.argmax(node.proba))]
                dist = ", ".join(f"{p:.2f}" for p in node.proba)
                lines.append(f"{pad}|-- class: {winner}  [{dist}]")
                return
            name = feature_names[node.feature]
            lines.append(f"{pad}|-- {name} <= {node.threshold:g}")
            walk(node.left, depth + 1)
            lines.append(f"{pad}|-- {name} >  {node.threshold:g}")
            walk(node.right, depth + 1)

        walk(self.root_, 0)
        return "\n".join(lines)

    @property
    def feature_importances_(self) -> np.ndarray:
        """Mean decrease in impurity per feature, normalized to sum to 1.

        The paper's §V-B claim — "the most important parameters is the
        samples size and the state of the GPU" — is checkable directly
        from these on the scheduler dataset.
        """
        check_fitted(self, "root_")
        total = self._importance_raw.sum()
        if total <= 0.0:
            return np.zeros_like(self._importance_raw)
        return self._importance_raw / total

    @property
    def depth_(self) -> int:
        """Realized depth of the fitted tree."""
        check_fitted(self, "root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self.root_)

    @property
    def n_leaves_(self) -> int:
        """Leaf count of the fitted tree."""
        check_fitted(self, "root_")

        def walk(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return walk(node.left) + walk(node.right)

        return walk(self.root_)


#: Node-rows one batched split search may hold (nodes x largest node).  A
#: step whose popped nodes need more is searched in size-sorted chunks, so
#: a forest over a large dataset never materialises every root at once.
_SEARCH_ROWS = 1 << 14


def fit_trees(trees: "list[DecisionTreeClassifier]", xs, ys) -> None:
    """Fit ``trees[t]`` on ``(xs[t], ys[t])`` for every ``t``, in lockstep.

    ``xs[t]`` is a float64 (n, d) matrix and ``ys[t]`` int64 labels.  Trees
    that share their hyperparameters, feature count and class count grow
    together: each step pops the next depth-first node of every unfinished
    tree and searches all of them in one batched pass (see
    :class:`_Lockstep`).  Each tree draws its feature subsets from its own
    generator in its own preorder, so every tree is bit-identical to the
    one it would grow alone; :meth:`DecisionTreeClassifier.fit` is the
    one-tree case.
    """
    groups: "dict[tuple, list]" = {}
    for tree, x, y in zip(trees, xs, ys):
        if y.min() < 0:
            raise ValueError("labels must be non-negative integers")
        tree.n_classes_ = int(y.max()) + 1
        tree.n_features_ = x.shape[1]
        tree._n_fit_samples = y.size
        tree._flat = None
        key = (tree.n_classes_, tree.n_features_, tree._n_candidate_features(),
               tree.criterion, tree.max_depth, tree.min_samples_leaf)
        groups.setdefault(key, []).append((tree, x, y))
    for members in groups.values():
        _Lockstep(members).grow()


class _Lockstep:
    """Depth-first growth of several same-shaped trees, one node each per step.

    Every tree keeps an explicit stack (right child pushed before left, so
    nodes pop in preorder).  All trees' rows live in one arena with a
    trailing pad row; a node is a vector of arena row indices.  Each step
    pops, per unfinished tree, nodes until one needs a split search (the
    rest become leaves), draws that node's candidate features from the
    tree's generator, and :meth:`_search` evaluates every popped node at
    once.  Shorter nodes are padded to the step's largest with the pad
    row: a NaN feature value, which sorts after every real value, and a
    zero one-hot column, which adds nothing to any class count.  Padded
    positions fail the per-node ``min_samples_leaf`` test, so no split can
    land on them.
    """

    def __init__(self, members):
        lead = members[0][0]
        self.trees = [tree for tree, _, _ in members]
        self.n_classes = lead.n_classes_
        self.n_features = lead.n_features_
        self.k = lead._n_candidate_features()
        self.criterion = lead.criterion
        self.max_depth = np.inf if lead.max_depth is None else lead.max_depth
        self.min_leaf = lead.min_samples_leaf
        self.rngs = [ensure_rng(tree.random_state) for tree in self.trees]
        # Per-tree mean-decrease-in-impurity sums, accumulated in preorder.
        self.importance = [[0.0] * self.n_features for _ in self.trees]
        labels = np.concatenate([y for _, _, y in members])
        self.x = np.vstack([x for _, x, _ in members]
                           + [np.full((1, self.n_features), np.nan)])
        # (C, rows + 1): class c's indicator per arena row, pad column zero.
        self.onehot = np.zeros((self.n_classes, labels.size + 1))
        self.onehot[labels, np.arange(labels.size)] = 1.0
        self.pad = labels.size
        # Ties may sort in any order: a valid split sits where the value
        # changes, so its prefix is the same row set either way.  Only real
        # NaNs must stay ahead of the pad rows, which needs a stable sort.
        self.sort_kind = "stable" if np.isnan(self.x[:-1]).any() else None
        self.stacks = []
        start = 0
        for tree, (_, _, y) in zip(self.trees, members):
            counts = np.bincount(y, minlength=self.n_classes).astype(np.float64)
            tree.root_ = _Node(proba=counts / counts.sum())
            splittable = y.size >= 2 * self.min_leaf and counts.max() != counts.sum()
            rows = np.arange(start, start + y.size)
            self.stacks.append([(tree.root_, rows, 0, splittable)])
            start += y.size

    def grow(self) -> None:
        live = range(len(self.trees))
        every = np.arange(self.n_features)
        while live:
            popped, still = [], []
            for t in live:
                stack = self.stacks[t]
                while stack:
                    node, rows, depth, splittable = stack.pop()
                    if splittable:
                        if self.k < self.n_features:
                            features = self.rngs[t].choice(
                                self.n_features, size=self.k, replace=False
                            )
                        else:
                            features = every
                        popped.append((t, node, rows, depth, features))
                        still.append(t)
                        break
            live = still
            popped.sort(key=lambda item: -item[2].size)
            while popped:
                width = max(1, _SEARCH_ROWS // popped[0][2].size)
                self._search(popped[:width])
                popped = popped[width:]
        for tree, importance in zip(self.trees, self.importance):
            tree._importance_raw = np.array(importance)

    def _search(self, popped) -> None:
        """Best split of every popped node at once, then push its children.

        Per node this is the single-node CART search: one argsort of each
        candidate column, class-count prefix sums, the size-weighted
        child impurity of every valid (feature, row) candidate, the first
        minimum per feature, and the features compared in candidate order
        (a later one wins only by more than 1e-12).
        """
        n_nodes = len(popped)
        sizes = [item[2].size for item in popped]
        width = sizes[0]
        idx = np.full((n_nodes, width), self.pad, dtype=np.intp)
        for b, item in enumerate(popped):
            idx[b, : sizes[b]] = item[2]
        features = np.array([item[4] for item in popped])[:, :, None]
        # (B, k, N): every node's candidate columns sorted along the last
        # axis, as arena rows and as values.
        xf = self.x[idx[:, None, :], features]
        order = np.argsort(xf, axis=-1, kind=self.sort_kind)
        rows = idx[np.arange(n_nodes)[:, None, None], order]
        xs = np.take_along_axis(xf, order, axis=-1)
        # (C, B, k, N) class counts left of a split after each sorted row.
        # Pad rows add nothing, so the last prefix is each node's total.
        left = np.cumsum(self.onehot[:, rows], axis=-1)
        # Candidate split after row i (left = [0..i]); valid iff both sides
        # satisfy min_samples_leaf and the value changes.
        n = np.array(sizes, dtype=np.float64)
        sizes_left = np.arange(1, width + 1, dtype=np.float64)
        valid = np.zeros(xs.shape, dtype=bool)
        valid[..., :-1] = xs[..., :-1] < xs[..., 1:]
        valid &= (sizes_left >= self.min_leaf) & (
            n[:, None, None] - sizes_left >= self.min_leaf
        )
        vb, vj, vi = np.nonzero(valid)
        # One impurity pass over every valid candidate's left and right
        # counts plus each node's total (its parent impurity).
        n_valid = vb.size
        counts = np.empty((2 * n_valid + n_nodes, self.n_classes))
        total = counts[2 * n_valid:]
        total[:] = left[:, :, 0, -1].T
        counts[:n_valid] = left[:, vb, vj, vi].T
        np.subtract(total[vb], counts[:n_valid], out=counts[n_valid: 2 * n_valid])
        imp = _impurity(counts, self.criterion)
        parent = imp[2 * n_valid:]
        n_left, n_v = vi + 1.0, n[vb]
        weighted = np.full(xs.shape, np.inf)
        weighted[vb, vj, vi] = (
            n_left * imp[:n_valid] + (n_v - n_left) * imp[n_valid: 2 * n_valid]
        ) / n_v
        first = np.argmin(weighted, axis=-1)                  # (B, k)
        scores = np.take_along_axis(weighted, first[..., None], axis=-1)[..., 0]
        best = np.full(n_nodes, np.inf)
        best_j = np.full(n_nodes, -1, dtype=np.intp)
        for j in range(self.k):
            better = scores[:, j] < best - 1e-12
            best = np.where(better, scores[:, j], best)
            best_j = np.where(better, j, best_j)
        split = np.flatnonzero((best_j >= 0) & (best < parent - 1e-12))
        if not split.size:
            return
        j = best_j[split]
        i = first[split, j]
        lo, hi = xs[split, j, i], xs[split, j, i + 1]
        # The midpoint can round up to ``hi`` (adjacent floats) or overflow;
        # ``lo`` then keeps the left child exactly the sorted prefix.
        with np.errstate(over="ignore"):
            mid = 0.5 * (lo + hi)
        threshold = np.where(mid < hi, mid, lo).tolist()
        feature = features[split, j, 0].tolist()
        gain = (parent[split] - best[split]).tolist()
        # Children's class counts come straight from the prefix sums.
        child = np.empty((2, split.size, self.n_classes))
        child[0] = left[:, split, j, i].T
        np.subtract(total[split], child[0], out=child[1])
        child_n = child.sum(axis=-1)
        proba = child / child_n[..., None]
        grows = ((child_n >= 2 * self.min_leaf)
                 & (child.max(axis=-1) != child_n)).tolist()
        child_rows = rows[split, j]
        for s, (b, ib) in enumerate(zip(split.tolist(), i.tolist())):
            t, node, _, depth, _ = popped[b]
            f = node.feature = feature[s]
            node.threshold = threshold[s]
            self.importance[t][f] += sizes[b] / self.trees[t]._n_fit_samples * gain[s]
            node.left = _Node(proba=proba[0, s])
            node.right = _Node(proba=proba[1, s])
            deeper = depth + 1 < self.max_depth
            stack = self.stacks[t]
            stack.append((node.right, child_rows[s, ib + 1: sizes[b]], depth + 1,
                          deeper and grows[1][s]))
            stack.append((node.left, child_rows[s, : ib + 1], depth + 1,
                          deeper and grows[0][s]))
