"""CART decision-tree classifier.

The tree-based classifier of the paper's Experiment 5 (``cart``) and the
base learner of the random forest.  Splits minimize weighted Gini impurity;
the hyperparameters the paper tunes — ``max_depth`` and
``min_impurity_decrease`` — are supported, along with ``max_features`` used
by the forest for per-split feature subsampling.

The split search is vectorized per feature: candidate thresholds are the
midpoints between consecutive sorted values, and class-count prefix sums give
the impurity of every candidate split in one pass.  For inference ``fit``
flattens the tree into per-node arrays, and ``predict`` / ``predict_proba``
find every row's leaf with the ``tree_leaves`` op of the :mod:`repro.kernels`
backend (one C loop per row on the native backend, a level-by-level NumPy
descent on the reference one).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.kernels import get_backend
from repro.ml.base import Classifier, as_2d_array, check_fitted
from repro.ml.preprocessing import LabelEncoder

__all__ = ["DecisionTreeClassifier", "gini_impurity"]


def gini_impurity(class_counts: np.ndarray) -> float:
    """Gini impurity of a node given its per-class counts."""
    total = class_counts.sum()
    if total == 0:
        return 0.0
    proportions = class_counts / total
    return float(1.0 - np.sum(proportions**2))


@dataclass
class _Node:
    """A tree node: either a split (feature, threshold) or a leaf."""

    prediction: int
    class_counts: np.ndarray
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeClassifier(Classifier):
    """CART classifier with Gini impurity.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until purity or ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_impurity_decrease:
        Minimum weighted impurity decrease required to accept a split.
    max_features:
        Number of features examined per split: an int, a float fraction,
        ``"sqrt"``, ``"log2"``, or ``None`` for all features.
    random_state:
        Seed controlling feature subsampling.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_impurity_decrease: float = 0.0,
        max_features: Union[None, int, float, str] = None,
        random_state: Optional[int] = None,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.random_state = random_state
        self._root: Optional[_Node] = None
        self._label_encoder: Optional[LabelEncoder] = None
        self._num_features: Optional[int] = None

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = as_2d_array(X)
        self._label_encoder = LabelEncoder().fit(y)
        encoded = self._label_encoder.transform(y)
        self._num_classes = len(self._label_encoder.classes_)
        self._num_features = X.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self._num_training_samples = X.shape[0]
        self._importances = np.zeros(self._num_features)
        self._root = self._build(X, encoded, depth=0)
        self._flatten()
        total = self._importances.sum()
        self._importances = (
            self._importances / total if total > 0 else self._importances
        )
        return self

    def _resolve_max_features(self) -> int:
        total = self._num_features
        value = self.max_features
        if value is None:
            return total
        if value == "sqrt":
            return max(1, int(np.sqrt(total)))
        if value == "log2":
            return max(1, int(np.log2(total))) if total > 1 else 1
        if isinstance(value, float):
            return max(1, int(round(value * total)))
        if isinstance(value, int):
            return max(1, min(value, total))
        raise ValueError(f"invalid max_features: {value!r}")

    def _class_counts(self, encoded_labels: np.ndarray) -> np.ndarray:
        return np.bincount(encoded_labels, minlength=self._num_classes).astype(float)

    def _build(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        counts = self._class_counts(y)
        node = _Node(prediction=int(counts.argmax()), class_counts=counts)
        num_samples = len(y)

        if (
            num_samples < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or counts.max() == num_samples  # pure node
        ):
            return node

        split = self._best_split(X, y, counts)
        if split is None:
            return node
        feature, threshold, impurity_decrease = split
        if impurity_decrease < self.min_impurity_decrease:
            return node

        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        # Importance: impurity decrease weighted by the fraction of training
        # samples reaching this node (the standard "Gini importance").
        self._importances[feature] += (
            num_samples / self._num_training_samples
        ) * impurity_decrease
        node.left = self._build(X[mask], y[mask], depth + 1)
        node.right = self._build(X[~mask], y[~mask], depth + 1)
        return node

    def _best_split(self, X: np.ndarray, y: np.ndarray, parent_counts: np.ndarray):
        """Return ``(feature, threshold, impurity_decrease)`` or None."""
        num_samples = len(y)
        parent_impurity = gini_impurity(parent_counts)
        num_candidates = self._resolve_max_features()
        if num_candidates < self._num_features:
            features = self._rng.choice(self._num_features, size=num_candidates, replace=False)
        else:
            features = np.arange(self._num_features)

        best = None
        best_decrease = -np.inf
        one_hot = np.zeros((num_samples, self._num_classes))
        one_hot[np.arange(num_samples), y] = 1.0

        for feature in features:
            values = X[:, feature]
            order = np.argsort(values, kind="stable")
            sorted_values = values[order]
            # Candidate split positions: between distinct consecutive values.
            distinct = sorted_values[1:] != sorted_values[:-1]
            if not distinct.any():
                continue
            # Prefix class counts after each position (left side of the split).
            left_counts = np.cumsum(one_hot[order], axis=0)[:-1]
            right_counts = parent_counts - left_counts
            left_sizes = np.arange(1, num_samples)
            right_sizes = num_samples - left_sizes

            left_gini = 1.0 - np.sum(
                (left_counts / left_sizes[:, None]) ** 2, axis=1
            )
            right_gini = 1.0 - np.sum(
                (right_counts / right_sizes[:, None]) ** 2, axis=1
            )
            weighted = (left_sizes * left_gini + right_sizes * right_gini) / num_samples
            weighted[~distinct] = np.inf  # cannot split between equal values

            position = int(np.argmin(weighted))
            decrease = parent_impurity - weighted[position]
            # Zero-gain splits are kept (CART's behaviour): they can enable
            # gainful splits deeper down (e.g. XOR-style interactions);
            # ``min_impurity_decrease`` is the knob that prunes them.
            if decrease > best_decrease + 1e-12:
                threshold = 0.5 * (sorted_values[position] + sorted_values[position + 1])
                best = (int(feature), float(threshold), float(decrease))
                best_decrease = decrease
        return best

    def _flatten(self) -> None:
        """Per-node arrays of the fitted tree, in preorder (root is node 0).

        ``_feature`` is -1 at leaves; ``_children[node, went_left]`` is the
        next node (column 0 the right child, column 1 the left);
        ``_proba`` holds each node's normalized class counts.
        """
        nodes = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if not node.is_leaf:
                stack.extend((node.right, node.left))
        index = {id(node): position for position, node in enumerate(nodes)}
        # (feature, threshold, right, left) per node; leaves never read the
        # last three.
        rows = [
            (-1, 0.0, -1, -1)
            if node.is_leaf
            else (node.feature, node.threshold, index[id(node.right)], index[id(node.left)])
            for node in nodes
        ]
        feature, threshold, right, left = zip(*rows)
        # Contiguous int64/float64, the layout tree_leaves takes without a copy.
        self._feature = np.array(feature, dtype=np.int64)
        self._threshold = np.array(threshold, dtype=np.float64)
        # _children[node, went_left]: one gather picks the next node.
        self._children = np.array([right, left], dtype=np.int64).T.copy()
        self._prediction = np.array([node.prediction for node in nodes], dtype=int)
        counts = np.array([node.class_counts for node in nodes], dtype=np.float64)
        totals = counts.sum(axis=1, keepdims=True)
        self._proba = np.divide(
            counts,
            totals,
            out=np.full_like(counts, 1.0 / self._num_classes),
            where=totals > 0,
        )

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def _leaf_for(self, row: np.ndarray) -> _Node:
        """Row-at-a-time descent through the node objects (the reference)."""
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node

    def _leaves(self, X: np.ndarray) -> np.ndarray:
        """Leaf index of every row, by the kernel backend's ``tree_leaves``.

        The same float64 ``<=`` as :meth:`_leaf_for`, so NaN features go
        right in both.
        """
        return get_backend().tree_leaves(self._feature, self._threshold, self._children, X)

    def predict(self, X) -> np.ndarray:
        check_fitted(self, "_root")
        X = as_2d_array(X)
        encoded = self._prediction[self._leaves(X)]
        return self._label_encoder.inverse_transform(encoded)

    def predict_proba(self, X) -> np.ndarray:
        check_fitted(self, "_root")
        X = as_2d_array(X)
        return self._proba[self._leaves(X)]

    @property
    def classes_(self) -> np.ndarray:
        check_fitted(self, "_label_encoder")
        return self._label_encoder.classes_

    @property
    def feature_importances_(self) -> np.ndarray:
        """Normalized Gini importances of the features (sum to 1 if any split)."""
        check_fitted(self, "_root")
        return self._importances.copy()

    def depth(self) -> int:
        """Actual depth of the fitted tree (0 for a single leaf)."""
        check_fitted(self, "_root")

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)

    def num_leaves(self) -> int:
        """Number of leaves in the fitted tree."""
        check_fitted(self, "_root")

        def _leaves(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return _leaves(node.left) + _leaves(node.right)

        return _leaves(self._root)
