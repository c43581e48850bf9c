"""Tests for the CART decision tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.tree import DecisionTreeClassifier, gini_impurity


class TestGiniImpurity:
    def test_pure_node_has_zero_impurity(self):
        assert gini_impurity(np.array([10.0, 0.0])) == 0.0

    def test_uniform_two_classes(self):
        assert gini_impurity(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_empty_node(self):
        assert gini_impurity(np.array([0.0, 0.0])) == 0.0

    def test_bounded_by_one(self):
        assert 0.0 <= gini_impurity(np.array([1.0, 2.0, 3.0, 4.0])) < 1.0


class TestDecisionTree:
    def test_perfectly_separable_data_fit_exactly(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)

    def test_xor_requires_depth_two(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert shallow.score(X, y) < 1.0
        assert deep.score(X, y) == 1.0

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 3))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_min_impurity_decrease_prunes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(100, 2))
        y = rng.integers(0, 2, size=100)  # pure noise
        permissive = DecisionTreeClassifier(min_impurity_decrease=0.0).fit(X, y)
        strict = DecisionTreeClassifier(min_impurity_decrease=0.4).fit(X, y)
        assert strict.num_leaves() <= permissive.num_leaves()
        assert strict.num_leaves() == 1  # noise offers no 0.4 impurity decrease

    def test_min_samples_split_respected(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(min_samples_split=10).fit(X, y)
        assert tree.num_leaves() == 1

    def test_multiclass_prediction(self):
        X = np.array([[0.0], [0.5], [5.0], [5.5], [10.0], [10.5]])
        y = np.array([0, 0, 1, 1, 2, 2])
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_array_equal(tree.predict(X), y)
        np.testing.assert_array_equal(tree.classes_, [0, 1, 2])

    def test_predict_proba_reflects_leaf_composition(self):
        X = np.array([[0.0], [0.0], [0.0], [10.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier(max_depth=1).fit(X, y)
        # The only possible split isolates the x=10 sample, leaving a mixed
        # leaf {0, 0, 1} on the left.
        proba = tree.predict_proba([[0.05]])
        assert proba.shape == (1, 2)
        assert proba[0, 0] == pytest.approx(2 / 3)

    def test_constant_features_yield_single_leaf(self):
        X = np.zeros((20, 3))
        y = np.array([0, 1] * 10)
        tree = DecisionTreeClassifier().fit(X, y)
        assert tree.num_leaves() == 1
        # Majority class (tie broken towards the lower label index).
        assert tree.predict([[0.0, 0.0, 0.0]])[0] in (0, 1)

    def test_max_features_subsampling_still_learns(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 6))
        y = (X[:, 2] > 0).astype(int)
        tree = DecisionTreeClassifier(max_features="sqrt", random_state=0).fit(X, y)
        assert tree.score(X, y) > 0.8

    def test_invalid_max_features_rejected(self):
        tree = DecisionTreeClassifier(max_features="bogus")
        with pytest.raises(ValueError):
            tree.fit(np.array([[0.0], [1.0]]), np.array([0, 1]))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeClassifier().predict([[1.0]])

    def test_feature_importances_identify_informative_feature(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(300, 4))
        y = (X[:, 1] > 0).astype(int)  # only feature 1 matters
        tree = DecisionTreeClassifier(max_depth=4, random_state=0).fit(X, y)
        importances = tree.feature_importances_
        assert importances.shape == (4,)
        assert importances[1] == importances.max()
        assert importances.sum() == pytest.approx(1.0)

    def test_feature_importances_zero_for_single_leaf(self):
        X = np.zeros((10, 2))
        y = np.zeros(10, dtype=int)
        tree = DecisionTreeClassifier().fit(X, y)
        np.testing.assert_allclose(tree.feature_importances_, [0.0, 0.0])

    def test_string_labels_supported(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array(["cold", "cold", "hot", "hot"])
        tree = DecisionTreeClassifier().fit(X, y)
        assert list(tree.predict([[0.5], [10.5]])) == ["cold", "hot"]


@given(
    num_samples=st.integers(min_value=5, max_value=60),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=20, deadline=None)
def test_unrestricted_tree_fits_training_data(num_samples, seed):
    """With distinct feature values and no depth limit, training accuracy is 1."""
    rng = np.random.default_rng(seed)
    X = rng.permutation(num_samples).reshape(-1, 1).astype(float)
    y = rng.integers(0, 3, size=num_samples)
    tree = DecisionTreeClassifier().fit(X, y)
    assert tree.score(X, y) == 1.0


class TestVectorizedInference:
    """``predict``/``predict_proba`` descend all rows at once; the per-row
    ``_leaf_for`` walk over the node objects is the reference."""

    @staticmethod
    def reference(tree, X):
        leaves = [tree._leaf_for(row) for row in np.asarray(X, dtype=float)]
        labels = tree._label_encoder.inverse_transform(
            np.array([leaf.prediction for leaf in leaves], dtype=int)
        )
        proba = np.array([leaf.class_counts / leaf.class_counts.sum() for leaf in leaves])
        return labels, proba.reshape(len(leaves), -1)

    def assert_matches_reference(self, tree, X):
        labels, proba = self.reference(tree, X)
        np.testing.assert_array_equal(tree.predict(X), labels)
        np.testing.assert_array_equal(tree.predict_proba(X), proba)

    @given(
        num_samples=st.integers(min_value=2, max_value=80),
        num_features=st.integers(min_value=1, max_value=4),
        max_depth=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_data(self, num_samples, num_features, max_depth, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(num_samples, num_features)).round(1)
        y = rng.integers(0, 4, size=num_samples)
        tree = DecisionTreeClassifier(max_depth=max_depth, random_state=seed).fit(X, y)
        self.assert_matches_reference(tree, X)
        self.assert_matches_reference(tree, rng.normal(size=(50, num_features)))

    def test_rows_exactly_at_a_threshold_go_left(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(60, 2))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=4).fit(X, y)
        splits = tree._feature >= 0
        on_threshold = np.zeros((int(splits.sum()), 2))
        on_threshold[np.arange(len(on_threshold)), tree._feature[splits]] = tree._threshold[splits]
        self.assert_matches_reference(tree, on_threshold)
        # Nodes are in preorder, so the root's left subtree is 1..right-1.
        row = np.zeros((1, 2))
        row[0, tree._feature[0]] = tree._threshold[0]
        assert 1 <= tree._leaves(row)[0] < tree._children[0, 0]

    def test_nan_features_go_right(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(X, y)
        queries = np.array([[np.nan], [0.0], [np.nan]])
        self.assert_matches_reference(tree, queries)
        assert tree.predict(queries).tolist() == [1, 0, 1]

    def test_single_leaf_and_empty_batch(self):
        tree = DecisionTreeClassifier().fit(np.array([[1.0], [2.0]]), np.array([5, 5]))
        assert tree.predict(np.array([[0.0], [9.0]])).tolist() == [5, 5]
        assert tree.predict(np.zeros((0, 1))).shape == (0,)
        assert tree.predict_proba(np.zeros((0, 1))).shape == (0, 1)
