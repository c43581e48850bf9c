"""Registry: every estimator buildable from a JSON-safe dict, one name space.

Acceptance criterion of the api_redesign issue: every estimator in the repo
is constructible via ``repro.api.build`` from a JSON-safe dict, with solvers
and classifiers selected by name, and the build registry shares its name
space with the serialization tag registry.
"""

import json

import numpy as np
import pytest

import repro.api as api
from repro.api import OptHashSpec, SpecError
from repro.ml import (
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    RandomForestClassifier,
)
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


@pytest.fixture(scope="module")
def prefix():
    generator = SyntheticGenerator(
        SyntheticConfig(num_groups=4, fraction_seen=0.5, seed=0)
    )
    return generator.generate_prefix(400)


#: One JSON-safe sample dict per registered kind (the acceptance sweep).
SAMPLE_DICTS = {
    "count_min": {"kind": "count_min", "total_buckets": 64, "depth": 2, "seed": 1},
    "count_sketch": {"kind": "count_sketch", "width": 32, "depth": 3, "seed": 1},
    "bloom": {"kind": "bloom", "num_bits": 256, "num_hashes": 3, "seed": 1},
    "ams": {"kind": "ams", "num_estimators": 16, "means_groups": 4, "seed": 1},
    "misra_gries": {"kind": "misra_gries", "num_counters": 8},
    "space_saving": {"kind": "space_saving", "num_counters": 8},
    "exact_counter": {"kind": "exact_counter"},
    "learned_cms": {
        "kind": "learned_cms",
        "total_buckets": 64,
        "num_heavy_buckets": 4,
        "heavy_keys": [1, 2, 3, 4],
        "depth": 1,
        "seed": 1,
    },
    "opt_hash": {
        "kind": "opt_hash",
        "num_buckets": 6,
        "lam": 0.5,
        "solver": "bcd",
        "classifier": "cart",
        "seed": 0,
    },
    "adaptive_opt_hash": {
        "kind": "adaptive_opt_hash",
        "num_buckets": 6,
        "solver": "bcd",
        "classifier": None,
        "bloom_bits": 512,
        "seed": 0,
    },
    "sharded": {
        "kind": "sharded",
        "inner": {"kind": "count_min", "total_buckets": 64, "depth": 2, "seed": 1},
        "num_shards": 2,
    },
    "sliding_window": {
        "kind": "sliding_window",
        "inner": {"kind": "count_min", "total_buckets": 64, "depth": 2, "seed": 1},
        "num_panes": 3,
        "pane_items": 100,
    },
    "decayed": {
        "kind": "decayed",
        "inner": {"kind": "count_min", "total_buckets": 64, "depth": 2, "seed": 1},
        "num_panes": 3,
        "decay": 0.5,
    },
    "session": None,  # not an estimator kind: sessions wrap estimators
}


class TestEveryKindBuildable:
    def test_sample_covers_every_registered_kind(self):
        assert set(api.registered_kinds()) <= set(SAMPLE_DICTS)

    @pytest.mark.parametrize(
        "kind", [k for k, v in SAMPLE_DICTS.items() if v is not None]
    )
    def test_build_from_json_safe_dict(self, kind, prefix):
        spec_dict = json.loads(json.dumps(SAMPLE_DICTS[kind]))
        estimator = api.build(spec_dict, prefix=prefix)
        expected_cls = api.estimator_class_for(kind)
        assert isinstance(estimator, expected_cls)

    def test_kind_names_equal_serialization_tags(self):
        for kind in api.registered_kinds():
            cls = api.estimator_class_for(kind)
            tag = getattr(cls, "SERIAL_TAG", None)
            if tag is not None:
                assert tag == kind, f"{cls.__name__}: kind {kind!r} != tag {tag!r}"

    def test_registering_conflicting_tag_and_kind_is_rejected(self):
        from repro.api.registry import register_estimator
        from repro.sketches.serialization import register_sketch

        @register_sketch("one_tag_name")
        class Doomed:  # noqa: N801 - throwaway
            pass

        try:
            with pytest.raises(ValueError, match="must match serialization tag"):
                register_estimator("another_kind_name")(Doomed)
        finally:
            from repro.sketches import serialization

            serialization._REGISTRY.pop("one_tag_name", None)


class TestSelectionByName:
    @pytest.mark.parametrize("solver", ["bcd", "dp", "milp"])
    def test_solver_by_name(self, solver, prefix):
        options = {"time_limit": 2.0, "node_limit": 20} if solver == "milp" else {}
        spec = OptHashSpec(
            num_buckets=3,
            solver=solver,
            solver_options=options,
            classifier=None,
            max_stored_elements=8,
            seed=0,
        )
        training = api.train(spec, prefix)
        assert training.solver_result.assignment.labels.shape == (8,)

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("cart", DecisionTreeClassifier),
            ("logreg", LogisticRegressionClassifier),
            ("rf", RandomForestClassifier),
        ],
    )
    def test_classifier_by_name(self, name, cls, prefix):
        options = {"n_estimators": 3} if name == "rf" else {}
        spec = OptHashSpec(
            num_buckets=4,
            solver="bcd",
            classifier=name,
            classifier_options=options,
            seed=0,
        )
        estimator = api.build(spec, prefix=prefix)
        assert isinstance(estimator.scheme.classifier, cls)


class TestBuildErrors:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown estimator kind"):
            api.build({"kind": "quantum_sketch"})

    def test_training_kind_without_prefix(self):
        with pytest.raises(SpecError, match="prefix"):
            api.build({"kind": "opt_hash", "num_buckets": 4, "seed": 0})

    def test_sharded_over_training_kind_without_prefix(self):
        with pytest.raises(SpecError, match="prefix"):
            api.build(
                {
                    "kind": "sharded",
                    "inner": {"kind": "opt_hash", "num_buckets": 4, "seed": 0},
                    "num_shards": 2,
                }
            )

    def test_constructor_errors_surface_as_spec_errors(self):
        # total_buckets < depth passes the per-field schema but fails in the
        # constructor; build must re-raise it as the typed SpecError.
        with pytest.raises(SpecError, match="count_min"):
            api.build({"kind": "count_min", "total_buckets": 2, "depth": 8})

    def test_train_rejects_non_opt_hash_specs(self, prefix):
        with pytest.raises(SpecError, match="opt-hash"):
            api.train({"kind": "count_min", "width": 8}, prefix)


class TestOptHashDeterminism:
    def test_same_spec_builds_merge_compatible_estimators(self, prefix):
        """Two independent builds from one spec (classifier=None) merge."""
        spec = OptHashSpec(num_buckets=5, solver="dp", classifier=None, seed=3)
        first = api.build(spec, prefix=prefix)
        second = api.build(spec, prefix=prefix)
        first.update_batch([1, 2, 3])
        second.update_batch([4, 5])
        first.merge(second)  # identical schemes + seeding by construction

    def test_sharded_opt_hash_trains_once_and_merges(self, prefix):
        spec = {
            "kind": "sharded",
            "inner": {
                "kind": "opt_hash",
                "num_buckets": 5,
                "solver": "bcd",
                "classifier": "cart",
                "seed": 3,
            },
            "num_shards": 3,
            "mode": "key-partition",
        }
        sharded = api.build(spec, prefix=prefix)
        schemes = {id(shard.scheme) for shard in sharded.shards}
        assert len(schemes) == 1, "shards must share one trained scheme"
        keys = [element.key for element in prefix.arrivals[:200]]
        sharded.update_batch(keys)
        collapsed = sharded.collapse()
        # A separate (seeded, hence identical) training run fed the same keys.
        single = api.train(spec["inner"], prefix).estimator
        single.update_batch(keys)
        np.testing.assert_array_equal(collapsed.bucket_totals, single.bucket_totals)
        np.testing.assert_array_equal(collapsed.bucket_counts, single.bucket_counts)
        np.testing.assert_array_equal(
            collapsed.estimate_batch(keys), single.estimate_batch(keys)
        )

    @pytest.mark.parametrize("wrapper", ["sharded", "sliding_window"])
    def test_wrapped_opt_hash_learns_once(self, prefix, monkeypatch, wrapper):
        from repro.core import pipeline

        solves = []
        solve = pipeline.learn_hashing_scheme

        def counting_solve(*args, **kwargs):
            solves.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(pipeline, "learn_hashing_scheme", counting_solve)
        inner = {"kind": "opt_hash", "num_buckets": 4, "solver": "bcd", "seed": 3}
        size = {"sharded": "num_shards", "sliding_window": "num_panes"}[wrapper]
        api.build({"kind": wrapper, "inner": inner, size: 3}, prefix=prefix)
        assert len(solves) == 1
