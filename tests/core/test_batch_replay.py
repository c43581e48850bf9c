"""Batch replay through the core opt-hash stack and the stream helpers."""

import numpy as np
import pytest

from repro import kernels
from repro.core.pipeline import OptHashConfig, replay, train_opt_hash
from repro.streams.stream import Element, FrequencyVector, Stream
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


@pytest.fixture(scope="module")
def prefix_and_stream():
    generator = SyntheticGenerator(
        SyntheticConfig(num_groups=5, fraction_seen=0.5, seed=3)
    )
    return generator.generate_prefix_and_stream(
        prefix_length=400, stream_multiplier=5
    )


def _train(prefix, adaptive):
    config = OptHashConfig(
        num_buckets=8,
        lam=0.5,
        solver="bcd",
        classifier="cart",
        adaptive=adaptive,
        expected_distinct=2000,
        seed=11,
    )
    return train_opt_hash(prefix, config).estimator


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
def test_opt_hash_batch_replay_bit_identical(prefix_and_stream, adaptive):
    prefix, stream = prefix_and_stream
    scalar = _train(prefix, adaptive)
    batch = _train(prefix, adaptive)
    for element in stream:
        scalar.update(element)
    processed = replay(batch, stream, batch_size=333)
    assert processed == len(stream)
    assert (scalar.bucket_totals == batch.bucket_totals).all()
    assert (scalar.bucket_counts == batch.bucket_counts).all()
    probes = stream.distinct_elements()
    scalar_estimates = [scalar.estimate(element) for element in probes]
    assert batch.estimate_batch(probes).tolist() == scalar_estimates


def test_replay_accepts_raw_key_arrays():
    sketches = pytest.importorskip("repro.sketches")
    keys = np.random.default_rng(0).integers(0, 50, size=1000)
    scalar = sketches.CountMinSketch(32, 2, seed=1)
    batch = sketches.CountMinSketch(32, 2, seed=1)
    for key in keys:
        scalar.update(Element(key=int(key)))
    assert replay(batch, keys, batch_size=128) == len(keys)
    assert (scalar.counters() == batch.counters()).all()


@pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
def test_zero_count_batch_entries_are_noops(prefix_and_stream, adaptive):
    """A zero-count arrival must not touch counters or the Bloom filter."""
    prefix, stream = prefix_and_stream
    untouched = _train(prefix, adaptive)
    zeroed = _train(prefix, adaptive)
    unseen_key = max(e.key for e in stream.distinct_elements()) + 1000
    zeroed.update_batch([unseen_key, stream[0].key], np.array([0, 0]))
    assert (untouched.bucket_totals == zeroed.bucket_totals).all()
    assert (untouched.bucket_counts == zeroed.bucket_counts).all()
    if adaptive:
        # The Bloom filter must not have learned the zero-count key.
        assert zeroed.estimate_batch([unseen_key]).tolist() == [0.0]


def test_update_many_delegates_to_batch_path(prefix_and_stream):
    from repro.sketches import CountMinSketch

    prefix, _ = prefix_and_stream
    one_by_one = CountMinSketch(64, 2, seed=0)
    many = CountMinSketch(64, 2, seed=0)
    for element in prefix:
        one_by_one.update(element)
    many.update_many(prefix)
    assert (one_by_one.counters() == many.counters()).all()


def test_replay_rejects_bad_batch_size():
    from repro.sketches import ExactCounter

    with pytest.raises(ValueError):
        replay(ExactCounter(), [1, 2, 3], batch_size=0)


class TestStreamKeyBatches:
    def test_key_array_integer_fast_path(self):
        stream = Stream(arrivals=[Element(key=i % 7) for i in range(50)])
        keys = stream.key_array()
        assert keys.dtype.kind == "i"
        assert keys.tolist() == [i % 7 for i in range(50)]

    def test_key_array_object_path_for_strings(self):
        stream = Stream(arrivals=[Element(key=f"q{i}") for i in range(10)])
        keys = stream.key_array()
        assert keys.dtype == object
        assert keys.tolist() == [f"q{i}" for i in range(10)]

    def test_key_array_cache_invalidated_on_mutation(self):
        stream = Stream(arrivals=[Element(key=1)])
        assert stream.key_array().tolist() == [1]
        stream.append(Element(key=2))
        assert stream.key_array().tolist() == [1, 2]
        stream.extend([Element(key=3)])
        assert stream.key_array().tolist() == [1, 2, 3]

    def test_iter_key_batches_covers_stream_in_order(self):
        stream = Stream(arrivals=[Element(key=i) for i in range(10)])
        chunks = list(stream.iter_key_batches(batch_size=4))
        assert [chunk.tolist() for chunk in chunks] == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        with pytest.raises(ValueError):
            list(stream.iter_key_batches(batch_size=0))


class TestFrequencyVectorBatch:
    def test_increment_batch_matches_scalar(self):
        scalar, batch = FrequencyVector(), FrequencyVector()
        keys = ["a", "b", "a", "c", "a"]
        for key in keys:
            scalar.increment(key)
        batch.increment_batch(keys)
        assert scalar.as_dict() == batch.as_dict()

    def test_increment_batch_with_counts(self):
        freq = FrequencyVector()
        freq.increment_batch(["a", "b"], [2, 5])
        assert freq["a"] == 2 and freq["b"] == 5
        with pytest.raises(ValueError):
            freq.increment_batch(["a"], [-1])
        with pytest.raises(ValueError):
            freq.increment_batch(["a", "b"], [1])

    def test_counts_for_aligned_lookup(self):
        freq = FrequencyVector({"a": 3, "b": 1})
        assert freq.counts_for(["b", "missing", "a"]).tolist() == [1.0, 0.0, 3.0]


class TestOptHashProbeTablePath:
    """``OptHashEstimator.update_batch`` on integer arrays probes the array
    table through a kernel backend; every other batch or table walks the
    dict.  Both must equal a scalar ``update`` replay bit for bit."""

    @staticmethod
    def scheme(key_to_bucket, num_buckets=4, classifier=None, featurizer=None):
        from repro.core.scheme import OptHashScheme

        return OptHashScheme(num_buckets, key_to_bucket, classifier, featurizer)

    @staticmethod
    def replay_scalar(estimator, keys, counts):
        for key, count in zip(keys, counts):
            for _ in range(int(count)):
                estimator.update(Element(key=key))
        return estimator

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_int_arrays_match_scalar_replay(self, prefix_and_stream, backend):
        from repro.core.estimator import OptHashEstimator

        prefix, stream = prefix_and_stream
        trained = _train(prefix, adaptive=False)
        scheme = trained.scheme
        assert scheme.probe_table is not None
        initial = {key: 3.0 for key in scheme.key_to_bucket}
        scalar = OptHashEstimator(scheme, initial_frequencies=initial)
        batch = OptHashEstimator(scheme, initial_frequencies=initial, backend=backend)
        assert batch.kernel_backend == backend
        keys = stream.key_array()
        counts = np.random.default_rng(5).integers(0, 4, size=len(keys))
        self.replay_scalar(scalar, keys.tolist(), counts)
        for start in range(0, len(keys), 257):
            batch.update_batch(keys[start : start + 257], counts[start : start + 257])
        assert scalar.bucket_totals.tobytes() == batch.bucket_totals.tobytes()
        for dtype in (np.int32, np.uint16, np.uint64):
            narrow = OptHashEstimator(scheme, initial_frequencies=initial, backend=backend)
            narrow.update_batch(keys.astype(dtype), counts)
            assert narrow.bucket_totals.tobytes() == batch.bucket_totals.tobytes()

    @pytest.mark.parametrize(
        "table, keys",
        [
            # String keys: no array table at all.
            ({"a": 0, "b": 3}, ["a", "c", "b", "a"]),
            # A dict matches True and 1.0 against the integer 1; the array
            # table would not, so such tables stay dict-only.
            ({True: 1, 7: 2}, np.array([1, 7, 0, 1])),
            ({1.0: 3, 7: 2}, np.array([1, 7, 0, 1])),
            ({2**63: 1, 7: 2}, np.array([7, 5])),
        ],
        ids=["str", "bool-key", "float-key", "beyond-int64-key"],
    )
    def test_dict_fallback_tables(self, table, keys):
        from repro.core.estimator import OptHashEstimator

        scheme = self.scheme(table)
        assert scheme.probe_table is None
        scalar, batch = OptHashEstimator(scheme), OptHashEstimator(scheme)
        counts = np.arange(1, len(keys) + 1)
        self.replay_scalar(scalar, list(keys), counts)
        batch.update_batch(keys, counts)
        assert scalar.bucket_totals.tobytes() == batch.bucket_totals.tobytes()
        assert batch.bucket_totals.sum() > 0

    def test_list_batches_and_uint64_overflow_use_the_dict(self):
        from repro.core.estimator import OptHashEstimator

        scheme = self.scheme({-1: 1, 5: 2, 2**63 - 1: 3})
        assert scheme.probe_table is not None
        big = np.array([2**64 - 1, 5, 2**63 - 1], dtype=np.uint64)
        for keys in ([5, -1, 5, 9], big, [Element(key=-1), Element(key=5)]):
            scalar, batch = OptHashEstimator(scheme), OptHashEstimator(scheme)
            plain = [key.key if isinstance(key, Element) else key for key in keys]
            self.replay_scalar(scalar, plain, np.ones(len(plain)))
            batch.update_batch(keys)
            assert scalar.bucket_totals.tobytes() == batch.bucket_totals.tobytes()
        # 2**64 - 1 is not the stored -1: only 5 and 2**63 - 1 land.
        assert batch.bucket_totals.tolist() == [0.0, 1.0, 1.0, 0.0]

    def test_merge_stays_bit_identical(self, prefix_and_stream):
        from repro.core.estimator import OptHashEstimator

        prefix, stream = prefix_and_stream
        scheme = _train(prefix, adaptive=False).scheme
        initial = {key: 2.0 for key in scheme.key_to_bucket}
        keys = stream.key_array()
        whole = OptHashEstimator(scheme, initial_frequencies=initial)
        whole.update_batch(keys)
        left = OptHashEstimator(scheme, initial_frequencies=initial, backend="numpy")
        right = OptHashEstimator(scheme, initial_frequencies=initial)
        left.update_batch(keys[: len(keys) // 3])
        right.update_batch(keys[len(keys) // 3 :])
        merged = left.merge(right)
        assert merged.bucket_totals.tobytes() == whole.bucket_totals.tobytes()

    @pytest.mark.parametrize("with_classifier", [True, False])
    def test_buckets_batch_matches_bucket_of(self, with_classifier):
        from repro.ml.tree import DecisionTreeClassifier

        def featurizer(element):
            return np.array([np.log1p(abs(float(element.key)))])

        stored = {key: key % 4 for key in range(0, 400, 7)}
        classifier = None
        if with_classifier:
            X = np.array([featurizer(Element(key=key)) for key in stored])
            classifier = DecisionTreeClassifier(max_depth=3).fit(X, list(stored.values()))
        keys = np.random.default_rng(2).integers(-50, 600, size=3000)
        batched = self.scheme(stored, classifier=classifier, featurizer=featurizer)
        scalar = self.scheme(stored, classifier=classifier, featurizer=featurizer)
        expected = [scalar.bucket_of(Element(key=int(key))) for key in keys]
        for name in kernels.available_backends():
            got = batched.buckets_batch(keys, kernel=kernels.get_backend(name))
            assert got.dtype == np.int64
            assert got.tolist() == expected
        assert batched.buckets_batch(keys[:0]).shape == (0,)


class TestElementIntKeyPath:
    """A list of elements whose keys are all non-bool ``int64``-range ints
    resolves through ``opt_table_lookup`` like an int array; any other list
    keeps the dict path.  Both must equal per-key ``bucket_of``/``estimate``
    bit for bit, with the featurizer run once per distinct unseen key."""

    STORED = {key: key % 4 for key in range(0, 300, 5)}

    @staticmethod
    def features_of(key):
        return (np.log1p(abs(float(key))), float(key) % 3.0)

    @classmethod
    def element(cls, key):
        return Element.with_features(key, cls.features_of(key))

    @classmethod
    def classifier(cls):
        from repro.ml.tree import DecisionTreeClassifier

        X = np.array([cls.features_of(key) for key in cls.STORED])
        return DecisionTreeClassifier(max_depth=4).fit(X, list(cls.STORED.values()))

    @classmethod
    def scheme(cls, featurizer=None, classifier="fit"):
        from repro.core.scheme import OptHashScheme

        model = cls.classifier() if classifier == "fit" else classifier
        return OptHashScheme(4, cls.STORED, model, featurizer)

    @staticmethod
    def counting(featurizer):
        calls = []

        def counted(element):
            calls.append(element.key)
            return featurizer(element)

        return counted, calls

    @staticmethod
    def spy_kernel(kernel):
        """The kernel, recording whether ``opt_table_lookup`` ran."""
        probes = []

        class Spy:
            def opt_table_lookup(self, table, keys):
                probes.append(len(keys))
                return kernel.opt_table_lookup(table, keys)

        return Spy(), probes

    @classmethod
    def mixed_elements(cls, seed=4, num=600):
        keys = np.random.default_rng(seed).integers(-40, 400, size=num)
        return [cls.element(int(key)) for key in keys]

    @pytest.mark.parametrize("backend", kernels.available_backends())
    def test_int_elements_take_the_probe_and_match_bucket_of(self, backend):
        from repro.core.scheme import default_featurizer

        elements = self.mixed_elements()
        featurizer, calls = self.counting(default_featurizer)
        batched = self.scheme(featurizer)
        expected = [self.scheme().bucket_of(element) for element in elements]
        kernel, probes = self.spy_kernel(kernels.get_backend(backend))
        got = batched.buckets_batch(elements, kernel=kernel)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert probes == [len(elements)]
        unseen = {e.key for e in elements if e.key not in self.STORED}
        assert sorted(calls) == sorted(unseen)
        # Every unseen key is cached now: a second pass featurizes nothing.
        assert batched.buckets_batch(elements, kernel=kernel).tolist() == expected
        assert len(calls) == len(unseen)

    def test_default_featurizer_rows_match_the_generic_build(self):
        from repro.core.scheme import default_featurizer

        elements = self.mixed_elements(seed=9)
        default = self.scheme()
        generic = self.scheme(lambda element: default_featurizer(element))
        assert default.buckets_batch(elements).tolist() == generic.buckets_batch(elements).tolist()
        assert default._features(elements).tobytes() == np.array(
            [default_featurizer(element) for element in elements], dtype=float
        ).tobytes()

    def test_elements_match_the_int_array_path(self):
        def key_feature(element):
            return np.array(self.features_of(element.key))

        keys = np.random.default_rng(6).integers(-40, 400, size=800)
        from_elements = self.scheme(key_feature).buckets_batch(
            [Element(key=int(key)) for key in keys]
        )
        from_array = self.scheme(key_feature).buckets_batch(keys)
        assert from_elements.tolist() == from_array.tolist()

    @pytest.mark.parametrize(
        "keys, probed",
        [
            ([np.int64(5), np.int64(7), 5, np.int32(-3), np.uint64(10)], True),
            ([True, 1, 5, False, 7], False),
            ([2**63, 5, 7, -(2**63) - 1], False),
            ([np.uint64(2**64 - 1), 5], False),
            ([2**63 - 1, -(2**63), 5], True),
            (["x", 5, "y", 7], False),
            ([1.0, 5, 7], False),
        ],
        ids=["np-ints", "bool", "beyond-int64", "big-uint64", "int64-bounds", "mixed-str", "float"],
    )
    def test_key_types(self, keys, probed):
        from repro.core.scheme import default_featurizer

        elements = [
            Element.with_features(key, self.features_of(0 if isinstance(key, str) else key))
            for key in keys
        ]
        featurizer, calls = self.counting(default_featurizer)
        batched = self.scheme(featurizer)
        expected = [self.scheme().bucket_of(element) for element in elements]
        kernel, probes = self.spy_kernel(kernels.get_backend())
        assert batched.buckets_batch(elements, kernel=kernel).tolist() == expected
        assert bool(probes) is probed
        if probed:
            assert len(calls) == len({e.key for e in elements if e.key not in self.STORED})

    def test_bool_key_keeps_dict_equality(self):
        """``True`` never enters the int64 probe; in the dict path it equals
        a stored ``1`` exactly as ``bucket_of`` does."""
        from repro.core.scheme import OptHashScheme

        scheme = OptHashScheme(4, {1: 3, 2: 1}, self.classifier())
        kernel, probes = self.spy_kernel(kernels.get_backend())
        elements = [self.element(True), self.element(2)]
        got = scheme.buckets_batch(elements, kernel=kernel)
        assert probes == []
        assert got.tolist() == [scheme.bucket_of(e) for e in elements] == [3, 1]

    def test_repeated_key_takes_the_last_elements_prediction(self):
        """Two elements with one unseen key but different features: both
        rows get the last one's prediction, as ``predict_buckets`` caches."""
        classifier = self.classifier()
        candidates = [self.features_of(key) for key in range(1, 300, 5)]
        predictions = classifier.predict(np.array(candidates))
        first = candidates[0]
        last = candidates[int(np.flatnonzero(predictions != predictions[0])[0])]
        elements = [
            Element.with_features(1, first),
            Element.with_features(5, self.features_of(5)),
            Element.with_features(1, last),
            Element.with_features(6, first),
        ]
        expected_last = int(classifier.predict(np.array([last]))[0])
        assert expected_last != int(classifier.predict(np.array([first]))[0])
        int_path = self.scheme(classifier=classifier)
        dict_path = self.scheme(classifier=classifier)
        dict_path.probe_table = None
        got = int_path.buckets_batch(elements)
        assert got.tolist() == dict_path.buckets_batch(elements).tolist()
        assert got[0] == got[2] == expected_last
        assert int_path._prediction_cache[1] == expected_last

    def test_no_classifier_routes_misses_to_bucket_zero(self):
        elements = self.mixed_elements(seed=2, num=50)
        scheme = self.scheme(classifier=None)
        expected = [scheme.bucket_of(element) for element in elements]
        assert scheme.buckets_batch(elements).tolist() == expected
        assert scheme.buckets_batch([]).shape == (0,)

    @pytest.mark.parametrize("adaptive", [False, True], ids=["static", "adaptive"])
    def test_estimate_batch_matches_scalar_estimate(self, adaptive):
        from repro.core.estimator import AdaptiveOptHashEstimator, OptHashEstimator

        elements = self.mixed_elements(seed=8, num=500)

        def build(probe=True):
            scheme = self.scheme()
            if not probe:
                scheme.probe_table = None
            initial = {key: float(key % 7 + 1) for key in self.STORED}
            if adaptive:
                estimator = AdaptiveOptHashEstimator(
                    scheme, initial_frequencies=initial, expected_distinct=2000, seed=1
                )
            else:
                estimator = OptHashEstimator(scheme, initial_frequencies=initial)
            estimator.update_batch(elements[:300])
            return estimator

        batched, scalar = build(), build()
        expected = [scalar.estimate(element) for element in elements]
        got = batched.estimate_batch(elements)
        assert got.tolist() == expected
        assert got.tobytes() == build(probe=False).estimate_batch(elements).tobytes()
