"""Bit-identity of the kernel backends.

Every compute backend (NumPy reference, ctypes-driven C) implements
the exact integer recurrences of :mod:`repro.sketches.hashing`, so two
sketches that differ only in ``backend=`` must hold byte-identical state and
return byte-identical answers — across sketch kinds, hash schemes, key
types, weighted batches, merges, serialization, storage backends, and
sharded layouts.  These tests run against every backend available on the
machine (the NumPy baseline always is; the compiled one is skipped where
no C compiler exists, and CI runs dedicated legs with and without it).  The
retired ``numba`` name is checked too: buffers that recorded it restore on
``auto`` with a warning, and new sketches cannot ask for it.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import kernels
from repro.errors import KernelError
from repro.kernels.probe_table import ProbeTable
from repro.sketches import AmsSketch, BloomFilter, CountMinSketch, CountSketch
from repro.sketches.serialization import loads

SCHEMES = ("universal", "tabulation")

COMPILED = [name for name in kernels.available_backends() if name != "numpy"]

requires_compiled = pytest.mark.skipif(
    not COMPILED, reason="no compiled kernel backend available (no cc)"
)


def compiled_params():
    return COMPILED or [
        pytest.param(
            "native", marks=pytest.mark.skip(reason="no compiled backend")
        )
    ]


def int_keys(num=4000, support=500, seed=0):
    rng = np.random.default_rng(seed)
    keys = rng.integers(-(2**62), 2**62, size=num, dtype=np.int64)
    # Skew toward a small hot set so estimates exercise real collisions.
    hot = rng.integers(0, support, size=num, dtype=np.int64)
    use_hot = rng.random(num) < 0.8
    return np.where(use_hot, hot, keys)


def str_keys(num=2000, support=300, seed=1):
    ranks = np.random.default_rng(seed).integers(0, support, size=num)
    return [f"query {int(r)} text" for r in ranks]


def weights(num, seed=2):
    return np.random.default_rng(seed).integers(0, 9, size=num).astype(np.int64)


def probe(keys):
    if isinstance(keys, np.ndarray):
        return np.concatenate([np.unique(keys), [10**9, -(10**9)]])
    return sorted(set(keys)) + ["never seen a", "never seen b"]


def make_pair(factory, backend):
    """The same sketch twice: NumPy reference vs the backend under test."""
    return factory(backend="numpy"), factory(backend=backend)


def table_of(sketch):
    for attr in ("_table", "_counters", "_bits"):
        if hasattr(sketch, attr):
            return np.asarray(getattr(sketch, attr))
    raise AssertionError(f"no state array on {type(sketch).__name__}")


# ----------------------------------------------------------------------
# core matrix: backend x sketch x scheme x key type x weighted
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("key_kind", ("int", "str"))
@pytest.mark.parametrize("weighted", (False, True))
class TestIngestQueryIdentity:
    def keys(self, key_kind):
        return int_keys() if key_kind == "int" else str_keys()

    def run_pair(self, factory, backend, key_kind, weighted):
        keys = self.keys(key_kind)
        counts = weights(len(keys)) if weighted else None
        ref, fast = make_pair(factory, backend)
        assert fast.kernel_backend == backend
        for sketch in (ref, fast):
            sketch.update_batch(keys, counts)
        np.testing.assert_array_equal(table_of(ref), table_of(fast))
        return ref, fast, keys

    def test_count_min(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountMinSketch(width=256, depth=4, seed=11, hash_scheme=scheme, **kw)

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_min_conservative(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountMinSketch(
                width=256, depth=4, seed=3, hash_scheme=scheme, conservative=True, **kw
            )

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_sketch(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountSketch(width=256, depth=5, seed=7, hash_scheme=scheme, **kw)

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_sketch_even_depth_median(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return CountSketch(width=128, depth=4, seed=9, hash_scheme=scheme, **kw)

        ref, fast, keys = self.run_pair(factory, backend, key_kind, weighted)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_ams(self, backend, scheme, key_kind, weighted):
        def factory(**kw):
            return AmsSketch(num_estimators=64, seed=5, hash_scheme=scheme, **kw)

        ref, fast, _ = self.run_pair(factory, backend, key_kind, weighted)
        assert ref.estimate_second_moment() == fast.estimate_second_moment()


@pytest.mark.parametrize("backend", compiled_params())
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("key_kind", ("int", "str"))
class TestBloomIdentity:
    def test_add_contains_observe(self, backend, scheme, key_kind):
        keys = int_keys(1500) if key_kind == "int" else str_keys(1500)

        def factory(**kw):
            return BloomFilter(
                num_bits=4096, num_hashes=4, seed=13, hash_scheme=scheme, **kw
            )

        ref, fast = make_pair(factory, backend)
        half = len(keys) // 2
        ref_new = ref.observe_batch(keys[:half])
        fast_new = fast.observe_batch(keys[:half])
        np.testing.assert_array_equal(ref_new, fast_new)
        ref.add_batch(keys[half:])
        fast.add_batch(keys[half:])
        np.testing.assert_array_equal(ref._bits, fast._bits)
        assert ref.num_inserted == fast.num_inserted
        np.testing.assert_array_equal(
            ref.contains_batch(probe(keys)), fast.contains_batch(probe(keys))
        )


# ----------------------------------------------------------------------
# non-power-of-two table widths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
@pytest.mark.parametrize("width", (1, 3, 257, 2730, 999983))
class TestOddWidthIdentity:
    """Widths that are not powers of two.

    Regression for the fastmod reciprocal: a ceil(log2) shift makes the
    precomputed magic overflow 64 bits for every non-power-of-two width,
    which shorts the quotient so badly the fixup loop effectively hangs.
    The floor(log2) shift keeps magic in range for all widths, including
    the degenerate width-1 table.
    """

    def test_count_min(self, backend, width):
        keys = int_keys(2000)
        ref, fast = make_pair(
            lambda **kw: CountMinSketch(width=width, depth=3, seed=17, **kw),
            backend,
        )
        for sketch in (ref, fast):
            sketch.update_batch(keys)
        np.testing.assert_array_equal(ref._table, fast._table)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_count_sketch(self, backend, width):
        keys = int_keys(2000)
        ref, fast = make_pair(
            lambda **kw: CountSketch(width=width, depth=3, seed=19, **kw),
            backend,
        )
        for sketch in (ref, fast):
            sketch.update_batch(keys)
        np.testing.assert_array_equal(ref._table, fast._table)
        np.testing.assert_array_equal(
            ref.estimate_batch(probe(keys)), fast.estimate_batch(probe(keys))
        )

    def test_bloom(self, backend, width):
        keys = int_keys(1000)
        ref, fast = make_pair(
            lambda **kw: BloomFilter(num_bits=width, num_hashes=3, seed=23, **kw),
            backend,
        )
        ref.add_batch(keys)
        fast.add_batch(keys)
        np.testing.assert_array_equal(ref._bits, fast._bits)
        np.testing.assert_array_equal(
            ref.contains_batch(probe(keys)), fast.contains_batch(probe(keys))
        )


# ----------------------------------------------------------------------
# hypothesis: adversarial key/weight patterns
# ----------------------------------------------------------------------
any_int_key = st.integers(min_value=-(2**63), max_value=2**64 - 1)
any_str_key = st.text(max_size=12)


@requires_compiled
class TestHypothesisIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        keys=st.lists(any_int_key, min_size=1, max_size=60),
        counts=st.none() | st.just("draw"),
        data=st.data(),
    )
    def test_cms_int_keys(self, keys, counts, data):
        if counts == "draw":
            counts = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=10**6),
                    min_size=len(keys),
                    max_size=len(keys),
                )
            )
        for backend in COMPILED:
            ref, fast = make_pair(
                lambda **kw: CountMinSketch(width=32, depth=3, seed=1, **kw), backend
            )
            ref.update_batch(keys, counts)
            fast.update_batch(keys, counts)
            np.testing.assert_array_equal(ref._table, fast._table)
            np.testing.assert_array_equal(
                ref.estimate_batch(keys), fast.estimate_batch(keys)
            )

    @settings(max_examples=40, deadline=None)
    @given(keys=st.lists(any_str_key, min_size=1, max_size=40))
    def test_count_sketch_str_keys(self, keys):
        for backend in COMPILED:
            ref, fast = make_pair(
                lambda **kw: CountSketch(width=32, depth=4, seed=2, **kw), backend
            )
            ref.update_batch(keys)
            fast.update_batch(keys)
            np.testing.assert_array_equal(ref._table, fast._table)
            np.testing.assert_array_equal(
                ref.estimate_batch(keys), fast.estimate_batch(keys)
            )

    @settings(max_examples=25, deadline=None)
    @given(keys=st.lists(any_int_key, min_size=1, max_size=50))
    def test_bloom_observe_first_occurrence(self, keys):
        for backend in COMPILED:
            ref, fast = make_pair(
                lambda **kw: BloomFilter(num_bits=64, num_hashes=3, seed=3, **kw),
                backend,
            )
            np.testing.assert_array_equal(
                ref.observe_batch(keys), fast.observe_batch(keys)
            )
            np.testing.assert_array_equal(ref._bits, fast._bits)


# ----------------------------------------------------------------------
# learned-scheme probe table: every backend against a dict reference
# ----------------------------------------------------------------------
int64_key = st.integers(min_value=-(2**63), max_value=2**63 - 1)
EXTREME_KEYS = [0, 1, -1, 2**63 - 1, -(2**63), 2**62, -(2**62)]


def build_table(stored, num_buckets, seed=0):
    stored = list(dict.fromkeys(stored))
    buckets = np.random.default_rng(seed).integers(0, num_buckets, size=len(stored))
    table = ProbeTable.build(np.array(stored, dtype=np.int64), buckets)
    return table, dict(zip(stored, buckets.tolist()))


def keys_homed_at(slot, capacity, count):
    """The first ``count`` non-negative integers whose home slot is ``slot``."""
    candidates = np.arange(64 * capacity * count, dtype=np.int64)
    homed = candidates[ProbeTable.home_slots(candidates, capacity) == slot]
    return homed[:count].tolist()


def assert_table_ops_match_dict(table, mapping, keys, counts, num_buckets):
    keys = np.array(keys, dtype=np.int64)
    counts = np.array(counts, dtype=np.int64)
    expected = np.array([mapping.get(key, -1) for key in keys.tolist()], dtype=np.int64)
    expected_totals = np.zeros(num_buckets)
    hit = expected >= 0
    np.add.at(expected_totals, expected[hit], counts[hit].astype(np.float64))
    for name in kernels.available_backends():
        backend = kernels.get_backend(name)
        np.testing.assert_array_equal(backend.opt_table_lookup(table, keys), expected)
        totals = np.zeros(num_buckets)
        backend.opt_table_ingest(totals, table, keys, counts)
        np.testing.assert_array_equal(totals, expected_totals)


class TestProbeTableIdentity:
    @settings(max_examples=60, deadline=None)
    @given(
        stored=st.lists(int64_key | st.sampled_from(EXTREME_KEYS), max_size=40),
        unseen=st.lists(int64_key | st.sampled_from(EXTREME_KEYS), max_size=30),
        data=st.data(),
    )
    def test_lookup_and_ingest(self, stored, unseen, data):
        table, mapping = build_table(stored, 7)
        assert np.count_nonzero(table.buckets >= 0) == len(mapping)
        pool = list(mapping) + unseen
        keys = data.draw(st.lists(st.sampled_from(pool), max_size=80)) if pool else []
        counts = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=10**6),
                min_size=len(keys),
                max_size=len(keys),
            )
        )
        assert_table_ops_match_dict(table, mapping, keys, counts, 7)

    @pytest.mark.parametrize("num_stored", [0, 1, 2, 3, 5, 31, 64])
    def test_sizes_repeats_and_empty_batches(self, num_stored):
        rng = np.random.default_rng(num_stored)
        stored = rng.integers(-(2**63), 2**63 - 1, size=num_stored, dtype=np.int64).tolist()
        table, mapping = build_table(stored, 5, seed=num_stored)
        assert table.capacity & (table.capacity - 1) == 0
        assert table.capacity >= 2 * len(mapping)
        keys = (stored * 3) + EXTREME_KEYS + rng.integers(-50, 50, size=40).tolist()
        keys = [keys[i] for i in rng.permutation(len(keys))]
        counts = rng.integers(0, 4, size=len(keys))
        assert_table_ops_match_dict(table, mapping, keys, counts, 5)
        assert_table_ops_match_dict(table, mapping, [], [], 5)

    def test_probe_chain_wraps_around(self):
        # Capacity 8 holds four keys.  Three homed on the last slot and one
        # on slot 0 fill slots 7, 0, 1, 2: the chain wraps past the end, and
        # misses homed on slot 7 or 0 walk it to the empty slot 3.
        on_last = keys_homed_at(7, 8, 5)
        on_first = keys_homed_at(0, 8, 3)
        table, mapping = build_table(on_last[:3] + on_first[:1], 3)
        assert table.capacity == 8 and table.max_probe == 4
        assert np.flatnonzero(table.buckets >= 0).tolist() == [0, 1, 2, 7]
        keys = (on_last + on_first) * 2
        counts = np.arange(1, len(keys) + 1)
        assert_table_ops_match_dict(table, mapping, keys, counts, 3)


# ----------------------------------------------------------------------
# CART descent: every backend against the NumPy op and ``_leaf_for``
# ----------------------------------------------------------------------
def fit_tree(num_samples=120, num_features=3, max_depth=None, seed=0):
    from repro.ml.tree import DecisionTreeClassifier

    rng = np.random.default_rng(seed)
    X = rng.normal(size=(num_samples, num_features)).round(1)
    y = rng.integers(0, 5, size=num_samples)
    return DecisionTreeClassifier(max_depth=max_depth, random_state=seed).fit(X, y)


def preorder(node):
    """The tree's nodes in the order ``_flatten`` numbers them."""
    if node.is_leaf:
        return [node]
    return [node] + preorder(node.left) + preorder(node.right)


def assert_leaves_match(tree, X):
    """Every backend's ``tree_leaves`` equals the NumPy op and ``_leaf_for``
    (which walks float64 rows, the op's comparison precision)."""
    index = {id(node): position for position, node in enumerate(preorder(tree._root))}
    rows = np.asarray(X, dtype=np.float64)
    expected = np.array([index[id(tree._leaf_for(row))] for row in rows], dtype=np.int64)
    arrays = (tree._feature, tree._threshold, tree._children)
    reference = kernels.get_backend("numpy").tree_leaves(*arrays, X)
    assert reference.dtype == np.int64
    np.testing.assert_array_equal(reference, expected)
    for name in kernels.available_backends():
        got = kernels.get_backend(name).tree_leaves(*arrays, X)
        assert got.dtype == np.int64 and got.shape == (rows.shape[0],)
        np.testing.assert_array_equal(got, reference)


def on_threshold_rows(tree, dtype=np.float64):
    """One row per split holding that split's threshold, zeros elsewhere."""
    splits = np.flatnonzero(tree._feature >= 0)
    rows = np.zeros((len(splits), tree._num_features), dtype=dtype)
    rows[np.arange(len(splits)), tree._feature[splits]] = tree._threshold[splits]
    return rows


class TestTreeLeavesIdentity:
    @settings(max_examples=40, deadline=None)
    @given(
        num_samples=st.integers(min_value=2, max_value=150),
        num_features=st.integers(min_value=1, max_value=4),
        max_depth=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_trees(self, num_samples, num_features, max_depth, seed):
        tree = fit_tree(num_samples, num_features, max_depth, seed)
        queries = np.random.default_rng(seed + 1).normal(size=(200, num_features))
        assert_leaves_match(tree, queries.round(1))
        assert_leaves_match(tree, queries)

    def test_rows_exactly_at_thresholds(self):
        tree = fit_tree(seed=3)
        rows = on_threshold_rows(tree)
        assert len(rows) > 5
        assert_leaves_match(tree, rows)
        # Nudged one ulp either side of each threshold.
        assert_leaves_match(tree, np.nextafter(rows, np.inf))
        assert_leaves_match(tree, np.nextafter(rows, -np.inf))

    def test_nan_and_infinite_features(self):
        tree = fit_tree(seed=5)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(300, 3))
        specials = np.array([np.nan, np.inf, -np.inf])
        mask = rng.random(rows.shape) < 0.3
        rows[mask] = rng.choice(specials, size=int(mask.sum()))
        assert_leaves_match(tree, rows)
        nan_leaves = kernels.get_backend().tree_leaves(
            tree._feature, tree._threshold, tree._children, np.full((1, 3), np.nan)
        )
        # NaN never satisfies <=, so an all-NaN row takes every right child.
        node = 0
        while tree._feature[node] >= 0:
            node = tree._children[node, 0]
        assert nan_leaves.tolist() == [node]

    def test_single_leaf_tree_and_zero_rows(self):
        from repro.ml.tree import DecisionTreeClassifier

        leaf = DecisionTreeClassifier().fit(np.array([[1.0], [2.0]]), np.array([4, 4]))
        assert leaf._feature.tolist() == [-1]
        assert_leaves_match(leaf, np.array([[0.0], [np.nan], [9.0]]))
        assert_leaves_match(leaf, np.zeros((0, 1)))
        assert_leaves_match(fit_tree(seed=1), np.zeros((0, 3)))

    def test_float32_fortran_and_strided_inputs(self):
        tree = fit_tree(seed=7)
        rows = np.random.default_rng(7).normal(size=(200, 3))
        # float32 values near the thresholds compare differently in float32
        # and float64; the op compares in float64.
        near = on_threshold_rows(tree, dtype=np.float32)
        assert_leaves_match(tree, near)
        assert_leaves_match(tree, rows.astype(np.float32))
        assert_leaves_match(tree, np.asfortranarray(rows))
        wide = np.random.default_rng(8).normal(size=(400, 7))
        assert_leaves_match(tree, wide[::2, 1::2])
        assert not wide[::2, 1::2].flags["C_CONTIGUOUS"]

    def test_forest_predict_proba_is_backend_independent(self, monkeypatch):
        from repro.ml.forest import RandomForestClassifier

        rng = np.random.default_rng(11)
        X = rng.normal(size=(300, 4))
        y = (X[:, 0] + X[:, 1] ** 2 > 0.5).astype(int) + (X[:, 2] > 1)
        forest = RandomForestClassifier(n_estimators=7, random_state=3).fit(X, y)
        queries = np.vstack([rng.normal(size=(500, 4)), np.full((2, 4), np.nan)])
        names = kernels.available_backends()
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "all-compiled")
        reference = forest.predict_proba(queries)
        assert kernels.default_backend() == "numpy"
        for name in names:
            others = [other for other in kernels.BACKEND_NAMES if other not in (name, "numpy")]
            monkeypatch.setenv("REPRO_KERNELS_DISABLE", ",".join(others))
            assert kernels.default_backend() == name
            assert forest.predict_proba(queries).tobytes() == reference.tobytes()


# ----------------------------------------------------------------------
# merge / serialization / storage / sharding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
class TestStateIdentity:
    def test_merge_matches_numpy(self, backend):
        def halves(be):
            a = CountMinSketch(width=128, depth=4, seed=21, backend=be)
            b = CountMinSketch(width=128, depth=4, seed=21, backend=be)
            a.update_batch(int_keys(seed=4))
            b.update_batch(int_keys(seed=5))
            return a.merge(b)

        np.testing.assert_array_equal(halves("numpy")._table, halves(backend)._table)

    def test_serialized_state_is_backend_independent(self, backend):
        """Modulo the recorded backend name, the wire bytes are identical."""
        from repro.sketches.serialization import unpack

        def blob(be):
            sketch = CountSketch(width=64, depth=3, seed=8, backend=be)
            sketch.update_batch(str_keys(800))
            return sketch.to_bytes()

        tag_a, state_a, arrays_a = unpack(blob("numpy"))
        tag_b, state_b, arrays_b = unpack(blob(backend))
        assert tag_a == tag_b
        assert state_a.pop("backend") == "numpy"
        assert state_b.pop("backend") == backend
        assert state_a == state_b
        assert sorted(arrays_a) == sorted(arrays_b)
        for name in arrays_a:
            np.testing.assert_array_equal(arrays_a[name], arrays_b[name])

    def test_roundtrip_preserves_backend(self, backend):
        sketch = CountMinSketch(width=64, depth=3, seed=2, backend=backend)
        sketch.update_batch(int_keys(1000))
        twin = CountMinSketch.from_bytes(sketch.to_bytes())
        assert twin.backend == backend
        assert twin.kernel_backend == backend
        np.testing.assert_array_equal(sketch._table, twin._table)

    def test_auto_backend_not_serialized(self, backend):
        from repro.sketches.serialization import unpack

        sketch = CountMinSketch(width=8, depth=2, seed=1)  # backend="auto"
        _, state, _ = unpack(sketch.to_bytes())
        assert "backend" not in state

    @pytest.mark.parametrize("storage", ("shm", "mmap"))
    def test_storage_backends_identical(self, backend, storage, tmp_path):
        def factory(**kw):
            extra = {"storage_path": str(tmp_path / f"{kw['backend']}.bin")}
            if storage != "mmap":
                extra = {}
            return CountMinSketch(
                width=128, depth=3, seed=6, storage=storage, **extra, **kw
            )

        ref, fast = make_pair(factory, backend)
        try:
            keys = int_keys(2000)
            ref.update_batch(keys)
            fast.update_batch(keys)
            np.testing.assert_array_equal(
                np.asarray(ref._table), np.asarray(fast._table)
            )
        finally:
            for sketch in (ref, fast):
                close = getattr(sketch, "close", None)
                if close is not None:
                    close()

    @pytest.mark.parametrize("executor", ("serial", "thread"))
    def test_sharded_identical(self, backend, executor):
        def build(be):
            spec = repro.ShardedSpec(
                repro.SketchSpec(
                    "count_min", width=64, depth=3, seed=9, backend=be
                ),
                num_shards=3,
                executor=executor,
            )
            est = repro.build(spec)
            est.update_batch(int_keys(2000))
            return est

        ref, fast = build("numpy"), build(backend)
        try:
            assert fast.kernel_backend == backend
            keys = probe(int_keys(2000))
            np.testing.assert_array_equal(
                ref.estimate_batch(keys), fast.estimate_batch(keys)
            )
        finally:
            ref.close()
            fast.close()

    def test_session_snapshot_roundtrip(self, backend):
        spec = {"kind": "count_min", "width": 64, "depth": 3, "seed": 4}
        with repro.open(spec, options=repro.Options(backend=backend)) as session:
            session.ingest(int_keys(1500))
            blob = session.snapshot()
            reference = session.estimate(probe(int_keys(1500)))
        twin = repro.restore(blob)
        assert twin.describe()["kernel_backend"] == backend
        np.testing.assert_array_equal(
            reference, twin.estimate(probe(int_keys(1500)))
        )


# ----------------------------------------------------------------------
# fallback: restoring a compiled-backend snapshot without the compiled path
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", compiled_params())
class TestRestoreFallback:
    def test_restore_without_compiled_backend_warns_and_matches(
        self, backend, monkeypatch
    ):
        sketch = CountMinSketch(width=64, depth=3, seed=12, backend=backend)
        sketch.update_batch(int_keys(1200))
        blob = sketch.to_bytes()
        reference = sketch.estimate_batch(probe(int_keys(1200)))

        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "all-compiled")
        with pytest.warns(RuntimeWarning, match="falling back"):
            twin = CountMinSketch.from_bytes(blob)
        assert twin.kernel_backend == "numpy"
        assert twin.backend == backend  # the pin survives for re-serialization
        np.testing.assert_array_equal(sketch._table, twin._table)
        np.testing.assert_array_equal(
            reference, twin.estimate_batch(probe(int_keys(1200)))
        )

    def test_explicit_construction_still_raises(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "all-compiled")
        with pytest.raises(KernelError, match="unavailable"):
            CountMinSketch(width=8, depth=2, seed=1, backend=backend)

    def test_auto_degrades_silently(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_KERNELS_DISABLE", "all-compiled")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sketch = CountMinSketch(width=8, depth=2, seed=1, backend="auto")
        assert sketch.kernel_backend == "numpy"


# ----------------------------------------------------------------------
# retired backend names: restore on auto, refuse construction
# ----------------------------------------------------------------------
def as_retired(blob):
    """A ``backend="numpy"`` buffer rewritten to record ``"numba"``."""
    assert blob.count(b'"numpy"') >= 1
    return blob.replace(b'"numpy"', b'"numba"')


def restore_warning_once(restore, blob):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        restored = restore(blob)
    assert [w.category for w in caught] == [RuntimeWarning]
    assert "removed" in str(caught[0].message)
    # Attributed to the caller's frame, not to a frame inside repro.
    assert caught[0].filename == __file__
    return restored


class TestRetiredBackend:
    def test_retired_names_are_not_backends(self):
        assert kernels.RETIRED_BACKENDS == ("numba",)
        assert "numba" not in kernels.BACKEND_NAMES
        assert not kernels.backend_available("numba")
        assert "numba" not in kernels.available_backends()

    def test_sketch_buffer_restores_on_auto(self):
        sketch = CountMinSketch(width=64, depth=3, seed=12, backend="numpy")
        sketch.update_batch(int_keys(1200))
        reference = sketch.estimate_batch(probe(int_keys(1200)))
        for restore in (CountMinSketch.from_bytes, loads):
            twin = restore_warning_once(restore, as_retired(sketch.to_bytes()))
            assert twin.backend == "numba"  # the pin survives for re-serialization
            assert twin.kernel_backend == kernels.default_backend()
            np.testing.assert_array_equal(sketch._table, twin._table)
            np.testing.assert_array_equal(
                reference, twin.estimate_batch(probe(int_keys(1200)))
            )

    def test_session_snapshot_restores_on_auto(self):
        spec = {"kind": "count_min", "width": 64, "depth": 3, "seed": 4}
        with repro.open(spec, options=repro.Options(backend="numpy")) as session:
            session.ingest(int_keys(1500))
            blob = session.snapshot()
            table = session.estimator._table.copy()
            reference = session.estimate(probe(int_keys(1500)))
        twin = restore_warning_once(repro.restore, as_retired(blob))
        assert twin.describe()["spec"]["backend"] == "numba"
        assert twin.describe()["kernel_backend"] == kernels.default_backend()
        np.testing.assert_array_equal(table, twin.estimator._table)
        np.testing.assert_array_equal(
            reference, twin.estimate(probe(int_keys(1500)))
        )

    def test_construction_raises(self):
        with pytest.raises(KernelError, match="removed"):
            CountMinSketch(width=8, depth=2, seed=1, backend="numba")
        with pytest.raises(KernelError, match="removed"):
            repro.open({"kind": "count_min", "width": 8, "backend": "numba"})

    def test_service_cli_rejects_retired_name(self, capsys):
        from repro.service.__main__ import main

        with pytest.raises(SystemExit) as exit_info:
            main(["--backend", "numba"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "numba" in err


# ----------------------------------------------------------------------
# dispatch API surface
# ----------------------------------------------------------------------
class TestDispatchApi:
    def test_numpy_always_available(self):
        assert kernels.backend_available("numpy")
        assert kernels.get_backend("numpy").name == "numpy"
        assert kernels.resolve_backend("auto") in kernels.BACKEND_NAMES

    def test_unknown_backend_rejected(self):
        with pytest.raises(KernelError, match="unknown"):
            kernels.resolve_backend("fortran")
        with pytest.raises(repro.SpecError):
            repro.SketchSpec("count_min", width=8, depth=2, backend="fortran").validate()

    def test_spec_with_backend_drills_through_wrappers(self):
        spec = repro.ShardedSpec(
            repro.SketchSpec("count_min", width=16, depth=2, seed=1),
            num_shards=2,
        )
        pinned = repro.api.spec_with_backend(spec, "numpy")
        assert pinned.inner.params["backend"] == "numpy"

    def test_spec_with_backend_rejects_nonkernel_kinds(self):
        with pytest.raises(repro.SpecError, match="backend"):
            repro.api.spec_with_backend(repro.SketchSpec("exact_counter"), "numpy")

    def test_describe_reports_resolved_backend(self):
        sketch = CountMinSketch(width=8, depth=2, seed=1, backend="numpy")
        info = sketch.describe()
        assert info["kernel_backend"] == "numpy"
        assert info["storage_backend"] == "dense"
        assert info["params"]["backend"] == "numpy"
