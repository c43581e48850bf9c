"""The learned hashing scheme: exact hash table + classifier (paper Section 5).

After the optimization phase every prefix element has an integer hash code
(its bucket).  The scheme that replaces a random hash function therefore has
two parts:

* ``h_S`` — an exact mapping from the IDs of elements seen in the prefix to
  their learned bucket (a plain hash table, mirrored as a linear-probe
  array table when every ID is an integer);
* ``h_U`` — a multi-class classifier over element features that predicts a
  bucket for elements *not* seen in the prefix.

:class:`OptHashScheme` packages the two together with the featurizer used to
turn elements into classifier inputs.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional, Sequence

import numpy as np

from repro.kernels import get_backend
from repro.kernels.probe_table import ProbeTable, int64_keys
from repro.ml.base import Classifier
from repro.sketches.hashing import _is_int_key
from repro.streams.stream import Element

__all__ = ["OptHashScheme", "default_featurizer"]


def default_featurizer(element: Element) -> np.ndarray:
    """Use the element's own feature vector as classifier input."""
    return element.feature_array()


def _probe_table_for(key_to_bucket: Dict[Hashable, int]) -> Optional[ProbeTable]:
    """The array form of ``h_S``, or None unless every key is an int64 int.

    Keys that are bools, floats, strings, or integers outside ``int64`` keep
    the table dict-only: a dict matches ``True``/``1.0`` against ``1``, an
    ``int64`` comparison would not.
    """
    low, high = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    if not all(_is_int_key(key) and low <= key <= high for key in key_to_bucket):
        return None
    return ProbeTable.build(
        np.fromiter((int(key) for key in key_to_bucket), np.int64, len(key_to_bucket)),
        np.fromiter(key_to_bucket.values(), np.int64, len(key_to_bucket)),
    )


class OptHashScheme:
    """Learned mapping of elements to buckets.

    ``key_to_bucket`` is the source of truth for ``h_S`` and is immutable
    after construction.  When every stored key is a (non-bool) integer that
    fits in ``int64``, the constructor also lays the table out as a
    :class:`~repro.kernels.probe_table.ProbeTable` — open addressing with
    linear probing, home slot from the splitmix64 fingerprint, full-key
    comparison — which :meth:`buckets_batch` and the estimators' ingest
    probe through the ``opt_table_*`` kernel ops instead of one dict lookup
    per key (:attr:`probe_table` is None otherwise).

    Parameters
    ----------
    num_buckets:
        Number of buckets ``b`` of the scheme.
    key_to_bucket:
        The exact hash table ``h_S`` for elements seen in the prefix.
    classifier:
        Fitted multi-class classifier ``h_U`` predicting buckets from
        features; ``None`` means unseen elements cannot be routed (they fall
        back to bucket 0).
    featurizer:
        Callable mapping an :class:`Element` to the classifier's input
        vector.  Defaults to the element's own features.
    """

    def __init__(
        self,
        num_buckets: int,
        key_to_bucket: Dict[Hashable, int],
        classifier: Optional[Classifier] = None,
        featurizer: Optional[Callable[[Element], np.ndarray]] = None,
    ) -> None:
        if num_buckets <= 0:
            raise ValueError("num_buckets must be positive")
        for key, bucket in key_to_bucket.items():
            if not 0 <= bucket < num_buckets:
                raise ValueError(
                    f"bucket {bucket} of key {key!r} outside [0, {num_buckets})"
                )
        self.num_buckets = num_buckets
        self.key_to_bucket = dict(key_to_bucket)
        self.probe_table = _probe_table_for(self.key_to_bucket)
        self.classifier = classifier
        self.featurizer = featurizer or default_featurizer
        # Classifier predictions are deterministic per key, so they are cached
        # to keep repeated queries (and the adaptive estimator's updates) fast.
        self._prediction_cache: Dict[Hashable, int] = {}

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def is_seen(self, element: Element) -> bool:
        """Was this element part of the training prefix?"""
        return element.key in self.key_to_bucket

    def bucket_of(self, element: Element) -> int:
        """Bucket of an element: hash table if seen, classifier otherwise."""
        bucket = self.key_to_bucket.get(element.key)
        if bucket is not None:
            return bucket
        return self.predict_bucket(element)

    def predict_bucket(self, element: Element) -> int:
        """Bucket predicted by the classifier (ignoring the hash table)."""
        if self.classifier is None:
            return 0
        cached = self._prediction_cache.get(element.key)
        if cached is not None:
            return cached
        features = np.asarray(self.featurizer(element), dtype=float).reshape(1, -1)
        bucket = int(self.classifier.predict(features)[0])
        self._prediction_cache[element.key] = bucket
        return bucket

    def predict_buckets(self, elements: Sequence[Element]) -> np.ndarray:
        """Vectorized classifier prediction for many elements (fills the cache)."""
        if self.classifier is None:
            return np.zeros(len(elements), dtype=int)
        if len(elements) == 0:
            return np.zeros(0, dtype=int)
        features = np.array([self.featurizer(element) for element in elements], dtype=float)
        buckets = np.asarray(self.classifier.predict(features), dtype=int)
        self._prediction_cache.update(
            zip([element.key for element in elements], buckets.tolist())
        )
        return buckets

    def buckets_batch(self, elements: Sequence[Element], kernel=None) -> np.ndarray:
        """Vectorized :meth:`bucket_of` over many elements.

        Unseen, uncached elements are classified in one batched ``predict``
        call; the rest resolve through the exact hash table / prediction
        cache.  Accepts raw keys as well as elements (raw keys only work
        when the featurizer needs nothing beyond the key, e.g. with the
        exact table or a key-based featurizer).

        An integer key array against an integer table takes the array path:
        one ``opt_table_lookup`` on ``kernel`` (a :mod:`repro.kernels`
        backend; the ``auto`` one by default), then the classifier or cache
        for the distinct missed keys only.
        """
        int_keys = int64_keys(elements) if self.probe_table is not None else None
        if int_keys is not None:
            return self._int_buckets(int_keys, kernel or get_backend())
        items = list(elements)
        if items and not isinstance(items[0], Element):
            items = [Element(key=key) for key in items]
        self.precompute(items)
        table = self.key_to_bucket
        cache = self._prediction_cache
        return np.fromiter(
            (
                table[element.key]
                if element.key in table
                else cache.get(element.key, 0)
                for element in items
            ),
            dtype=np.int64,
            count=len(items),
        )

    def _int_buckets(self, keys: np.ndarray, kernel) -> np.ndarray:
        buckets = kernel.opt_table_lookup(self.probe_table, keys)
        missed = np.flatnonzero(buckets < 0)
        if missed.size == 0:
            return buckets
        if self.classifier is None:
            buckets[missed] = 0
            return buckets
        distinct, inverse = np.unique(keys[missed], return_inverse=True)
        distinct_keys = distinct.tolist()
        cache = self._prediction_cache
        uncached = [key for key in distinct_keys if key not in cache]
        if uncached:
            self.predict_buckets([Element(key=key) for key in uncached])
        resolved = np.fromiter(
            (cache[key] for key in distinct_keys), np.int64, len(distinct_keys)
        )
        buckets[missed] = resolved[inverse.reshape(-1)]
        return buckets

    def precompute(self, elements: Sequence[Element]) -> None:
        """Batch-predict and cache buckets for many (unseen) elements.

        The evaluation harness calls this before issuing a large batch of
        point queries so the classifier runs once instead of per query.
        """
        pending = [
            element
            for element in elements
            if element.key not in self.key_to_bucket
            and element.key not in self._prediction_cache
        ]
        if pending:
            self.predict_buckets(pending)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def num_stored_ids(self) -> int:
        """Number of element IDs stored in the exact hash table."""
        return len(self.key_to_bucket)

    def hash_codes(self) -> Dict[Hashable, int]:
        """A copy of the exact hash table (key → bucket)."""
        return dict(self.key_to_bucket)

    def bucket_population(self) -> np.ndarray:
        """Number of stored (prefix) elements per bucket."""
        population = np.zeros(self.num_buckets, dtype=int)
        for bucket in self.key_to_bucket.values():
            population[bucket] += 1
        return population
