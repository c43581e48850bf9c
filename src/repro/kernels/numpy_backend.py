"""The pure-NumPy reference kernels.

This is the hot-path code the sketches carried from PR 1 through PR 8,
relocated behind the :mod:`repro.kernels` dispatch surface — same
``hash_batch`` / ``sign_batch`` calls, same ``np.add.at`` scatters, same
per-thread position scratch.  It is the bit-identity baseline: every other
backend must reproduce these results exactly, and the fallback every
machine can run.

Op contract (shared by all backends; ``plan`` is a
:class:`~repro.kernels.plan.KernelPlan`, ``keys`` an already-normalized key
batch from ``as_key_batch``):

* ``cms_ingest(table, plan, keys, counts, conservative)`` — Count-Min
  scatter-add (order-replaying min/max logic when ``conservative``).
* ``cms_query(table, plan, keys)`` — min-over-levels gather, float64.
* ``cs_ingest(table, plan, keys, counts)`` — Count-Sketch signed scatter.
* ``cs_query(table, plan, keys)`` — median-over-levels of signed gathers.
* ``ams_ingest(counters, plan, keys, counts)`` — per-estimator signed sums.
* ``bloom_add / bloom_contains / bloom_observe(bits, plan, keys)`` — bit
  sets, vectorized membership, and in-order first-occurrence marking.
* ``opt_table_lookup(table, keys)`` — each ``int64`` key's bucket in a
  :class:`~repro.kernels.probe_table.ProbeTable`, ``-1`` on a miss.
* ``opt_table_ingest(totals, table, keys, counts)`` — scatter-add the counts
  of hit keys into the float64 ``totals``, in arrival order; misses are
  ignored.
* ``tree_leaves(feature, threshold, children, X)`` — the ``int64`` leaf
  index of every row of ``X`` in a flattened CART tree (``feature`` -1 at
  leaves, ``children[node, went_left]``), descending with the float64
  ``X[row, feature] <= threshold`` test, so NaN features go right.

The ``opt_table`` ops take a contiguous ``int64`` key array (the caller
converts); every other op takes any normalized key batch.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.probe_table import ProbeTable

__all__ = ["NumpyBackend"]


class NumpyBackend:
    """Reference implementation; always available."""

    name = "numpy"
    compiled = False

    # ------------------------------------------------------------------
    # shared position computation
    # ------------------------------------------------------------------
    def _positions(self, plan, keys) -> np.ndarray:
        """Per-level bucket positions as a (depth, n) scratch-backed view."""
        out = plan.position_scratch(len(keys))
        for level, h in enumerate(plan.hashes):
            out[level] = h.hash_batch(keys)
        return out

    # ------------------------------------------------------------------
    # Count-Min
    # ------------------------------------------------------------------
    def cms_ingest(self, table, plan, keys, counts, conservative: bool) -> None:
        positions = self._positions(plan, keys)
        if not conservative:
            for level in range(plan.depth):
                np.add.at(table[level], positions[level], counts)
            return
        levels = plan.levels
        for index in range(positions.shape[1]):
            count = counts[index]
            if count == 0:
                continue
            column = positions[:, index]
            current = table[levels, column]
            # Raising every counter to min+count equals `count` consecutive
            # conservative +1 updates of the same key.
            table[levels, column] = np.maximum(current, current.min() + count)

    def cms_query(self, table, plan, keys) -> np.ndarray:
        positions = self._positions(plan, keys)
        gathered = table[plan.levels_col, positions]
        return gathered.min(axis=0).astype(np.float64)

    # ------------------------------------------------------------------
    # Count Sketch
    # ------------------------------------------------------------------
    def cs_ingest(self, table, plan, keys, counts) -> None:
        for level, h in enumerate(plan.hashes):
            np.add.at(
                table[level],
                h.hash_batch(keys),
                h.sign_batch(keys) * counts,
            )

    def cs_query(self, table, plan, keys) -> np.ndarray:
        signed = np.stack(
            [
                h.sign_batch(keys) * table[level, h.hash_batch(keys)]
                for level, h in enumerate(plan.hashes)
            ]
        )
        return np.median(signed, axis=0)

    # ------------------------------------------------------------------
    # AMS
    # ------------------------------------------------------------------
    def ams_ingest(self, counters, plan, keys, counts) -> None:
        for index, h in enumerate(plan.hashes):
            counters[index] += int(np.dot(h.sign_batch(keys), counts))

    # ------------------------------------------------------------------
    # Bloom filter
    # ------------------------------------------------------------------
    def _bloom_positions(self, plan, keys) -> np.ndarray:
        return np.stack([h.hash_batch(keys) for h in plan.hashes])

    def bloom_add(self, bits, plan, keys) -> None:
        positions = self._bloom_positions(plan, keys)
        if positions.shape[1] == 0:
            return
        bits[positions.ravel()] = True

    def bloom_contains(self, bits, plan, keys) -> np.ndarray:
        positions = self._bloom_positions(plan, keys)
        if positions.shape[1] == 0:
            return np.zeros(0, dtype=bool)
        return bits[positions].all(axis=0)

    def bloom_observe(self, bits, plan, keys) -> np.ndarray:
        """In-order first-occurrence marking; True where the key was new."""
        positions = self._bloom_positions(plan, keys)
        n = positions.shape[1]
        new_flags = np.zeros(n, dtype=bool)
        for index in range(n):
            column = positions[:, index]
            if not bits[column].all():
                bits[column] = True
                new_flags[index] = True
        return new_flags

    # ------------------------------------------------------------------
    # learned-scheme probe table
    # ------------------------------------------------------------------
    def opt_table_lookup(self, table, keys) -> np.ndarray:
        """At most ``max_probe`` vectorized probe rounds over the batch.

        Each round gathers the current slot of every key still searching;
        a key stops on a full-key match (hit) or an empty slot (miss), the
        rest move one slot on.
        """
        out = np.full(keys.shape[0], -1, dtype=np.int64)
        mask = table.capacity - 1
        pending = np.arange(keys.shape[0])
        slots = ProbeTable.home_slots(keys, table.capacity)
        for _ in range(table.max_probe):
            found = table.buckets[slots]
            hit = (table.keys[slots] == keys[pending]) & (found >= 0)
            out[pending[hit]] = found[hit]
            searching = ~hit & (found >= 0)
            pending = pending[searching]
            if pending.size == 0:
                break
            slots = (slots[searching] + 1) & mask
        return out

    def opt_table_ingest(self, totals, table, keys, counts) -> None:
        buckets = self.opt_table_lookup(table, keys)
        hit = buckets >= 0
        np.add.at(totals, buckets[hit], counts[hit].astype(np.float64))

    # ------------------------------------------------------------------
    # CART descent
    # ------------------------------------------------------------------
    def tree_leaves(self, feature, threshold, children, X) -> np.ndarray:
        """Leaf index of every row: all rows descend one level per step."""
        leaves = np.zeros(X.shape[0], dtype=np.int64)
        rows = np.arange(X.shape[0])
        while rows.size:
            nodes = leaves[rows]
            split = feature[nodes]
            inner = split >= 0
            rows, nodes, split = rows[inner], nodes[inner], split[inner]
            went_left = X[rows, split] <= threshold[nodes]
            leaves[rows] = children[nodes, went_left.view(np.int8)]
        return leaves
