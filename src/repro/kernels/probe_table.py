"""Array-backed exact key → bucket table for the learned scheme's ``h_S``.

An open-addressing, linear-probe hash table over ``int64`` keys, laid out as
two flat arrays so a kernel backend can probe a whole key batch without a
Python ``dict`` lookup per key:

* ``keys[s]`` — the key stored in slot ``s`` (0 in empty slots);
* ``buckets[s]`` — its bucket, or ``-1`` when the slot is empty.

A key's home slot is its splitmix64 fingerprint (seed 0, the integer path of
:func:`repro.sketches.hashing.fingerprint64`) masked to the power-of-two
capacity; collisions continue to the next slot, wrapping around.  Lookups
compare full ``int64`` keys, so a fingerprint collision never produces a
false hit, and stop at the first empty slot or after ``max_probe`` slots —
the longest probe sequence any stored key needed — whichever comes first.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.sketches.hashing import fingerprint64_batch

__all__ = ["ProbeTable", "int64_keys"]


@dataclass(frozen=True)
class ProbeTable:
    """The probe arrays; build with :meth:`ProbeTable.build`."""

    keys: np.ndarray
    buckets: np.ndarray
    max_probe: int

    @property
    def capacity(self) -> int:
        return int(self.keys.shape[0])

    @staticmethod
    def home_slots(keys: np.ndarray, capacity: int) -> np.ndarray:
        """Home slot of every ``int64`` key for a power-of-two ``capacity``."""
        return (fingerprint64_batch(keys) & np.uint64(capacity - 1)).astype(np.intp)

    @classmethod
    def build(cls, keys, buckets) -> "ProbeTable":
        """Lay out distinct ``int64`` keys and their non-negative buckets.

        The capacity is the smallest power of two ≥ ``2 * len(keys)`` (at
        least 1).  Insertion runs in rounds: every key still unplaced tries
        its next probe slot, and of several keys claiming the same empty slot
        the earliest in ``keys`` wins.  Slots are never freed, so each stored
        key's probe path is fully occupied — the linear-probe invariant.
        """
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        buckets = np.ascontiguousarray(buckets, dtype=np.int64)
        n = keys.shape[0]
        capacity = 1 << (2 * n - 1).bit_length() if n else 1
        table_keys = np.zeros(capacity, dtype=np.int64)
        table_buckets = np.full(capacity, -1, dtype=np.int64)
        pending = np.arange(n)
        slots = cls.home_slots(keys, capacity)
        max_probe = 0
        while pending.size:
            max_probe += 1
            free = table_buckets[slots] < 0
            # First claimant (lowest index in `keys`) of each free slot wins.
            _, first = np.unique(slots[free], return_index=True)
            winners = np.flatnonzero(free)[first]
            table_keys[slots[winners]] = keys[pending[winners]]
            table_buckets[slots[winners]] = buckets[pending[winners]]
            placed = np.zeros(pending.size, dtype=bool)
            placed[winners] = True
            pending = pending[~placed]
            slots = (slots[~placed] + 1) & (capacity - 1)
        return cls(keys=table_keys, buckets=table_buckets, max_probe=max_probe)


_INT64_MAX = np.iinfo(np.int64).max


def int64_keys(keys):
    """``keys`` as a contiguous ``int64`` array, or None if it is not one.

    Accepts 1-D signed or unsigned integer ndarrays whose values all fit in
    ``int64``; anything else (lists, object/float/bool arrays, ``uint64``
    values above ``2**63 - 1``) returns None so the caller keeps its
    general path.
    """
    if not isinstance(keys, np.ndarray) or keys.ndim != 1:
        return None
    kind = keys.dtype.kind
    if kind not in "iu":
        return None
    if kind == "u" and keys.dtype.itemsize == 8 and keys.size and keys.max() > _INT64_MAX:
        return None
    return np.ascontiguousarray(keys, dtype=np.int64)
