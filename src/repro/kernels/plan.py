"""Per-sketch kernel plans: packed hash parameters + prepared key batches.

A :class:`KernelPlan` is the bridge between a sketch's drawn hash functions
(:class:`~repro.sketches.hashing.UniversalHash` /
:class:`~repro.sketches.hashing.TabulationHash` objects) and the flat arrays
a compiled kernel consumes:

* the NumPy reference backend uses :attr:`KernelPlan.hashes` directly — its
  code is the pre-kernels sketch code, moved, so bit-identity with history
  is by construction;
* the native backend uses :meth:`KernelPlan.packed` — per-level
  Carter–Wegman coefficients (``a``, ``b``, ``seeds``) or stacked
  tabulation tables — plus a :class:`PreparedKeys` view of the key batch.

Key preparation mirrors the dispatch of
:func:`repro.sketches.hashing.fingerprint64_batch` exactly: integer batches
travel as raw ``uint64`` (two's-complement masked) and are fingerprinted
*inside* the fused kernel; string/object batches are fingerprinted here with
the existing column-parallel FNV-1a (one ``(depth, n)`` matrix per seed set)
because the bytes of a Python ``repr`` cannot cross into C cheaply; mixed
batches fall back to the NumPy backend for that one call.  Every path
produces bit-identical hash values.
"""

from __future__ import annotations

import threading
from typing import List, Optional

import numpy as np

__all__ = ["KernelPlan", "PreparedKeys", "SIGN_XOR"]

_MASK64 = (1 << 64) - 1

#: Scheme-specific XOR applied to a level's seed to derive its sign seed
#: (see ``UniversalHash.sign`` / ``TabulationHash.sign``).
SIGN_XOR = {"universal": 0x5A5A5A5A, "tabulation": 0x3C3C3C3C}


class PreparedKeys:
    """One normalized key batch, ready for a compiled kernel.

    ``mode`` is ``"ints"`` (raw uint64 keys, fingerprint in-kernel),
    ``"repr"`` (per-level fingerprint matrices computed host-side), or
    ``None`` — a mixed int/non-int batch the compiled backends refuse and
    route to the NumPy reference implementation instead.
    """

    __slots__ = ("plan", "mode", "n", "int_keys", "key_list", "_fps_cache")

    def __init__(self, plan: "KernelPlan", keys) -> None:
        self.plan = plan
        self.int_keys: Optional[np.ndarray] = None
        self.key_list: Optional[list] = None
        self._fps_cache = {}
        if isinstance(keys, np.ndarray) and keys.ndim == 1 and keys.dtype.kind in "iu":
            self.mode: Optional[str] = "ints"
            self.n = keys.shape[0]
            # Two's-complement wrap of signed dtypes matches int(key) & MASK64.
            self.int_keys = np.ascontiguousarray(
                keys.view(np.uint64)
                if keys.dtype == np.int64
                else keys.astype(np.uint64)
            )
            return
        from repro.sketches.hashing import _is_int_key

        key_list = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
        self.n = len(key_list)
        int_flags = [_is_int_key(key) for key in key_list]
        if self.n and all(int_flags):
            self.mode = "ints"
            self.int_keys = np.fromiter(
                ((int(key) & _MASK64) for key in key_list), np.uint64, self.n
            )
        elif not any(int_flags):
            self.mode = "repr"
            self.key_list = key_list
        else:
            self.mode = None  # mixed batch: NumPy fallback

    def fps(self, *, sign: bool = False) -> np.ndarray:
        """The ``(depth, n)`` per-level fingerprint matrix (``repr`` mode).

        ``sign=True`` fingerprints with the scheme's sign-seed XOR applied,
        as the scalar ``sign()`` paths do.  Matrices are cached per batch so
        an ingest that needs both position and sign fingerprints pays the
        FNV pass once per seed set.
        """
        if sign in self._fps_cache:
            return self._fps_cache[sign]
        from repro.sketches.hashing import _fingerprint_repr_batch

        plan = self.plan
        xor = SIGN_XOR[plan.scheme] if sign else 0
        matrix = np.empty((plan.depth, self.n), dtype=np.uint64)
        for level, seed in enumerate(plan.seed_list):
            matrix[level] = _fingerprint_repr_batch(self.key_list, seed ^ xor)
        self._fps_cache[sign] = matrix
        return matrix


class KernelPlan:
    """Packed hash-function state for one sketch instance.

    Built once at sketch construction/rehydration (the hash functions never
    change afterwards) and shared by every batch call.  Also owns the
    per-thread position scratch the NumPy reference kernels reuse between
    calls (the PR 4 micro-optimization, relocated here with the code).
    """

    __slots__ = (
        "hashes",
        "scheme",
        "depth",
        "output_range",
        "seed_list",
        "levels",
        "levels_col",
        "_scratch",
        "_packed",
    )

    def __init__(self, hashes: List, scheme: str) -> None:
        if scheme not in SIGN_XOR:
            raise ValueError(f"unknown hash scheme {scheme!r}")
        self.hashes = list(hashes)
        self.scheme = scheme
        self.depth = len(self.hashes)
        self.output_range = int(self.hashes[0].output_range) if self.hashes else 1
        self.seed_list = [int(h._seed) for h in self.hashes]
        self.levels = np.arange(self.depth)
        self.levels_col = self.levels[:, None]
        self._scratch = threading.local()
        self._packed = None

    # ------------------------------------------------------------------
    # compiled-backend views
    # ------------------------------------------------------------------
    def packed(self) -> dict:
        """Per-level parameters as contiguous uint64 arrays.

        ``{"seeds": (d,), "a": (d,), "b": (d,)}`` for the universal scheme;
        ``{"seeds": (d,), "tables": (d, 8, 256)}`` for tabulation.
        """
        if self._packed is None:
            seeds = np.asarray(self.seed_list, dtype=np.uint64)
            if self.scheme == "universal":
                self._packed = {
                    "seeds": seeds,
                    "a": np.asarray([h._a for h in self.hashes], dtype=np.uint64),
                    "b": np.asarray([h._b for h in self.hashes], dtype=np.uint64),
                }
            else:
                # Table entries are drawn in [0, 2^63) so the int64 → uint64
                # reinterpretation below is value-preserving.
                stacked = np.stack([h._tables for h in self.hashes])
                self._packed = {
                    "seeds": seeds,
                    "tables": np.ascontiguousarray(stacked.astype(np.uint64)),
                }
        return self._packed

    def prepare(self, keys) -> PreparedKeys:
        """Normalize a key batch for a compiled kernel (see PreparedKeys)."""
        return PreparedKeys(self, keys)

    # ------------------------------------------------------------------
    # NumPy-backend scratch (relocated from CountMinSketch._positions)
    # ------------------------------------------------------------------
    def position_scratch(self, n: int) -> np.ndarray:
        """A ``(depth, n)`` int64 view into a per-thread growable buffer.

        Each thread's view is consumed before its next call, so reuse is
        safe; growth is geometric to amortize reallocation.
        """
        scratch = self._scratch
        buffer = getattr(scratch, "buffer", None)
        if buffer is None or buffer.shape[1] < n:
            grown = n if buffer is None else max(n, 2 * buffer.shape[1])
            buffer = np.empty((self.depth, grown), dtype=np.int64)
            scratch.buffer = buffer
        return buffer[:, :n]
