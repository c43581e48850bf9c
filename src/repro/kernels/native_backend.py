"""ctypes backend: ``_native.c`` compiled on demand with the system cc.

No build step, no ``Python.h``: the first process to request the backend
compiles ``_native.c`` with whatever C compiler the machine has
(``cc``/``gcc``/``clang``), caches the shared library under a content-hash
name, and every later process dlopens the cached artifact.  Machines without
a compiler simply fail the load, which :func:`repro.kernels.resolve_backend`
reports as "backend unavailable" — ``auto`` then falls back to NumPy.

The cache lives in ``$REPRO_KERNELS_CACHE`` (default
``~/.cache/repro-kernels``).  Artifacts are written to a unique temp name
and atomically renamed, so concurrent builds (pytest-xdist workers, shm
shard workers) race benignly.

Batches the fused kernels cannot represent — mixed int/str key batches,
non-C-contiguous tables — are delegated per call to the NumPy reference
backend, preserving bit-identity rather than guessing.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import KernelError
from repro.kernels.numpy_backend import NumpyBackend

__all__ = ["NativeBackend"]

_SOURCE = Path(__file__).with_name("_native.c")
_COMPILERS = ("cc", "gcc", "clang")
_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c99", "-fwrapv"]

_SCHEME_CODES = {"universal": 0, "tabulation": 1}

_void_p = ctypes.c_void_p
_i64 = ctypes.c_int64
_int = ctypes.c_int

# scheme, a, b, tables, seeds, key_mode, keys, fps, sign_fps, n
_CTX_ARGTYPES = [_int, _void_p, _void_p, _void_p, _void_p, _int, _void_p, _void_p, _void_p, _i64]

_PROTOTYPES = {
    "repro_cms_ingest": [_void_p, _i64, _i64] + _CTX_ARGTYPES + [_void_p, _int],
    "repro_cms_query": [_void_p, _i64, _i64] + _CTX_ARGTYPES + [_void_p],
    "repro_cs_ingest": [_void_p, _i64, _i64] + _CTX_ARGTYPES + [_void_p],
    "repro_cs_query": [_void_p, _i64, _i64] + _CTX_ARGTYPES + [_void_p],
    "repro_ams_ingest": [_void_p, _i64] + _CTX_ARGTYPES + [_void_p],
    "repro_bloom_add": [_void_p, _i64, _i64] + _CTX_ARGTYPES,
    "repro_bloom_contains": [_void_p, _i64, _i64] + _CTX_ARGTYPES + [_void_p],
    "repro_bloom_observe": [_void_p, _i64, _i64] + _CTX_ARGTYPES + [_void_p],
    # table keys, table buckets, capacity, max_probe, keys, n, out
    "repro_opt_table_lookup": [_void_p, _void_p, _i64, _i64, _void_p, _i64, _void_p],
    # totals, table keys, table buckets, capacity, max_probe, keys, counts, n
    "repro_opt_table_ingest": [_void_p] * 3 + [_i64, _i64, _void_p, _void_p, _i64],
    # feature, threshold, children, X, n, d, out
    "repro_tree_leaves": [_void_p] * 4 + [_i64, _i64, _void_p],
}

#: Entry points that return a status instead of void.
_RESTYPES = {"repro_tree_leaves": _i64}


def _cache_dir() -> Path:
    configured = os.environ.get("REPRO_KERNELS_CACHE")
    if configured:
        return Path(configured)
    return Path.home() / ".cache" / "repro-kernels"


def _build_library() -> Path:
    """Compile (or reuse) the shared library; raise KernelError on failure."""
    source_bytes = _SOURCE.read_bytes()
    digest = hashlib.sha256(source_bytes).hexdigest()[:16]
    cache = _cache_dir()
    artifact = cache / f"repro_native_{digest}.so"
    if artifact.exists():
        return artifact
    cache.mkdir(parents=True, exist_ok=True)
    errors = []
    for compiler in _COMPILERS:
        fd, tmp_name = tempfile.mkstemp(suffix=".so", dir=str(cache))
        os.close(fd)
        try:
            subprocess.run(
                [compiler, *_CFLAGS, "-o", tmp_name, str(_SOURCE)],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_name, artifact)
            return artifact
        except FileNotFoundError:
            errors.append(f"{compiler}: not found")
        except subprocess.TimeoutExpired:
            errors.append(f"{compiler}: compile timed out")
        except subprocess.CalledProcessError as error:
            stderr = (error.stderr or b"").decode("utf-8", "replace").strip()
            errors.append(f"{compiler}: {stderr.splitlines()[-1] if stderr else 'failed'}")
        finally:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
    raise KernelError("no working C compiler: " + "; ".join(errors))


def _load_library() -> ctypes.CDLL:
    library = ctypes.CDLL(str(_build_library()))
    for name, argtypes in _PROTOTYPES.items():
        fn = getattr(library, name)
        fn.argtypes = argtypes
        fn.restype = _RESTYPES.get(name)
    return library


def _ptr(array: np.ndarray):
    return ctypes.c_void_p(array.ctypes.data)


class NativeBackend:
    """Fused C kernels via ctypes; bit-identical to :class:`NumpyBackend`."""

    name = "native"
    compiled = True

    def __init__(self) -> None:
        self._lib = _load_library()
        self._fallback = NumpyBackend()

    # ------------------------------------------------------------------
    # argument marshalling
    # ------------------------------------------------------------------
    def _ctx(self, plan, prepared, *, need_sign: bool = False):
        """The ten CTX_ARGS values for one call, or None to delegate.

        Returns ``(args, holders)`` — ``holders`` keeps every array the C
        code will read alive for the duration of the call.
        """
        if prepared.mode is None:  # mixed int/str batch
            return None
        packed = plan.packed()
        scheme = _SCHEME_CODES[plan.scheme]
        holders = [packed["seeds"]]
        if scheme == 0:
            a_ptr, b_ptr = _ptr(packed["a"]), _ptr(packed["b"])
            tables_ptr = None
            holders += [packed["a"], packed["b"]]
        else:
            a_ptr = b_ptr = None
            tables_ptr = _ptr(packed["tables"])
            holders.append(packed["tables"])
        if prepared.mode == "ints":
            key_mode = 0
            keys_ptr, fps_ptr, sign_ptr = _ptr(prepared.int_keys), None, None
            holders.append(prepared.int_keys)
        else:
            key_mode = 1
            keys_ptr = None
            fps = prepared.fps()
            fps_ptr = _ptr(fps)
            holders.append(fps)
            if need_sign:
                sign_fps = prepared.fps(sign=True)
                sign_ptr = _ptr(sign_fps)
                holders.append(sign_fps)
            else:
                sign_ptr = None
        args = (
            scheme,
            a_ptr,
            b_ptr,
            tables_ptr,
            _ptr(packed["seeds"]),
            key_mode,
            keys_ptr,
            fps_ptr,
            sign_ptr,
            prepared.n,
        )
        return args, holders

    @staticmethod
    def _counts64(counts) -> np.ndarray:
        return np.ascontiguousarray(counts, dtype=np.int64)

    @staticmethod
    def _kernel_ready(table: np.ndarray) -> bool:
        return table.flags["C_CONTIGUOUS"]

    # ------------------------------------------------------------------
    # Count-Min
    # ------------------------------------------------------------------
    def cms_ingest(self, table, plan, keys, counts, conservative: bool) -> None:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared) if self._kernel_ready(table) else None
        if ctx is None:
            self._fallback.cms_ingest(table, plan, keys, counts, conservative)
            return
        args, _holders = ctx
        counts64 = self._counts64(counts)
        self._lib.repro_cms_ingest(
            _ptr(table), plan.depth, table.shape[1], *args,
            _ptr(counts64), int(bool(conservative)),
        )

    def cms_query(self, table, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared) if self._kernel_ready(table) else None
        if ctx is None:
            return self._fallback.cms_query(table, plan, keys)
        args, _holders = ctx
        out = np.empty(prepared.n, dtype=np.float64)
        self._lib.repro_cms_query(
            _ptr(table), plan.depth, table.shape[1], *args, _ptr(out)
        )
        return out

    # ------------------------------------------------------------------
    # Count Sketch
    # ------------------------------------------------------------------
    def cs_ingest(self, table, plan, keys, counts) -> None:
        prepared = plan.prepare(keys)
        ctx = (
            self._ctx(plan, prepared, need_sign=True)
            if self._kernel_ready(table)
            else None
        )
        if ctx is None:
            self._fallback.cs_ingest(table, plan, keys, counts)
            return
        args, _holders = ctx
        counts64 = self._counts64(counts)
        self._lib.repro_cs_ingest(
            _ptr(table), plan.depth, table.shape[1], *args, _ptr(counts64)
        )

    def cs_query(self, table, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = (
            self._ctx(plan, prepared, need_sign=True)
            if self._kernel_ready(table)
            else None
        )
        if ctx is None:
            return self._fallback.cs_query(table, plan, keys)
        args, _holders = ctx
        out = np.empty(prepared.n, dtype=np.float64)
        self._lib.repro_cs_query(
            _ptr(table), plan.depth, table.shape[1], *args, _ptr(out)
        )
        return out

    # ------------------------------------------------------------------
    # AMS
    # ------------------------------------------------------------------
    def ams_ingest(self, counters, plan, keys, counts) -> None:
        prepared = plan.prepare(keys)
        ctx = (
            self._ctx(plan, prepared, need_sign=True)
            if self._kernel_ready(counters)
            else None
        )
        if ctx is None:
            self._fallback.ams_ingest(counters, plan, keys, counts)
            return
        args, _holders = ctx
        counts64 = self._counts64(counts)
        self._lib.repro_ams_ingest(_ptr(counters), plan.depth, *args, _ptr(counts64))

    # ------------------------------------------------------------------
    # Bloom filter
    # ------------------------------------------------------------------
    def bloom_add(self, bits, plan, keys) -> None:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared) if self._kernel_ready(bits) else None
        if ctx is None:
            self._fallback.bloom_add(bits, plan, keys)
            return
        if prepared.n == 0:
            return
        args, _holders = ctx
        self._lib.repro_bloom_add(_ptr(bits), plan.depth, bits.shape[0], *args)

    def bloom_contains(self, bits, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared) if self._kernel_ready(bits) else None
        if ctx is None:
            return self._fallback.bloom_contains(bits, plan, keys)
        out = np.zeros(prepared.n, dtype=bool)
        if prepared.n == 0:
            return out
        args, _holders = ctx
        self._lib.repro_bloom_contains(
            _ptr(bits), plan.depth, bits.shape[0], *args, _ptr(out)
        )
        return out

    def bloom_observe(self, bits, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared) if self._kernel_ready(bits) else None
        if ctx is None:
            return self._fallback.bloom_observe(bits, plan, keys)
        out = np.zeros(prepared.n, dtype=bool)
        if prepared.n == 0:
            return out
        args, _holders = ctx
        self._lib.repro_bloom_observe(
            _ptr(bits), plan.depth, bits.shape[0], *args, _ptr(out)
        )
        return out

    # ------------------------------------------------------------------
    # learned-scheme probe table
    # ------------------------------------------------------------------
    def opt_table_lookup(self, table, keys) -> np.ndarray:
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        out = np.empty(keys.shape[0], dtype=np.int64)
        self._lib.repro_opt_table_lookup(
            _ptr(table.keys), _ptr(table.buckets), table.capacity,
            table.max_probe, _ptr(keys), keys.shape[0], _ptr(out),
        )
        return out

    def opt_table_ingest(self, totals, table, keys, counts) -> None:
        if totals.dtype != np.float64 or not self._kernel_ready(totals):
            self._fallback.opt_table_ingest(totals, table, keys, counts)
            return
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        counts64 = self._counts64(counts)
        self._lib.repro_opt_table_ingest(
            _ptr(totals), _ptr(table.keys), _ptr(table.buckets),
            table.capacity, table.max_probe, _ptr(keys), _ptr(counts64),
            keys.shape[0],
        )

    # ------------------------------------------------------------------
    # CART descent
    # ------------------------------------------------------------------
    def tree_leaves(self, feature, threshold, children, X) -> np.ndarray:
        feature = np.ascontiguousarray(feature, dtype=np.int64)
        threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        children = np.ascontiguousarray(children, dtype=np.int64)
        rows = np.ascontiguousarray(X, dtype=np.float64)
        out = np.empty(rows.shape[0], dtype=np.int64)
        status = self._lib.repro_tree_leaves(
            _ptr(feature), _ptr(threshold), _ptr(children), _ptr(rows),
            rows.shape[0], rows.shape[1], _ptr(out),
        )
        if status:  # a split on a column X lacks: raise as the reference does
            return self._fallback.tree_leaves(feature, threshold, children, X)
        return out
