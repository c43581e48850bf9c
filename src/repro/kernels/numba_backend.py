"""Numba backend: the fused kernels as ``@njit(cache=True)`` functions.

Importable only where :mod:`numba` is installed (the ``[fast]`` extra);
:func:`repro.kernels._load` treats the ImportError as "backend unavailable".
The kernels mirror ``_native.c`` loop for loop — splitmix64 fingerprinting,
exact Carter–Wegman multiply-mod-Mersenne-61 (32-bit limb decomposition, no
128-bit type in nopython mode), tabulation XOR-folds — so they are
bit-identical to both the C and the NumPy reference backends.

Numba typing note: every constant that touches uint64 values is a
``np.uint64`` up front.  Mixing uint64 with signed literals promotes to
float64 in nopython mode, which would silently break bit-identity; keeping
the arithmetic all-uint64 (with explicit ``np.int64`` casts at the counter
boundary) keeps it exact.
"""

from __future__ import annotations

import numpy as np

import numba  # noqa: F401  (availability probe)
from numba import njit

from repro.kernels.numpy_backend import NumpyBackend

__all__ = ["NumbaBackend"]

_U = np.uint64

_GOLD = _U(0x9E3779B97F4A7C15)
_MIX1 = _U(0xBF58476D1CE4E5B9)
_MIX2 = _U(0x94D049BB133111EB)
_P61 = _U((1 << 61) - 1)
_LO32 = _U(0xFFFFFFFF)
_BYTE = _U(0xFF)
_XOR_UNIVERSAL = _U(0x5A5A5A5A)
_XOR_TABULATION = _U(0x3C3C3C3C)
_S8, _S27, _S29, _S30, _S31, _S32, _S61 = (
    _U(8), _U(27), _U(29), _U(30), _U(31), _U(32), _U(61),
)
_ZERO = _U(0)
_ONE = _U(1)
_EIGHT = _U(8)

_EMPTY_U64 = np.empty(0, dtype=np.uint64)
_EMPTY_TABLES = np.empty((0, 8, 256), dtype=np.uint64)
_EMPTY_FPS = np.empty((0, 0), dtype=np.uint64)

_MAGIC_CACHE: dict = {}


def _magic_for(width) -> tuple:
    """(magic, shift) for division-free ``x mod width`` inside the kernels.

    Python ints provide the one 128-bit divide per distinct width.  The
    shift is floor(log2(d)) — with a ceil shift, magic = (2^(64+s)-1)/d
    exceeds 2^64 for every non-power-of-two d and truncation would make
    the quotient wildly short; with the floor shift magic always fits and
    the quotient underestimates the true one by at most 1 (matching
    _native.c).
    """
    d = int(width)
    cached = _MAGIC_CACHE.get(d)
    if cached is None:
        shift = max(d.bit_length() - 1, 0)
        cached = (_U(((1 << (64 + shift)) - 1) // d), _U(shift))
        _MAGIC_CACHE[d] = cached
    return cached


@njit(cache=True, nogil=True)
def _fp_int(key, seed):
    v = key ^ (seed * _GOLD)
    v = (v ^ (v >> _S30)) * _MIX1
    v = (v ^ (v >> _S27)) * _MIX2
    return v ^ (v >> _S31)


@njit(cache=True, nogil=True)
def _mulmod61(a, x):
    # Exact a*x mod 2^61-1 for a, x < 2^61 using 32-bit limbs:
    # a*x = hh*2^64 + mid*2^32 + ll, with 2^61 = 1 (mod p) so 2^64 = 8.
    a_hi = a >> _S32
    a_lo = a & _LO32
    x_hi = x >> _S32
    x_lo = x & _LO32
    hh = a_hi * x_hi                    # < 2^58
    mid = a_hi * x_lo + a_lo * x_hi     # < 2^62
    ll = a_lo * x_lo                    # < 2^64
    mid_mod = (mid >> _S61) + (mid & _P61)
    if mid_mod >= _P61:
        mid_mod -= _P61
    # y*2^32 mod p for y < p: fold the bits above 2^61 back down.
    part_mid = (mid_mod >> _S29) + ((mid_mod << _S32) & _P61)
    total = hh * _EIGHT + part_mid + (ll >> _S61) + (ll & _P61)  # < 2^63
    total = (total >> _S61) + (total & _P61)
    if total >= _P61:
        total -= _P61
    return total


@njit(cache=True, nogil=True)
def _cw(a, b, fp):
    r = _mulmod61(a, fp % _P61) + b
    if r >= _P61:
        r -= _P61
    return r


@njit(cache=True, nogil=True)
def _mulhi64(a, x):
    # High 64 bits of the 128-bit product a*x via 32-bit limbs (no 128-bit
    # type in nopython mode); all operands uint64, wrapping like C.
    a_hi = a >> _S32
    a_lo = a & _LO32
    x_hi = x >> _S32
    x_lo = x & _LO32
    lo = a_lo * x_lo
    mid1 = a_hi * x_lo + (lo >> _S32)
    mid2 = a_lo * x_hi + (mid1 & _LO32)
    return a_hi * x_hi + (mid1 >> _S32) + (mid2 >> _S32)


@njit(cache=True, nogil=True)
def _fastmod(x, d, magic, shift):
    # Division-free x mod d, mirroring _native.c: magic underestimates
    # 2^(64+shift)/d (host-side precomputed), so the quotient never
    # overshoots and <= 3 exact fixups land on the true remainder.
    q = _mulhi64(magic, x) >> shift
    r = x - q * d
    while r >= d:
        r -= d
    return r


@njit(cache=True, nogil=True)
def _tab(tables_l, fp):
    acc = _U(0)
    for i in range(8):
        acc ^= tables_l[i, (fp >> (_S8 * _U(i))) & _BYTE]
    return acc


@njit(cache=True, nogil=True)
def _pos(scheme, a, b, tables, seeds, key_mode, keys, fps, rng, mg, sh, l, j):
    if key_mode == 0:
        fp = _fp_int(keys[j], seeds[l])
    else:
        fp = fps[l, j]
    if scheme == 0:
        return _fastmod(_cw(a[l], b[l], fp), rng, mg, sh)
    return _fastmod(_tab(tables[l], fp), rng, mg, sh)


@njit(cache=True, nogil=True)
def _sgn(scheme, a, b, tables, seeds, key_mode, keys, sign_fps, l, j):
    if key_mode == 0:
        if scheme == 0:
            fp = _fp_int(keys[j], seeds[l] ^ _XOR_UNIVERSAL)
        else:
            fp = _fp_int(keys[j], seeds[l] ^ _XOR_TABULATION)
    else:
        fp = sign_fps[l, j]
    if scheme == 0:
        fp = _cw(a[l], b[l], fp)
    if fp & _ONE:
        return np.int64(1)
    return np.int64(-1)


@njit(cache=True, nogil=True)
def _cms_ingest(table, scheme, a, b, tables, seeds, key_mode, keys, fps,
                counts, conservative, mg, sh):
    depth, width = table.shape
    rng = _U(width)
    n = counts.shape[0]
    if not conservative:
        # Level-outer (like _native.c): one row stays hot in cache per pass,
        # and integer adds commute so the table is bit-identical either way.
        for l in range(depth):
            row = table[l]
            for j in range(n):
                row[_pos(scheme, a, b, tables, seeds, key_mode, keys,
                         fps, rng, mg, sh, l, j)] += counts[j]
        return
    pos = np.empty(depth, dtype=np.uint64)
    for j in range(n):
        count = counts[j]
        if count == 0:
            continue
        for l in range(depth):
            pos[l] = _pos(scheme, a, b, tables, seeds, key_mode, keys, fps,
                          rng, mg, sh, l, j)
        minimum = table[0, pos[0]]
        for l in range(1, depth):
            cell = table[l, pos[l]]
            if cell < minimum:
                minimum = cell
        target = minimum + count
        for l in range(depth):
            if table[l, pos[l]] < target:
                table[l, pos[l]] = target
    return


@njit(cache=True, nogil=True)
def _cms_query(table, scheme, a, b, tables, seeds, key_mode, keys, fps, n,
               mg, sh):
    depth, width = table.shape
    rng = _U(width)
    out = np.empty(n, dtype=np.float64)
    for j in range(n):
        minimum = table[0, _pos(scheme, a, b, tables, seeds, key_mode, keys,
                                fps, rng, mg, sh, 0, j)]
        for l in range(1, depth):
            cell = table[l, _pos(scheme, a, b, tables, seeds, key_mode, keys,
                                 fps, rng, mg, sh, l, j)]
            if cell < minimum:
                minimum = cell
        out[j] = np.float64(minimum)
    return out


@njit(cache=True, nogil=True)
def _cs_ingest(table, scheme, a, b, tables, seeds, key_mode, keys, fps,
               sign_fps, counts, mg, sh):
    depth, width = table.shape
    rng = _U(width)
    n = counts.shape[0]
    # Level-outer like _native.c: signed adds commute, so bit-identical.
    for l in range(depth):
        row = table[l]
        for j in range(n):
            p = _pos(scheme, a, b, tables, seeds, key_mode, keys, fps,
                     rng, mg, sh, l, j)
            s = _sgn(scheme, a, b, tables, seeds, key_mode, keys, sign_fps, l, j)
            row[p] += s * counts[j]
    return


@njit(cache=True, nogil=True)
def _cs_query(table, scheme, a, b, tables, seeds, key_mode, keys, fps,
              sign_fps, n, mg, sh):
    depth, width = table.shape
    rng = _U(width)
    out = np.empty(n, dtype=np.float64)
    vals = np.empty(depth, dtype=np.int64)
    for j in range(n):
        for l in range(depth):
            p = _pos(scheme, a, b, tables, seeds, key_mode, keys, fps,
                     rng, mg, sh, l, j)
            s = _sgn(scheme, a, b, tables, seeds, key_mode, keys, sign_fps, l, j)
            value = s * table[l, p]
            i = l
            while i > 0 and vals[i - 1] > value:
                vals[i] = vals[i - 1]
                i -= 1
            vals[i] = value
        if depth % 2 == 1:
            out[j] = np.float64(vals[depth // 2])
        else:
            out[j] = (np.float64(vals[depth // 2 - 1]) +
                      np.float64(vals[depth // 2])) / 2.0
    return out


@njit(cache=True, nogil=True)
def _ams_ingest(counters, scheme, a, b, tables, seeds, key_mode, keys,
                sign_fps, counts):
    depth = counters.shape[0]
    n = counts.shape[0]
    for l in range(depth):
        acc = np.int64(0)
        for j in range(n):
            acc += _sgn(scheme, a, b, tables, seeds, key_mode, keys,
                        sign_fps, l, j) * counts[j]
        counters[l] += acc
    return


@njit(cache=True, nogil=True)
def _bloom_add(bits, depth, scheme, a, b, tables, seeds, key_mode, keys,
               fps, n, mg, sh):
    rng = _U(bits.shape[0])
    for j in range(n):
        for l in range(depth):
            bits[_pos(scheme, a, b, tables, seeds, key_mode, keys, fps,
                      rng, mg, sh, l, j)] = True
    return


@njit(cache=True, nogil=True)
def _bloom_contains(bits, depth, scheme, a, b, tables, seeds, key_mode, keys,
                    fps, n, mg, sh):
    rng = _U(bits.shape[0])
    out = np.zeros(n, dtype=np.bool_)
    for j in range(n):
        all_set = True
        for l in range(depth):
            if not bits[_pos(scheme, a, b, tables, seeds, key_mode, keys,
                             fps, rng, mg, sh, l, j)]:
                all_set = False
                break
        out[j] = all_set
    return out


@njit(cache=True, nogil=True)
def _bloom_observe(bits, depth, scheme, a, b, tables, seeds, key_mode, keys,
                   fps, n, mg, sh):
    rng = _U(bits.shape[0])
    out = np.zeros(n, dtype=np.bool_)
    pos = np.empty(depth, dtype=np.uint64)
    for j in range(n):
        all_set = True
        for l in range(depth):
            pos[l] = _pos(scheme, a, b, tables, seeds, key_mode, keys, fps,
                          rng, mg, sh, l, j)
            if not bits[pos[l]]:
                all_set = False
        if not all_set:
            for l in range(depth):
                bits[pos[l]] = True
            out[j] = True
    return out


@njit(cache=True, nogil=True)
def _probe_bucket(tkeys, tbuckets, mask, max_probe, key):
    # Linear probe from the seed-0 splitmix64 home slot; keys compare as
    # their uint64 bit patterns, which is int64 equality.
    slot = _fp_int(key, _ZERO) & mask
    for _ in range(max_probe):
        bucket = tbuckets[slot]
        if bucket < 0:
            return np.int64(-1)
        if tkeys[slot] == key:
            return bucket
        slot = (slot + _ONE) & mask
    return np.int64(-1)


@njit(cache=True, nogil=True)
def _opt_table_lookup(tkeys, tbuckets, mask, max_probe, keys, out):
    for j in range(keys.shape[0]):
        out[j] = _probe_bucket(tkeys, tbuckets, mask, max_probe, keys[j])


@njit(cache=True, nogil=True)
def _opt_table_ingest(totals, tkeys, tbuckets, mask, max_probe, keys, counts):
    # Hits add in arrival order, the order np.add.at applies them in.
    for j in range(keys.shape[0]):
        bucket = _probe_bucket(tkeys, tbuckets, mask, max_probe, keys[j])
        if bucket >= 0:
            totals[bucket] += np.float64(counts[j])


class NumbaBackend:
    """Fused ``@njit`` kernels; bit-identical to :class:`NumpyBackend`."""

    name = "numba"
    compiled = True

    def __init__(self) -> None:
        self._fallback = NumpyBackend()

    # ------------------------------------------------------------------
    # argument marshalling (mirrors NativeBackend._ctx)
    # ------------------------------------------------------------------
    def _ctx(self, plan, prepared, *, need_sign: bool = False):
        if prepared.mode is None:  # mixed int/str batch
            return None
        packed = plan.packed()
        scheme = 0 if plan.scheme == "universal" else 1
        a = packed.get("a", _EMPTY_U64)
        b = packed.get("b", _EMPTY_U64)
        tables = packed.get("tables", _EMPTY_TABLES)
        if prepared.mode == "ints":
            # In-kernel splitmix fingerprints; the fps matrices stay empty.
            return (scheme, a, b, tables, packed["seeds"], 0,
                    prepared.int_keys, _EMPTY_FPS, _EMPTY_FPS)
        sign_fps = prepared.fps(sign=True) if need_sign else _EMPTY_FPS
        return (scheme, a, b, tables, packed["seeds"], 1,
                _EMPTY_U64, prepared.fps(), sign_fps)

    @staticmethod
    def _counts64(counts) -> np.ndarray:
        return np.ascontiguousarray(counts, dtype=np.int64)

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def cms_ingest(self, table, plan, keys, counts, conservative: bool) -> None:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared)
        if ctx is None:
            self._fallback.cms_ingest(table, plan, keys, counts, conservative)
            return
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, _ = ctx
        mg, sh = _magic_for(table.shape[1])
        _cms_ingest(table, scheme, a, b, tables, seeds, key_mode, int_keys,
                    fps, self._counts64(counts), conservative, mg, sh)

    def cms_query(self, table, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared)
        if ctx is None:
            return self._fallback.cms_query(table, plan, keys)
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, _ = ctx
        mg, sh = _magic_for(table.shape[1])
        return _cms_query(table, scheme, a, b, tables, seeds, key_mode,
                          int_keys, fps, prepared.n, mg, sh)

    def cs_ingest(self, table, plan, keys, counts) -> None:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared, need_sign=True)
        if ctx is None:
            self._fallback.cs_ingest(table, plan, keys, counts)
            return
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, sign_fps = ctx
        mg, sh = _magic_for(table.shape[1])
        _cs_ingest(table, scheme, a, b, tables, seeds, key_mode, int_keys,
                   fps, sign_fps, self._counts64(counts), mg, sh)

    def cs_query(self, table, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared, need_sign=True)
        if ctx is None:
            return self._fallback.cs_query(table, plan, keys)
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, sign_fps = ctx
        mg, sh = _magic_for(table.shape[1])
        return _cs_query(table, scheme, a, b, tables, seeds, key_mode,
                         int_keys, fps, sign_fps, prepared.n, mg, sh)

    def ams_ingest(self, counters, plan, keys, counts) -> None:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared, need_sign=True)
        if ctx is None:
            self._fallback.ams_ingest(counters, plan, keys, counts)
            return
        scheme, a, b, tables, seeds, key_mode, int_keys, _, sign_fps = ctx
        _ams_ingest(counters, scheme, a, b, tables, seeds, key_mode,
                    int_keys, sign_fps, self._counts64(counts))

    def bloom_add(self, bits, plan, keys) -> None:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared)
        if ctx is None or prepared.n == 0:
            if prepared.n:
                self._fallback.bloom_add(bits, plan, keys)
            return
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, _ = ctx
        mg, sh = _magic_for(bits.shape[0])
        _bloom_add(bits, plan.depth, scheme, a, b, tables, seeds, key_mode,
                   int_keys, fps, prepared.n, mg, sh)

    def bloom_contains(self, bits, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared)
        if ctx is None:
            return self._fallback.bloom_contains(bits, plan, keys)
        if prepared.n == 0:
            return np.zeros(0, dtype=bool)
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, _ = ctx
        mg, sh = _magic_for(bits.shape[0])
        return _bloom_contains(bits, plan.depth, scheme, a, b, tables, seeds,
                               key_mode, int_keys, fps, prepared.n, mg, sh)

    def bloom_observe(self, bits, plan, keys) -> np.ndarray:
        prepared = plan.prepare(keys)
        ctx = self._ctx(plan, prepared)
        if ctx is None:
            return self._fallback.bloom_observe(bits, plan, keys)
        if prepared.n == 0:
            return np.zeros(0, dtype=bool)
        scheme, a, b, tables, seeds, key_mode, int_keys, fps, _ = ctx
        mg, sh = _magic_for(bits.shape[0])
        return _bloom_observe(bits, plan.depth, scheme, a, b, tables, seeds,
                              key_mode, int_keys, fps, prepared.n, mg, sh)

    # ------------------------------------------------------------------
    # learned-scheme probe table
    # ------------------------------------------------------------------
    @staticmethod
    def _probe_args(table, keys):
        keys = np.ascontiguousarray(keys, dtype=np.int64)
        return (table.keys.view(np.uint64), table.buckets,
                _U(table.capacity - 1), table.max_probe, keys.view(np.uint64))

    def opt_table_lookup(self, table, keys) -> np.ndarray:
        args = self._probe_args(table, keys)
        out = np.empty(args[-1].shape[0], dtype=np.int64)
        _opt_table_lookup(*args, out)
        return out

    def opt_table_ingest(self, totals, table, keys, counts) -> None:
        if totals.dtype != np.float64:
            self._fallback.opt_table_ingest(totals, table, keys, counts)
            return
        tkeys, tbuckets, mask, max_probe, ukeys = self._probe_args(table, keys)
        _opt_table_ingest(totals, tkeys, tbuckets, mask, max_probe, ukeys,
                          self._counts64(counts))
