"""repro.kernels — pluggable compute backends for the sketch hot paths.

Every table sketch boils down to the same three inner loops: hash a batch of
keys (splitmix64 / FNV fingerprint, then Carter–Wegman multiply-mod-Mersenne-61
or tabulation lookups), turn the hashes into table positions, and
gather/scatter counters.  The learned scheme adds a fourth: probing its
exact key table (:class:`~repro.kernels.probe_table.ProbeTable`, the
``opt_table_lookup`` / ``opt_table_ingest`` ops), and a fifth: routing the
keys it has never seen down its CART classifier (the ``tree_leaves`` op,
one root-to-leaf walk per row).  This package makes *which implementation
runs those loops* a configuration choice, exactly like ``storage=`` made
"where the counters live" one:

* ``numpy`` — the pure-NumPy reference implementation (the code every PR
  since PR 1 shipped, relocated here verbatim).  Always available; the
  bit-identity baseline every other backend is tested against.
* ``native`` — a small C library (``_native.c``) compiled on demand with the
  system C compiler and driven through :mod:`ctypes`.  Fuses fingerprint +
  position computation + scatter-add into one pass per batch with no
  intermediate arrays, and releases the GIL while it runs.

All backends are **bit-identical**: they implement the exact integer
recurrences of :mod:`repro.sketches.hashing`, so estimates, merges, and
serialized tables never depend on which backend produced them.  That is
enforced by ``tests/kernels/test_backend_equivalence.py`` across every
(backend × sketch × hash scheme × key type) combination.

Selection
---------
``backend="auto"`` (the default everywhere) picks the fastest available
backend (native → numpy) and silently falls back to NumPy when no C
compiler exists — it never raises.  Naming a backend explicitly
(``backend="native"``) raises :class:`~repro.errors.KernelError` when that
backend cannot be provided, **except** when rehydrating serialized state,
where the restore path resolves ``auto`` with a ``RuntimeWarning`` so a
snapshot taken on a machine with the compiled path restores (bit-identically)
on one without it.  A retired name (:data:`RETIRED_BACKENDS`, the removed
Numba backend's ``"numba"``) is never available: construction raises,
restore warns and resolves ``auto``.

The environment variable ``REPRO_KERNELS_DISABLE`` (comma-separated backend
names, or ``all-compiled``) masks backends at resolve time — the hook the
fallback tests and the no-compiled CI leg use to prove clean degradation.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import warnings
from typing import Dict, List, Optional, Tuple

from repro.errors import KernelError
from repro.kernels.plan import KernelPlan

__all__ = [
    "KernelError",
    "KernelPlan",
    "KernelDispatch",
    "BACKEND_NAMES",
    "RETIRED_BACKENDS",
    "BACKEND_SCHEMA",
    "available_backends",
    "backend_available",
    "default_backend",
    "get_backend",
    "resolve_backend",
    "bind",
]

#: Every selectable backend name, in ``auto`` preference order (compiled
#: paths first).  ``auto`` itself is a selection rule, not a backend.
BACKEND_NAMES = ("native", "numpy")

#: Names of removed backends.  Specs still accept them so a snapshot that
#: recorded one restores (with a warning, on ``auto``); constructing a
#: sketch with one raises :class:`KernelError`.
RETIRED_BACKENDS = ("numba",)

#: Schema fragment the kernel-capable sketches merge into their spec
#: schemas, mirroring ``repro.core.storage.STORAGE_SCHEMA``.  The registry
#: treats the presence of the ``backend`` field as the signal that a kind
#: supports kernel dispatch (``kind_supports_backend``).
BACKEND_SCHEMA = {
    "backend": {
        "type": "str",
        "choices": ("auto",) + BACKEND_NAMES + RETIRED_BACKENDS,
    },
}

_lock = threading.Lock()
_instances: Dict[str, object] = {}
_load_errors: Dict[str, str] = {}


def _disabled_names() -> frozenset:
    """Backends masked via ``REPRO_KERNELS_DISABLE`` (read per call).

    Reading the environment at resolve time (not import time) lets tests
    and subprocess harnesses flip availability without reloading modules.
    """
    return _parse_disabled(os.environ.get("REPRO_KERNELS_DISABLE", ""))


@functools.lru_cache(maxsize=16)
def _parse_disabled(raw: str) -> frozenset:
    names = {part.strip() for part in raw.split(",") if part.strip()}
    if "all-compiled" in names:
        names |= set(BACKEND_NAMES) - {"numpy"}
    return frozenset(names)


def _load(name: str) -> Optional[object]:
    """Load (and cache) the backend singleton for ``name``; None if broken.

    A failed load is cached as unavailable with its reason — compiling the
    native library is attempted at most once per process.
    """
    if name in _instances:
        return _instances[name]
    if name in _load_errors:
        return None
    with _lock:
        if name in _instances:
            return _instances[name]
        if name in _load_errors:
            return None
        try:
            if name == "numpy":
                from repro.kernels.numpy_backend import NumpyBackend

                instance: object = NumpyBackend()
            elif name == "native":
                from repro.kernels.native_backend import NativeBackend

                instance = NativeBackend()
            else:  # pragma: no cover - callers validate names first
                raise KernelError(f"unknown kernel backend {name!r}")
        except KernelError:
            raise
        except Exception as error:  # compiler missing, import failure, ...
            _load_errors[name] = f"{type(error).__name__}: {error}"
            return None
        _instances[name] = instance
        return instance


def backend_available(name: str) -> bool:
    """Whether ``name`` can be provided right now (env mask respected)."""
    if name not in BACKEND_NAMES:
        return False
    if name in _disabled_names():
        return False
    return _load(name) is not None


def available_backends() -> Tuple[str, ...]:
    """The loadable backend names, in ``auto`` preference order."""
    return tuple(name for name in BACKEND_NAMES if backend_available(name))


def unavailable_reason(name: str) -> Optional[str]:
    """Why ``name`` is unavailable (None when it is available)."""
    if name in RETIRED_BACKENDS:
        return "this backend was removed from repro"
    if name not in BACKEND_NAMES:
        return f"unknown backend {name!r}"
    if name in _disabled_names():
        return "disabled via REPRO_KERNELS_DISABLE"
    if _load(name) is not None:
        return None
    return _load_errors.get(name, "failed to load")


#: Directory of the ``repro`` package; frames under it are library frames.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) + os.sep


def _caller_stacklevel() -> int:
    """``warnings.warn`` stacklevel of the first frame outside ``repro``.

    Counted from the function that calls this one, so a warning raised deep
    inside a restore path points at the user's ``loads``/``restore`` call.
    """
    level, frame = 1, sys._getframe(1)
    while frame is not None and os.path.abspath(frame.f_code.co_filename).startswith(
        _PACKAGE_DIR
    ):
        level, frame = level + 1, frame.f_back
    return level


def resolve_backend(requested: str = "auto", *, on_unavailable: str = "raise") -> str:
    """Map a requested backend name to the name that will actually run.

    ``"auto"`` returns the first available of :data:`BACKEND_NAMES` (NumPy
    is always available, so auto always resolves).  An explicit name
    resolves to itself when available; otherwise ``on_unavailable``
    decides: ``"raise"`` (default) raises :class:`KernelError`,
    ``"fallback"`` re-resolves as ``auto`` after emitting a
    ``RuntimeWarning`` — the restore-path behavior.  A name in
    :data:`RETIRED_BACKENDS` is treated as permanently unavailable.
    """
    if requested == "auto":
        for name in BACKEND_NAMES:
            if backend_available(name):
                return name
        return "numpy"  # pragma: no cover - numpy import cannot fail here
    if requested not in BACKEND_NAMES + RETIRED_BACKENDS:
        raise KernelError(
            f"unknown kernel backend {requested!r}; expected one of "
            f"{('auto',) + BACKEND_NAMES}"
        )
    if backend_available(requested):
        return requested
    reason = unavailable_reason(requested)
    if on_unavailable == "fallback":
        fallback = resolve_backend("auto")
        warnings.warn(
            f"kernel backend {requested!r} is unavailable ({reason}); "
            f"falling back to {fallback!r} (bit-identical)",
            RuntimeWarning,
            stacklevel=_caller_stacklevel(),
        )
        return fallback
    raise KernelError(
        f"kernel backend {requested!r} is unavailable: {reason} "
        "(use backend='auto' to fall back automatically)"
    )


def default_backend() -> str:
    """The backend ``auto`` resolves to right now."""
    return resolve_backend("auto")


def get_backend(name: str = "auto"):
    """The backend singleton for ``name`` (resolving ``auto``).

    Raises :class:`KernelError` for unknown or unavailable explicit names.
    """
    resolved = resolve_backend(name)
    instance = _load(resolved)
    if instance is None:  # resolved-but-masked race; re-resolve strictly
        raise KernelError(
            f"kernel backend {resolved!r} became unavailable: "
            f"{unavailable_reason(resolved)}"
        )
    return instance


def bind(
    requested: str,
    hashes: List,
    scheme: str,
    *,
    on_unavailable: str = "raise",
):
    """Resolve ``requested`` and build the hash plan for one sketch.

    Returns ``(backend, plan)`` — the pair every kernel-capable sketch
    stores at construction/rehydration time.  ``on_unavailable="fallback"``
    is the deserialization mode (warn + degrade to NumPy instead of
    refusing to restore).
    """
    backend = get_backend(resolve_backend(requested, on_unavailable=on_unavailable))
    return backend, KernelPlan(hashes, scheme)


class KernelDispatch:
    """Mixin for sketches whose hot paths run through a kernel backend.

    Expects ``self._hashes`` and ``self.hash_scheme`` to be set before
    :meth:`_init_kernels` is called.  Stores the *requested* backend on
    ``self.backend`` (what serializes, so ``"auto"`` stays portable) and the
    resolved backend/plan pair on ``self._kernel`` / ``self._plan``.
    """

    def _init_kernels(
        self, backend: str = "auto", *, on_unavailable: str = "raise"
    ) -> None:
        self.backend = backend
        self._kernel, self._plan = bind(
            backend, self._hashes, self.hash_scheme, on_unavailable=on_unavailable
        )

    @property
    def kernel_backend(self) -> str:
        """The backend actually executing this sketch's kernels."""
        return self._kernel.name

    def _backend_serial_state(self) -> dict:
        """Serialized-state fragment recording a non-default backend choice.

        ``"auto"`` is omitted so buffers written before this field existed
        and buffers written with the default remain byte-compatible.
        """
        return {} if self.backend == "auto" else {"backend": self.backend}

    def _backend_describe_params(self) -> dict:
        """Params fragment: the requested backend when explicitly pinned."""
        return {} if self.backend == "auto" else {"backend": self.backend}
