"""repro.errors — the unified exception hierarchy.

Eight PRs grew their own error types in the modules that raised them
(``SpecError`` in the spec layer, ``SerializationError`` in the wire format,
``ProtocolError``/``ServiceError`` in the streaming service, ...).  They all
share one base here, :class:`ReproError`, so callers at a subsystem boundary
can catch everything this library raises with a single ``except ReproError``
instead of enumerating module-private classes::

    try:
        session = repro.restore(blob)
        session.ingest(keys)
    except repro.errors.ReproError as error:
        respond_with_error(error)

Every class keeps its historical builtin base (``ValueError`` /
``RuntimeError``), so existing ``except ValueError`` call sites keep
working, and every class is still re-exported from the module that
originally defined it (``repro.api.specs.SpecError``,
``repro.sketches.serialization.SerializationError``, ...) — the historical
import paths are permanent aliases of these definitions.

This module imports nothing from the rest of the package, so it is safe to
import from anywhere (including the lowest layers).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SpecError",
    "SerializationError",
    "IncompatibleSketchError",
    "StorageError",
    "KernelError",
    "ProtocolError",
    "ServiceError",
    "WALError",
    "WorkerDeadError",
    "DependencyError",
]


class ReproError(Exception):
    """Base class of every exception this library raises deliberately.

    Catching ``ReproError`` at a service/session boundary covers malformed
    specs, corrupt buffers, incompatible merges, storage/kernel backend
    failures, wire-protocol violations, and service-side faults — without
    also swallowing genuine bugs (``KeyError``, ``AttributeError``, ...).
    """


class SpecError(ReproError, ValueError):
    """An estimator spec is malformed (unknown kind, bad parameters, ...).

    Historical home: :mod:`repro.api.specs`.
    """


class SerializationError(ReproError, ValueError):
    """A serialized buffer is corrupt, truncated, or of the wrong kind.

    Historical home: :mod:`repro.sketches.serialization`.
    """


class IncompatibleSketchError(ReproError, ValueError):
    """Two sketches cannot be merged (different shape, seeds, or hashes).

    Historical home: :mod:`repro.sketches.base`.
    """


class StorageError(ReproError, ValueError):
    """A counter-storage backend could not be allocated or attached.

    Historical home: :mod:`repro.core.storage`.
    """


class KernelError(ReproError, RuntimeError):
    """A compute-kernel backend is unknown, unavailable, or failed to load.

    Raised when an explicitly requested backend (``backend="numba"`` on a
    machine without Numba, ``backend="native"`` without a C compiler)
    cannot be provided.  ``backend="auto"`` never raises — it falls back
    to the pure-NumPy reference implementation.  Home:
    :mod:`repro.kernels`.
    """


class ProtocolError(ReproError, ValueError):
    """A streaming-service frame violates the wire protocol.

    Historical home: :mod:`repro.service.protocol`.
    """


class ServiceError(ReproError, RuntimeError):
    """The streaming service (or its client) failed at runtime.

    Historical home: :mod:`repro.service.protocol`.
    """


class WALError(ReproError, RuntimeError):
    """A write-ahead-log segment could not be appended or replayed.

    Historical home: :mod:`repro.resilience.wal`.
    """


class WorkerDeadError(ReproError, RuntimeError):
    """A shard worker process died while work was outstanding.

    Historical home: :mod:`repro.core.workers`.
    """


class DependencyError(ReproError, ImportError):
    """An optional dependency a requested feature needs is not installed.

    The message names the ``pip`` extra that provides it (``solver="milp"``
    needs scipy: ``repro[exact]``).
    """
