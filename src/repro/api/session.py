"""The Session facade: one object for ingest / query / merge / snapshot.

``repro.api.open(spec)`` builds the estimator a spec describes and wraps it
in a :class:`Session`, which subsumes the previous per-task entry points —
``replay`` / ``replay_sharded`` for ingestion, ``update_batch`` /
``estimate_batch`` for direct access, ``to_bytes`` + ``loads`` for state
transfer — behind a small uniform API:

    session = repro.api.open(
        {"kind": "count_min", "total_buckets": 8192, "depth": 2, "seed": 1}
    )
    session.ingest(keys)                  # streams, arrays, weighted batches
    estimates = session.estimate(keys)    # float64 array
    blob = session.snapshot()             # spec + estimator state, one buffer
    twin = repro.api.restore(blob)        # picks up exactly where blob left off

Snapshots carry the spec *and* the estimator state in one versioned buffer
(the same wire format the sketches use), so a restored session knows its
own configuration; for linear sketches the restored estimator is
bit-identical to the snapshotted one.  Sharded sessions snapshot per-shard
and restore with their layout (including executor pools) rebuilt from the
spec.
"""

from __future__ import annotations

import builtins
import contextlib
import os
from typing import Optional, Union

import numpy as np

from repro.api.options import Options, resolve_options
from repro.api.registry import build, train  # noqa: F401  (train re-exported)
from repro.api.specs import EstimatorSpec, SpecError, spec_from_dict
from repro.obs import MetricsRegistry
from repro.sketches.serialization import (
    SerializationError,
    loads as _loads,
    pack,
    register_sketch,
    unpack,
)

__all__ = ["Session", "atomic_write", "load", "open", "restore"]

_SESSION_TAG = "session"


def atomic_write(path, blob: bytes) -> None:
    """Durably replace ``path`` with ``blob`` (temp file + fsync + rename).

    The temp file is fsynced before the rename and the parent directory is
    fsynced after it, so after this returns the new contents survive a power
    cut — not just a process crash.  A crash at any point leaves ``path``
    holding either the previous contents or the complete new ones, never a
    truncated mix.
    """
    from repro.resilience import failpoints

    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with builtins.open(tmp_path, "wb") as handle:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        failpoints.fire("session.save")
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    parent = os.path.dirname(path) or "."
    dir_fd = os.open(parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


@register_sketch(_SESSION_TAG)
class Session:
    """A live estimator plus the spec that built it.

    Construct through :func:`open` (or :func:`restore`); the raw estimator
    stays reachable through :attr:`estimator` for APIs the facade does not
    cover (e.g. ``heavy_hitters()`` on the counter summaries).
    """

    def __init__(
        self,
        spec: EstimatorSpec,
        estimator,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._spec = spec
        self._estimator = estimator
        #: JSON-safe sidecar state carried inside snapshots (e.g. the WAL
        #: coverage marks the service embeds); populated by ``from_bytes``.
        self.extra_state: dict = {}
        self._metrics: Optional[MetricsRegistry] = None
        self._m_stage = None
        if metrics is not None:
            self.instrument(metrics)

    def instrument(self, metrics: MetricsRegistry) -> "Session":
        """Record per-stage timings (and the estimator's own metrics) here.

        Registers ``repro_session_stage_seconds{stage=...}`` and cascades to
        the estimator's ``instrument()`` when it has one (the sharded
        estimator forwards further to its worker pool), so one registry
        observes the whole tree.  Instrumentation is opt-in: an
        un-instrumented session has zero overhead on the ingest path.
        """
        self._metrics = metrics
        self._m_stage = metrics.histogram(
            "repro_session_stage_seconds",
            "Session stage latency (ingest/estimate/drain/snapshot).",
            labels=("stage",),
        )
        cascade = getattr(self._estimator, "instrument", None)
        if cascade is not None:
            cascade(metrics)
        return self

    def _timed(self, stage: str):
        if self._m_stage is None:
            return contextlib.nullcontext()
        return self._m_stage.labels(stage=stage).time()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def spec(self) -> EstimatorSpec:
        return self._spec

    @property
    def estimator(self):
        return self._estimator

    @property
    def kind(self) -> str:
        return self._spec.kind

    @property
    def size_bytes(self) -> int:
        return int(self._estimator.size_bytes)

    def describe(self) -> dict:
        """The estimator's :meth:`describe` plus the originating spec."""
        info = self._estimator.describe()
        info["spec"] = self._spec.to_dict()
        return info

    def __repr__(self) -> str:
        return f"Session({self._spec!r}, size_bytes={self.size_bytes})"

    # ------------------------------------------------------------------
    # ingestion / queries
    # ------------------------------------------------------------------
    def ingest(self, keys, counts=None, batch_size: Optional[int] = None) -> int:
        """Stream arrivals through the estimator's batch path, chunked.

        ``keys`` may be a :class:`~repro.streams.stream.Stream`, a NumPy
        array of raw keys, or any sequence of keys/elements; ``counts``
        optionally weights each key.  Returns the number of arrivals
        processed (positions, not the weighted total).  This subsumes
        ``repro.core.pipeline.replay`` — same chunking, same fast paths.
        """
        from repro.core.pipeline import DEFAULT_REPLAY_BATCH_SIZE, replay

        self._require_capability("update_batch", "ingest")
        if batch_size is None:
            batch_size = DEFAULT_REPLAY_BATCH_SIZE
        with self._timed("ingest"):
            if counts is None:
                return replay(
                    self._estimator,
                    keys,
                    batch_size=batch_size,
                    metrics=self._metrics,
                )
            if batch_size <= 0:
                raise ValueError("batch_size must be positive")
            items = keys if isinstance(keys, np.ndarray) else list(keys)
            count_array = np.asarray(counts, dtype=np.int64)
            if count_array.shape != (len(items),):
                raise ValueError("counts must align one-to-one with keys")
            for start in range(0, len(items), batch_size):
                self._estimator.update_batch(
                    items[start : start + batch_size],
                    count_array[start : start + batch_size],
                )
            return len(items)

    def _require_capability(self, method: str, operation: str) -> None:
        """Typed error for kinds outside the frequency-estimator protocol.

        ``bloom`` (membership only) and ``ams`` (second-moment queries only)
        are buildable kinds but do not speak the full ingest/estimate
        protocol; surfacing a :class:`SpecError` here keeps the facade's
        typed-error contract instead of leaking an ``AttributeError``.
        """
        if not hasattr(self._estimator, method):
            raise SpecError(
                f"kind {self.kind!r} does not support Session.{operation}(): "
                f"{type(self._estimator).__name__} has no {method}(); use its "
                "native API via session.estimator"
            )

    def estimate(self, keys) -> np.ndarray:
        """Vectorized point queries: a float64 array aligned with ``keys``."""
        self._require_capability("estimate_batch", "estimate")
        with self._timed("estimate"):
            return self._estimator.estimate_batch(keys)

    def estimate_key(self, key) -> float:
        """Point query for a single raw key."""
        return float(self.estimate([key])[0])

    # ------------------------------------------------------------------
    # merge / snapshot
    # ------------------------------------------------------------------
    def merge(self, other: Union["Session", object]) -> "Session":
        """Fold another session's (or bare estimator's) state into this one."""
        estimator = other.estimator if isinstance(other, Session) else other
        self._estimator.merge(estimator)
        return self

    def snapshot(
        self,
        *,
        embed: Optional[bool] = None,
        extra_state: Optional[dict] = None,
    ) -> bytes:
        """Serialize spec + estimator state into one versioned buffer.

        ``extra_state`` — extra JSON-safe keys packed alongside ``"spec"``
        (and surfaced as :attr:`extra_state` on restore).  The service uses
        this to embed the WAL positions a snapshot covers *inside* the
        snapshot itself, so coverage and state can never disagree after a
        crash between the two writes.

        For mmap-backed estimators the default snapshot is *live*: the
        counter table is flushed and referenced by path instead of being
        copied into the buffer — O(1) in the table size — and ``restore``
        reattaches the file in place.  A live snapshot is a recovery
        sidecar, **not** a point-in-time copy: later ingestion keeps
        mutating the file it references, and restoring it aliases the same
        pages the session writes.  For a frozen, portable checkpoint of an
        mmap session pass ``embed=True``; ``embed=False`` demands the
        zero-copy form (raises :class:`SerializationError` for non-mmap
        estimators).

        Raises :class:`SerializationError` for estimators without a binary
        form (the trained opt-hash estimators wrap an arbitrary classifier).
        """
        to_bytes = getattr(self._estimator, "to_bytes", None)
        if to_bytes is None:
            raise SerializationError(
                f"estimator kind {self.kind!r} has no binary serialization; "
                "snapshot() is unavailable for it"
            )
        backend = getattr(self._estimator, "storage_backend", "dense")
        if embed is None:
            embed = backend != "mmap"
        if not embed and backend != "mmap":
            raise SerializationError(
                "zero-copy (embed=False) snapshots require an mmap-backed "
                f"estimator; this one uses {backend!r} storage"
            )
        blob = to_bytes() if embed else to_bytes(live=True)
        state = {"spec": self._spec.to_dict()}
        if extra_state:
            for key in extra_state:
                if key == "spec":
                    raise SerializationError(
                        "extra_state may not shadow the 'spec' key"
                    )
            state.update(extra_state)
        return pack(
            _SESSION_TAG,
            state,
            {"estimator": np.frombuffer(blob, dtype=np.uint8)},
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "Session":
        """Rehydrate a :meth:`snapshot` buffer (also used by ``loads``)."""
        _, state, arrays = unpack(data, expect_tag=_SESSION_TAG)
        spec_dict = state.get("spec")
        if not isinstance(spec_dict, dict):
            raise SerializationError("session buffer is missing its spec")
        try:
            spec = spec_from_dict(spec_dict)
        except SpecError as error:
            raise SerializationError(
                f"session buffer holds an invalid spec: {error}"
            ) from error
        if "estimator" not in arrays:
            raise SerializationError("session buffer is missing estimator state")
        estimator = _loads(arrays["estimator"].tobytes(), expect_kind=spec.kind)
        session = cls(spec, estimator)
        session.extra_state = {
            key: value for key, value in state.items() if key != "spec"
        }
        return session

    def to_bytes(self) -> bytes:
        """Alias of :meth:`snapshot` (estimator-style serialization API)."""
        return self.snapshot()

    def drain(self) -> "Session":
        """Block until every in-flight ingestion batch is in shard state.

        Sharded estimators with a process executor ingest asynchronously
        (bounded backlog, lazy drain); this forces the consistency point —
        after it returns, :meth:`estimate` and :meth:`snapshot` reflect
        every batch previously passed to :meth:`ingest`.  A shard worker
        that died mid-stream raises here instead of hanging.  No-op for
        synchronous estimators.
        """
        drain = getattr(self._estimator, "drain", None)
        if drain is not None:
            with self._timed("drain"):
                drain()
        return self

    def save(
        self,
        path,
        *,
        embed: Optional[bool] = None,
        extra_state: Optional[dict] = None,
    ) -> int:
        """Drain, :meth:`snapshot`, and write the buffer to ``path``.

        The write is durable and atomic (:func:`atomic_write`: temp file,
        fsync, ``os.replace``, directory fsync), so a crash — or a SIGTERM
        racing the shutdown snapshot, or a power cut right after — can never
        leave a truncated or unpersisted snapshot behind: ``path`` either
        holds the previous snapshot or the complete new one.  Returns the
        number of bytes written.
        """
        self.drain()
        with self._timed("snapshot"):
            blob = self.snapshot(embed=embed, extra_state=extra_state)
            atomic_write(path, blob)
        return len(blob)

    def hot_swap(self, spec, estimator, *, close_old: bool = True):
        """Replace the live estimator (and its spec) in place; returns the old.

        This is the session half of online re-optimization (see
        :mod:`repro.temporal.reopt`): a freshly trained estimator takes
        over while the session object — and every reference callers hold
        to it — stays valid.  The new estimator inherits the session's
        instrumentation.  With ``close_old=False`` the previous estimator
        is returned still-live (not closed) so the caller can audit or
        archive it; otherwise its pools/storage are released first.
        """
        spec = spec_from_dict(spec)
        old = self._estimator
        self._spec = spec
        self._estimator = estimator
        if self._metrics is not None:
            cascade = getattr(estimator, "instrument", None)
            if cascade is not None:
                cascade(self._metrics)
        if close_old:
            close = getattr(old, "close", None)
            if close is not None:
                close()
        return old

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor pools (no-op for unsharded estimators)."""
        close = getattr(self._estimator, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def open(
    spec,
    *,
    options: Optional[Options] = None,
) -> Session:
    """Build the estimator ``spec`` describes and wrap it in a Session.

    ``spec`` may be any :class:`~repro.api.specs.EstimatorSpec` or its
    JSON-safe dict form.  Construction options travel in ``options``
    (a :class:`~repro.api.options.Options`): the observed ``prefix`` (and
    optional ``featurizer``) for training kinds, ``metrics`` to instrument
    the session (see :meth:`Session.instrument`), and ``backend`` to
    override the spec's kernel backend.
    """
    opts = resolve_options("open", options)
    spec = spec_from_dict(spec)
    if opts.backend is not None:
        from repro.api.registry import spec_with_backend

        spec = spec_with_backend(spec, opts.backend)
    return Session(
        spec,
        build(spec, prefix=opts.prefix, featurizer=opts.featurizer),
        metrics=opts.metrics,
    )


def restore(
    data: bytes,
    *,
    options: Optional[Options] = None,
) -> Session:
    """Rebuild a session from a :meth:`Session.snapshot` buffer.

    Only ``Options.metrics`` applies here — the snapshot records its own
    spec (including any pinned kernel backend).
    """
    opts = resolve_options("restore", options)
    session = Session.from_bytes(data)
    if opts.metrics is not None:
        session.instrument(opts.metrics)
    return session


def load(
    path,
    *,
    options: Optional[Options] = None,
) -> Session:
    """Rebuild a session from a :meth:`Session.save` file.

    Accepts the same options as :func:`restore`.
    """
    opts = resolve_options("load", options)
    with builtins.open(os.fspath(path), "rb") as handle:
        return restore(handle.read(), options=opts)
