"""Instrumentation plumbing: session stages, replay, sharding, worker pool.

One registry threads through the whole tree (session → sharded estimator →
worker pool); these tests assert each layer actually lands its series, and
that the un-instrumented path records nothing.
"""

import numpy as np
import pytest

import repro.api as api
from repro.core.pipeline import replay
from repro.core.sharding import ShardedEstimator
from repro.obs import MetricsRegistry

CMS_SPEC = {"kind": "count_min", "total_buckets": 4096, "depth": 2, "seed": 3}
SHM_SPEC = {
    "kind": "sharded",
    "inner": CMS_SPEC,
    "num_shards": 2,
    "mode": "round-robin",
    "executor": "process",
    "transport": "shm",
}


def test_session_records_stage_timings(tmp_path):
    registry = MetricsRegistry()
    session = api.open(CMS_SPEC, options=api.Options(metrics=registry))
    keys = np.arange(1000, dtype=np.int64)
    session.ingest(keys)
    session.estimate(keys[:10])
    session.drain()
    session.save(str(tmp_path / "s.snap"))
    stage = registry.get("repro_session_stage_seconds")
    assert stage.labels(stage="ingest").count == 1
    assert stage.labels(stage="estimate").count == 1
    assert stage.labels(stage="snapshot").count == 1
    # plain CMS has no drain(); only sharded estimators time that stage
    assert stage.labels(stage="drain").count == 0


def test_uninstrumented_session_registers_nothing():
    registry = MetricsRegistry()
    session = api.open(CMS_SPEC)  # no metrics=
    session.ingest(np.arange(100, dtype=np.int64))
    assert registry.samples() == {}
    assert session._metrics is None


def test_replay_records_per_chunk_metrics():
    registry = MetricsRegistry()
    estimator = api.open(CMS_SPEC).estimator
    n = replay(
        estimator, np.arange(10_000, dtype=np.int64), batch_size=4096, metrics=registry
    )
    assert n == 10_000
    assert registry.get("repro_replay_keys_total").value == 10_000
    assert registry.get("repro_replay_chunk_seconds").count == 3  # ceil(10000/4096)


def test_sharded_routing_and_skew_metrics():
    registry = MetricsRegistry()
    sharded = ShardedEstimator(CMS_SPEC, num_shards=4).instrument(registry)
    try:
        sharded.update_batch(np.arange(8_000, dtype=np.int64))
        routing = registry.get("repro_sharded_routing_seconds")
        assert routing.count == 1
        per_shard = registry.get("repro_sharded_keys_total")
        total = sum(
            per_shard.labels(shard=str(index)).value for index in range(4)
        )
        assert total == 8_000
        sharded.sync_metrics()
        assert registry.get("repro_sharded_pending_batches").value == 0
    finally:
        sharded.close()


def test_restored_session_cascades_instrumentation(tmp_path):
    path = str(tmp_path / "s.snap")
    api.open(CMS_SPEC).save(path)
    registry = MetricsRegistry()
    session = api.load(path, options=api.Options(metrics=registry))
    session.ingest(np.arange(500, dtype=np.int64))
    stage = registry.get("repro_session_stage_seconds")
    assert stage.labels(stage="ingest").count == 1


def test_worker_pool_metrics_via_shm_sharded():
    registry = MetricsRegistry()
    sharded = ShardedEstimator(
        CMS_SPEC,
        num_shards=2,
        mode="round-robin",
        executor="process",
        transport="shm",
    ).instrument(registry)
    try:
        sharded.warm_up()
        keys = np.arange(20_000, dtype=np.int64)
        sharded.update_batch(keys)
        sharded.drain()
        sharded.sync_metrics()
        samples = registry.samples()
        submitted = sum(
            value
            for name, value in samples.items()
            if name.startswith("repro_pool_submitted_batches_total")
        )
        acked = sum(
            value
            for name, value in samples.items()
            if name.startswith("repro_pool_acked_batches_total")
        )
        assert submitted >= 2  # one batch per shard at minimum
        assert acked == submitted  # drained
        assert samples["repro_sharded_pending_batches"] == 0
        assert registry.get("repro_pool_queue_wait_seconds").count >= 2
        assert registry.get("repro_pool_worker_deaths_total").value == 0
        # pool-level point-in-time stats agree
        stats = sharded._worker_pool.stats()
        assert sum(w["acked"] for w in stats["workers"]) == acked
        assert all(w["scatter_seconds"] >= 0 for w in stats["workers"])
    finally:
        sharded.close()
    # after close the workers are gone; estimates still answer
    assert sharded.estimate_batch(np.array([5], dtype=np.int64))[0] >= 1
