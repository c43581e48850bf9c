"""Service, WAL and sharding layers, traced beside ``opthash-zipf``.

The durable sharded service is not a gated workload: on a 2-vCPU shared
host its end-to-end figures swing more between runs than any allowed bound
(see perfbench/README.md).  Its layers are measured here instead, on the
same Zipf source, by the traced run of ``opthash-zipf``.

``python -m repro.service`` runs in its own process and serves a sharded
Count-Min (2 key-partition shards, process executor, shm transport) with a
write-ahead log.  The load is a closed loop from this process: one writer
connection sends fixed-size int-key ingest batches and waits for each ack,
while one reader connection concurrently issues 256-key ``estimate``
requests, each sent when the previous answer arrived.  A *pass* sends the
whole seeded stream and ends with ``flush``; there are exactly two, the
first untraced and the second with spans around each request.  After each
pass the drained estimates must equal, bit for bit, a serial Count-Min fed
every acknowledged key.

The WAL and sharding layers are then timed on the same batches directly:
``ShardWAL.append`` in this process, and the service's spec as an
in-process ``ShardedEstimator`` in a fresh process (this file run as a
script), so its worker forks copy a small parent rather than the
benchmark's inputs.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading

import numpy as np

from common import CMS_SPEC, check, proc_children, stop_resource_tracker, wait_gone
from spans import Tracer, no_span

SPEC = {
    "kind": "sharded",
    "inner": CMS_SPEC,
    "num_shards": 2,
    "mode": "key-partition",
    "executor": "process",
    "transport": "shm",
}

CONFIGS = {
    "full": {
        "support": 1_000_000,
        "exponent": 1.1,
        "pass_length": 8_000_000,
        "num_queries": 1 << 17,
        "ingest_batch": 8192,
        "query_batch": 256,
        "check_batch": 16384,
    },
    "tiny": {
        "support": 100_000,
        "exponent": 1.1,
        "pass_length": 100_000,
        "num_queries": 4096,
        "ingest_batch": 8192,
        "query_batch": 256,
        "check_batch": 4096,
    },
}

_BANNER = re.compile(r"listening on \('([^']+)', (\d+)\)")


def prepare(scale, seed):
    from repro.streams import ZipfSampler

    config = CONFIGS[scale]
    sampler = ZipfSampler(
        config["support"], exponent=config["exponent"], rng=np.random.default_rng(seed)
    )
    return {
        "keys": sampler.sample(config["pass_length"]).astype(np.int64) + 1,
        "queries": np.arange(1, config["num_queries"] + 1, dtype=np.int64),
    }


class Service:
    """One ``python -m repro.service`` process with its own WAL directory."""

    def __init__(self, paths, workdir):
        self.wal_dir = workdir / "service-wal"
        self.log = open(workdir / "service.log", "w")
        command = [
            sys.executable, "-m", "repro.service",
            "--spec", json.dumps(SPEC),
            "--host", "127.0.0.1", "--port", "0",
            "--wal-dir", str(self.wal_dir), "--wal-sync", "os",
        ]
        self.process = subprocess.Popen(
            command,
            env=paths.child_env(),
            cwd=workdir,
            stdout=subprocess.PIPE,
            stderr=self.log,
            text=True,
        )
        banner = self.process.stdout.readline()
        match = _BANNER.search(banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not start: {banner!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def client(self):
        from repro.service import StreamingClient

        return StreamingClient.connect(host=self.host, port=self.port)

    def stop(self, client=None):
        children = proc_children(self.process.pid) if self.process.poll() is None else []
        try:
            if client is not None and self.process.poll() is None:
                client.shutdown()
            self.process.wait(timeout=60)
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30)
            # Shard workers and the resource tracker outlive the service by
            # a moment (or for good, after a kill): wait for them or end them.
            wait_gone(children)
            self.process.stdout.close()
            self.log.close()
            shutil.rmtree(self.wal_dir, ignore_errors=True)


class Reader(threading.Thread):
    """Closed-loop reader: one 256-key ``estimate`` after another."""

    def __init__(self, client, queries, batch, seed, tracer):
        super().__init__(daemon=True)
        self.client = client
        self.queries = queries
        self.batch = batch
        self.rng = np.random.default_rng(seed + 1)
        self.tracer = tracer
        self.stopped = threading.Event()
        self.error = None

    def run(self):
        try:
            while not self.stopped.is_set():
                keys = self.queries[self.rng.integers(len(self.queries), size=self.batch)]
                with self.tracer.span("service.estimate", items=len(keys)):
                    self.client.estimate(keys)
        except Exception as error:  # noqa: BLE001 — reported as a failed run
            self.error = error


def _estimate_all(client, queries, chunk):
    return np.concatenate(
        [client.estimate(queries[start : start + chunk]) for start in range(0, len(queries), chunk)]
    )


def _send_pass(writer, keys, batch, span, tag):
    """One pass of acked ingest batches, then ``flush``; returns the acked count."""
    acked = 0
    for seq, begin in enumerate(range(0, len(keys), batch)):
        chunk = keys[begin : begin + batch]
        with span("service.ingest", request_id=f"{tag}{seq}", items=len(chunk)):
            acked += writer.ingest(chunk)
    with span("service.flush"):
        writer.flush()
    return acked


def trace_layers(paths, workdir, scale, seed):
    """Per-layer metrics of the service, WAL and sharding layers."""
    import repro

    config = CONFIGS[scale]
    inputs = prepare(scale, seed)
    keys, queries = inputs["keys"], inputs["queries"]
    batch = config["ingest_batch"]
    tracer = Tracer()
    reference = repro.open(CMS_SPEC)
    service = Service(paths, workdir)
    writer = reader_client = None
    try:
        writer = service.client()
        reader_client = service.client()
        reader = Reader(reader_client, queries, config["query_batch"], seed, tracer)
        reader.start()
        acked = 0
        try:
            for index, span in enumerate((no_span, tracer.span)):
                acked += _send_pass(writer, keys, batch, span, f"p{index}-")
                reference.ingest(keys)
                check(
                    np.array_equal(
                        _estimate_all(writer, queries, config["check_batch"]),
                        reference.estimate(queries),
                    ),
                    "drained service estimates differ from a serial Count-Min over all acked keys",
                )
        finally:
            reader.stopped.set()
            reader.join(timeout=60)
        if reader.error is not None:
            raise reader.error
        check(not reader.is_alive(), "reader did not stop")
        check(acked == 2 * len(keys), f"acked {acked} of {2 * len(keys)} sent keys")
        stats = writer.stats()
        samples = writer.metrics()["samples"]
    finally:
        if reader_client is not None:
            reader_client.close()
        service.stop(writer)
        if writer is not None:
            writer.close()
        reference.close()

    def server_mean(op):
        count = samples.get(f'repro_service_request_seconds_count{{op="{op}"}}', 0.0)
        total = samples.get(f'repro_service_request_seconds_sum{{op="{op}"}}', 0.0)
        return total / count if count else 0.0

    ingest = tracer.total("service.ingest")
    metrics = {
        "service.ingest_rtt_s": ingest["total_s"] / ingest["calls"],
        "service.flush_wait_s": tracer.total("service.flush")["total_s"],
        "service.coalesce_ratio": stats["accepted_batches"] / stats["applied_batches"],
        "service.backpressure_stall_s": samples.get(
            "repro_service_backpressure_stall_seconds_total", 0.0
        ),
        "service.request_s.ingest": server_mean("ingest"),
        "service.request_s.estimate": server_mean("estimate"),
    }
    metrics.update(_wal_probe(keys, batch, workdir))
    np.save(workdir / "pass-keys.npy", keys)
    metrics.update(_probe(paths, workdir / "pass-keys.npy", batch))
    ingest_requests = 2 * (len(range(0, len(keys), batch)) + 1)  # batches and a flush per pass
    return {
        "metrics": metrics,
        "layers": tracer.summary(),
        "attempted": ingest_requests + tracer.total("service.estimate")["calls"],
        "failed": int(stats.get("degraded_queries", 0)) + int(stats.get("worker_restarts", 0)),
    }


def _wal_probe(keys, batch, workdir):
    """Direct ``ShardWAL.append`` of one pass's batches."""
    from repro.resilience.wal import ShardWAL

    tracer = Tracer()
    directory = workdir / "wal-probe"
    wal = ShardWAL(directory, sync="os")
    try:
        tracer.wrap(wal, "append", "resilience.wal.append")
        for begin in range(0, len(keys), batch):
            wal.append(keys[begin : begin + batch])
    finally:
        wal.close()
    size = sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())
    shutil.rmtree(directory, ignore_errors=True)
    append = tracer.total("resilience.wal.append")
    return {
        "resilience.wal.append_s": append["total_s"] / append["calls"],
        "resilience.wal.bytes": size,
    }


def _probe(paths, keys_file, batch):
    """Run :func:`_sharding_probe` in a fresh process; returns its metrics."""
    out = subprocess.run(
        [sys.executable, str(paths.bench / "service_load.py"), str(keys_file), str(batch)],
        env=paths.child_env(),
        cwd=paths.bench,
        capture_output=True,
        text=True,
        timeout=150,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _sharding_probe(keys, batch):
    """The service's spec as an in-process ``ShardedEstimator``, one pass."""
    import repro

    tracer = Tracer()
    session = repro.open(SPEC)
    try:
        sharded = session.estimator
        sharded.warm_up()
        tracer.wrap(sharded, "update_batch", "core.sharding.update_batch")
        tracer.wrap(sharded, "drain", "core.sharding.drain")
        for begin in range(0, len(keys), batch):
            sharded.update_batch(keys[begin : begin + batch])
        sharded.drain()
        per_shard = np.bincount(sharded.shard_of_keys(keys), minlength=sharded.num_shards)
    finally:
        session.close()
    return {
        "core.sharding.update_batch_s": tracer.total("core.sharding.update_batch")["total_s"],
        "core.sharding.drain_s": tracer.total("core.sharding.drain")["total_s"],
        "core.sharding.partition_skew": float(per_shard.max() / per_shard.mean()),
    }


if __name__ == "__main__":
    result = _sharding_probe(np.load(sys.argv[1]), int(sys.argv[2]))
    stop_resource_tracker()
    print(json.dumps(result))
