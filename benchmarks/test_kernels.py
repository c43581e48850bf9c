"""Kernel-backend speedup gate: compiled ingest must beat NumPy by >= 5x.

Measures CMS / CountSketch batch ingest (the service hot path) and the
query paths on every available compiled backend against the NumPy
reference, asserts the ingest gate, and records the per-kernel trajectory
in ``benchmarks/results/BENCH_kernels.json``.  Where no C compiler is
available the gate *skips* (recording why) — it never fails for a missing
toolchain, matching the no-compiled CI leg.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import benchmark_scale, save_result
from repro import kernels
from repro.sketches import CountMinSketch, CountSketch

INGEST_GATE = 5.0


def _zipf_keys(num: int, support: int = 50_000, seed: int = 3) -> np.ndarray:
    from repro.streams.zipf import ZipfSampler

    rng = np.random.default_rng(seed)
    return ZipfSampler(support, rng=rng).sample(num).astype(np.int64)


def _best_seconds(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _measure(backend: str, keys: np.ndarray, chunk: int = 65_536) -> dict:
    """Ingest/query rates (elements/sec) for both gated sketches."""

    def run(factory, method):
        sketch = factory()
        if method == "query":
            sketch.update_batch(keys)

        def body():
            op = sketch.update_batch if method == "ingest" else sketch.estimate_batch
            for start in range(0, len(keys), chunk):
                op(keys[start : start + chunk])

        return len(keys) / _best_seconds(body)

    def cms():
        return CountMinSketch(width=16_384, depth=4, seed=1, backend=backend)

    def cs():
        return CountSketch(width=16_384, depth=4, seed=1, backend=backend)

    return {
        "cms_ingest": round(run(cms, "ingest")),
        "cms_query": round(run(cms, "query")),
        "cs_ingest": round(run(cs, "ingest")),
        "cs_query": round(run(cs, "query")),
    }


def test_compiled_ingest_speedup_gate():
    compiled = [name for name in kernels.available_backends() if name != "numpy"]
    num_keys = max(200_000, int(2_000_000 * benchmark_scale()))
    keys = _zipf_keys(num_keys)

    record = {
        "workload": f"{num_keys:,} zipf int64 keys, width=16384 depth=4",
        "gate": f">= {INGEST_GATE}x over numpy for cms/cs batch ingest",
        "available_backends": list(kernels.available_backends()),
        "backends": {"numpy": _measure("numpy", keys)},
    }
    numpy_rates = record["backends"]["numpy"]

    speedups = {}
    for backend in compiled:
        rates = _measure(backend, keys)
        record["backends"][backend] = rates
        speedups[backend] = {
            op: round(rates[op] / numpy_rates[op], 2) for op in numpy_rates
        }
    record["speedups_vs_numpy"] = speedups

    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_kernels.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    lines = [f"Kernel backends ({record['workload']})"]
    for backend, rates in record["backends"].items():
        lines.append(f"  {backend}:")
        for op, rate in rates.items():
            note = (
                f"  ({speedups[backend][op]:.1f}x numpy)"
                if backend in speedups
                else ""
            )
            lines.append(f"    {op:<11}: {rate:>14,.0f} el/s{note}")
    save_result("kernel_backends", "\n".join(lines))

    if not compiled:
        reasons = {
            name: kernels.unavailable_reason(name)
            for name in kernels.BACKEND_NAMES
            if name != "numpy"
        }
        pytest.skip(f"no compiled kernel backend available: {reasons}")
    for backend in compiled:
        for op in ("cms_ingest", "cs_ingest"):
            assert speedups[backend][op] >= INGEST_GATE, (
                f"{backend} {op} speedup {speedups[backend][op]:.2f}x "
                f"< {INGEST_GATE}x gate (see BENCH_kernels.json)"
            )
