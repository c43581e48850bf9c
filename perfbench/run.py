"""Layered benchmark of the repository: one command, two workloads.

    python3 perfbench/run.py --workload opthash-zipf --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` replays the workload with spans
around each call into a layer and reports the per-layer metrics instead.
The metric names and units come from ``BENCHMARK.json``; ``perfbench/
README.md`` explains the workloads and which layer metric should move which
end-to-end metric.  The gated timings are scaled to a reference host speed
(``perfbench/hostspeed.py``); the raw wall-clock medians are printed too.

Every metric is printed as one line (name, unit, median, the highest
percentile with at least ten samples beyond it, sample count), then the
environment block, and last one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A failed correctness check prints ``"correct": false`` and exits 1.  Full
records (samples summaries, spans per layer, environment) are written to
``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import traceback

import common
import hostspeed
from common import CheckFailed, median, well_sampled

WORKLOADS = ("learn-synthetic", "opthash-zipf")
LOCAL_SETUP_REPEATS = {"full": 7, "tiny": 2}
#: Program processes per untraced local run (see perfbench/local.py).
LOCAL_PROCESSES = 2
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is the smoke-test scale",
    )
    return parser.parse_args(argv)


def load_metric_units(paths):
    spec = json.loads((paths.root / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def distribution(samples, scale=1.0):
    """Median plus the best-sampled tail percentile of latency samples."""
    q, tail = well_sampled(samples)
    return {"median": common.percentile(samples, 50.0) * scale, "q": q, "tail": tail * scale, "n": len(samples)}


def end_to_end(report):
    """``name -> (value, sample count)`` plus the latency tail summaries.

    The timings are at the reference host speed (perfbench/hostspeed.py)
    and are medians over many samples per run: ``setup_s`` over fresh
    set-up processes, ``build_s`` over builds, ``ingest_eps`` and
    ``query_eps`` over the stretches of calls between two reference runs.
    """
    tails = {kind: distribution(report[f"{kind}_lat"], 1e3) for kind in ("ingest", "query")}
    return {
        name: (median(report[name]), len(report[name]))
        for name in ("setup_s", "build_s", "ingest_eps", "query_eps")
    } | {
        "avg_abs_error": (report["avg_abs_error"], 1),
        "expected_magnitude_error": (report["expected_magnitude_error"], 1),
        "peak_rss_mb": (report["peak_rss_mb"], 1),
    }, tails


def run_local(paths, args, workdir):
    """Generate inputs, run the program processes, check and merge their reports."""
    import local
    import numpy as np

    inputs = local.prepare(args.workload, args.scale, args.seed, workdir)
    setup = []
    if not args.trace:
        setup = common.measure_local_setup(paths, LOCAL_SETUP_REPEATS[args.scale])
    processes = 1 if args.trace else LOCAL_PROCESSES
    reports = []
    errors = None
    first_estimates = None
    for index in range(processes):
        child = subprocess.run(
            [
                sys.executable,
                str(paths.bench / "local.py"),
                args.workload,
                args.scale,
                str(workdir),
                str(args.trace),
                str(args.seconds / processes),
                str(index),
            ],
            env=paths.child_env(),
            cwd=paths.bench,
            timeout=CHILD_TIMEOUT_S,
        )
        if child.returncode == local.CHECK_FAILED_EXIT:
            raise CheckFailed((workdir / f"failed{index}.txt").read_text())
        if child.returncode != 0:
            raise RuntimeError(f"program process exited with code {child.returncode}")
        reports.append(json.loads((workdir / f"report{index}.json").read_text()))
        outputs = np.load(workdir / f"outputs{index}.npz")
        measured = local.evaluate(args.workload, args.scale, inputs, outputs)
        if first_estimates is None:
            errors, first_estimates = measured, outputs["estimates"]
        else:
            common.check(
                np.array_equal(first_estimates, outputs["estimates"]),
                "program processes given the same inputs disagree",
            )
    if args.trace:
        report = reports[0]
    else:
        merged = lambda key: [x for r in reports for x in r[key]]  # noqa: E731
        report = {
            "setup_s": [scaled for scaled, _ in setup],
            "build_s": merged("build_s"),
            "ingest_eps": merged("ingest_eps"),
            "query_eps": merged("query_eps"),
            "wall": {
                "setup_s": [wall for _, wall in setup],
                **{key: [x for r in reports for x in r["wall"][key]] for key in reports[0]["wall"]},
            },
            "reference_s": merged("reference_s"),
            "sessions": sum(r["sessions"] for r in reports),
            "ingest_lat": merged("ingest_lat"),
            "query_lat": merged("query_lat"),
            "attempted": sum(r["attempted"] for r in reports),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
            "kernel_backend": reports[0]["kernel_backend"],
        }
    report.update(errors)
    report["failed"] = 0
    return report


def add_service_layers(paths, args, workdir, report):
    """Measure the service, WAL and sharding layers on the same Zipf source."""
    import service_load

    service = service_load.trace_layers(paths, workdir, args.scale, args.seed)
    report["metrics"].update(service["metrics"])
    report["layers"].update(service["layers"])
    report["attempted"] += service["attempted"]
    report["failed"] += service["failed"]


def main(argv=None):
    args = parse_args(argv)
    paths = common.Paths(os.getcwd())
    paths.validate()
    paths.activate()
    e2e_units, layer_units = load_metric_units(paths)
    workdir = paths.build / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    correct = True
    try:
        compiled, backend = common.warm_kernel_cache(paths)
        env = common.environment(paths, compiled, backend)
        report = run_local(paths, args, workdir)
        if args.trace and args.workload == "opthash-zipf":
            add_service_layers(paths, args, workdir, report)
        env["kernel_backend_workload"] = report.get("kernel_backend")
        determinism = {
            "avg_abs_error": report["avg_abs_error"],
            "expected_magnitude_error": report["expected_magnitude_error"],
        }
        if args.trace:
            report["import_s"] = common.measure_import(paths, 3)
            report["metrics"]["setup.import_s"] = median(report["import_s"])
            for name in ("optimize.bcd.sweeps", "optimize.objective"):
                if name in report["metrics"]:
                    determinism[name] = report["metrics"][name]
        common.DeterminismLedger(paths).verify(
            f"{args.workload}:{args.scale}:{args.seed}", determinism
        )
    except CheckFailed as failure:
        print(f"CORRECTNESS CHECK FAILED: {failure}", file=sys.stderr)
        correct = False
        report = None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not correct:
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env}
    if args.trace:
        values = {name: float(report["metrics"].get(name, 0.0)) for name in layer_units}
        units = layer_units
        for name in layer_units:
            print(f"{name:<44} {values[name]:>16.6g} {units[name]}")
        record["layers"] = report["layers"]
        record["import_s"] = report["import_s"]
    else:
        measured, tails = end_to_end(report)
        values = {name: float(measured[name][0]) for name in e2e_units}
        units = e2e_units
        for name in e2e_units:
            value, n = measured[name]
            print(f"{name:<28} {value:>16.6g} {units[name]:<8} n={n}")
        for kind, tail in tails.items():
            print(
                f"{kind + '_latency':<28} median={tail['median']:.4g} ms  "
                f"p{tail['q']:g}={tail['tail']:.4g} ms  n={tail['n']}"
            )
        for name, samples in report["wall"].items():
            print(f"{name + ' (wall)':<28} {median(samples):>16.6g} {units[name]:<8} n={len(samples)}")
        print(f"{'reference (host speed)':<28} {median(report['reference_s']):>16.6g} s        "
              f"n={len(report['reference_s'])} (at {hostspeed.REFERENCE_S:g} s the timings above equal wall time)")
        record["tails"] = tails
        record["samples"] = {name: report[name] for name in ("setup_s", "build_s")}
        record["wall"] = report["wall"]
        record["reference_s"] = {"median": median(report["reference_s"]), "n": len(report["reference_s"])}
        record["windowed_ms"] = {
            f"{kind}_p{q:g}": common.windowed_percentile(report[f"{kind}_lat"], q) * 1e3
            for kind in tails
            for q in (50.0, 90.0, 95.0, 99.0)
        }
    record["values"] = values
    print("environment " + json.dumps(env, sort_keys=True))
    results = paths.build / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 — any crash is a failed run, never a result
        traceback.print_exc()
        sys.exit(2)
