"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

    python3 perfbench/spread.py --workload opthash-zipf --seeds 1 2 3 4 5

Runs the benchmark once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``), then prints for every end-to-end metric its median and
the distance between the first and third quartile as a share of the median,
next to the metric's bound.  A metric is steady when that share stays below
a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: correctness check failed")
        wall = time.perf_counter() - start
        print(f"seed {seed}: {wall:.1f} s wall", flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
    worst = 0.0
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        samples = values[name]
        q1, med, q3 = statistics.quantiles(samples, n=4)
        share = (q3 - q1) / med
        flag = "" if share < bound / 3 else "  <-- above bound/3"
        worst = max(worst, share / bound)
        print(f"{name:<28} median={med:<14.6g} iqr/median={share:.4f}  bound={bound}{flag}")
    print(f"worst spread as a share of its bound: {worst:.3f}")


if __name__ == "__main__":
    main()
