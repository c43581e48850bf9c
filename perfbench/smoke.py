"""Run every workload, untraced and traced, and check what each prints.

    python3 perfbench/smoke.py                 # tiny scale, about a minute
    python3 perfbench/smoke.py --scale full    # all end-to-end and per-layer metrics

Checks that each run passes its correctness checks and prints every metric
``BENCHMARK.json`` names, with its unit, both on its own line and in the
final JSON object; each run's metric lines are echoed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=("tiny", "full"), default="tiny")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = "1" if args.scale == "tiny" else str(spec["run_seconds"])
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                 "--seconds", seconds, "--trace", str(trace), "--scale", args.scale],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            label = f"{workload} trace={trace}"
            found = len(problems)
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}\n{out.stderr[-2000:]}")
                print(f"{label}: FAILED", flush=True)
                continue
            lines = out.stdout.strip().splitlines()
            print(f"== {label}")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            if not result["correct"]:
                problems.append(f"{label}: correctness check failed")
            for name, unit in expected[trace].items():
                metric = result["metrics"].get(name)
                if metric is None or metric["unit"] != unit:
                    problems.append(f"{label}: {name} missing or not in {unit} in the result")
                if not any(line.split()[:1] == [name] and unit in line.split() for line in lines[:-1]):
                    problems.append(f"{label}: no printed line for {name} [{unit}]")
            print(f"{label}: {'ok' if len(problems) == found else 'FAILED'}", flush=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    print("smoke run passed: every metric printed with its unit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
