"""Shared pieces of the benchmark: statistics, set-up probes, environment block.

Everything here runs in the benchmark's own processes.  The package under
test is imported from the checkout's ``src/`` directory only (never from an
installed copy), and every file the benchmark writes lives under the
checkout's ``.bench_build/`` directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)

#: The baseline Count-Min job: the service's inner spec, and the
#: single-threaded yardstick every workload's ingest keys are run through.
CMS_SPEC = {"kind": "count_min", "total_buckets": 1 << 18, "depth": 2, "seed": 7}


class CheckFailed(Exception):
    """A correctness check of the program's outputs failed."""


def check(condition, message):
    if not condition:
        raise CheckFailed(message)


def percentile(samples, q):
    """Linear-interpolated percentile (NumPy's default rule)."""
    ordered = sorted(samples)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def well_sampled(samples):
    """``(q, value)`` for the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    for q in PERCENTILES:
        if n * (100.0 - q) / 100.0 >= 10:
            return q, percentile(samples, q)
    return 50.0, percentile(samples, 50.0)


def windowed_percentile(samples, q, window=1000):
    """Median over consecutive ``window``-sample windows of each window's ``q``-th percentile.

    With the default window each window has ten samples beyond its p99;
    taking the median across windows keeps one stalled stretch of a run
    from setting the result.  Falls back to the percentile of all samples
    when there are too few for one window (smoke-test scale).
    """
    windows = [samples[i : i + window] for i in range(0, len(samples) - window + 1, window)]
    if not windows:
        return percentile(samples, q)
    return median([percentile(w, q) for w in windows])


def median(values):
    return float(statistics.median(values))


class Paths:
    """Where things live inside one checkout."""

    def __init__(self, root):
        self.root = Path(root).resolve()
        self.src = self.root / "src"
        self.bench = self.root / "perfbench"
        self.build = self.root / ".bench_build"
        self.kernel_cache = self.build / "kernels"

    def validate(self):
        package = self.src / "repro" / "__init__.py"
        if not package.is_file():
            raise SystemExit(
                f"perfbench: no package source at {package}; run from the root "
                "of a checkout of the repository"
            )

    def child_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.src)
        env["REPRO_KERNELS_CACHE"] = str(self.kernel_cache)
        env.pop("REPRO_KERNELS_DISABLE", None)
        env.pop("REPRO_FAILPOINTS", None)
        return env

    def activate(self):
        """Make this process import the checkout's package, not another copy."""
        os.environ["REPRO_KERNELS_CACHE"] = str(self.kernel_cache)
        os.environ.pop("REPRO_KERNELS_DISABLE", None)
        os.environ.pop("REPRO_FAILPOINTS", None)
        sys.path.insert(0, str(self.src))
        import repro

        origin = Path(repro.__file__).resolve()
        if self.src not in origin.parents:
            raise SystemExit(f"perfbench: imported repro from {origin}, not {self.src}")


def warm_kernel_cache(paths):
    """Compile the on-demand C kernels outside any timed region.

    Returns ``(compiled, backend)``: whether this call had to compile (the
    cache held no artifact before) and the backend ``auto`` resolves to.
    """
    paths.kernel_cache.mkdir(parents=True, exist_ok=True)
    before = {p.name for p in paths.kernel_cache.glob("*.so")}
    out = subprocess.run(
        [sys.executable, "-c", "import repro.kernels as k; print(k.default_backend())"],
        env=paths.child_env(),
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    after = {p.name for p in paths.kernel_cache.glob("*.so")}
    return bool(after - before), out.stdout.strip().splitlines()[-1]


_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import hostspeed
with hostspeed.Sampler().measure() as timing:
    import repro
    repro.kernels.get_backend("auto")
print("ready", timing.references_s, timing.reference_s, flush=True)
sys.stdin.readline()
"""


def measure_local_setup(paths, repeats):
    """Fresh-process ``import repro`` plus kernel-backend load, ``repeats`` times.

    Timed from process launch until the child reports ready, as a user of
    the library pays it.  The child runs the host-speed reference during
    its imports (``hostspeed.Sampler``) and reports how long those runs
    took in all and their median, so each sample is ``(scaled, wall)``:
    the launch-to-ready seconds less the references, at the reference host
    speed, and as measured.  The child then exits on the parent's signal.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE, str(paths.bench)],
            env=paths.child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            wall_s = time.perf_counter() - start
            words = line.split()
            check(len(words) == 3 and words[0] == "ready", f"set-up probe failed: {line!r}")
            references_s, reference_s = float(words[1]), float(words[2])
            samples.append((hostspeed.scale_seconds(wall_s - references_s, reference_s), wall_s))
            child.stdin.write("\n")
            child.stdin.flush()
        finally:
            child.stdin.close()
            child.wait(timeout=60)
            child.stdout.close()
    return samples


_IMPORT_PROBE = """
import time
start = time.perf_counter()
import repro
print(time.perf_counter() - start)
"""


def measure_import(paths, repeats):
    """Seconds spent in ``import repro`` alone, measured inside fresh processes."""
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=paths.child_env(),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def peak_rss_mb():
    """This process's peak resident set (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_children(pid):
    children = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        children.extend(int(child) for child in text)
    return children


def _running(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def wait_gone(pids, timeout=10.0):
    """Wait until processes this run caused to start (not its own children) end.

    Anything still running at the deadline is killed.
    """
    deadline = time.monotonic() + timeout
    while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.02)
    for pid in pids:
        if _running(pid):
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def stop_resource_tracker():
    """Stop this process's multiprocessing resource tracker and wait for it.

    Shared-memory shards start the tracker as a child process that would
    otherwise only exit after this process has; ``_stop`` closes its pipe
    and reaps it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(paths, kernel_compiled, kernel_backend):
    import multiprocessing

    import numpy

    versions = {}
    for name in ("scipy", "numba"):
        try:
            versions[name] = __import__(name).__version__
        except ImportError:
            versions[name] = None
    src_lines = sum(
        len(path.read_bytes().splitlines()) for path in paths.src.rglob("*.py")
    )
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": versions["scipy"],
        "numba": versions["numba"],
        "kernel_backend_auto": kernel_backend,
        "kernel_compiled_in_warmup": kernel_compiled,
        "mp_start_method": multiprocessing.get_start_method(),
        "src_lines": src_lines,
    }


class DeterminismLedger:
    """Values that must repeat exactly at one seed, across runs of one source tree.

    Entries are keyed by a digest of the package and benchmark sources, so
    a different version of the code never meets another version's values.
    """

    def __init__(self, paths):
        self.path = paths.build / "determinism.json"
        digest = hashlib.sha256()
        for root in (paths.src, paths.bench):
            for source in sorted(root.rglob("*.py")):
                digest.update(source.relative_to(paths.root).as_posix().encode())
                digest.update(source.read_bytes())
        self.tree = digest.hexdigest()[:16]

    def verify(self, key, values):
        key = f"{self.tree}:{key}"
        ledger = json.loads(self.path.read_text()) if self.path.exists() else {}
        previous = ledger.get(key, {})
        for name, value in values.items():
            if name in previous:
                check(
                    previous[name] == value,
                    f"{key}: {name} changed across runs at one seed "
                    f"({previous[name]!r} then {value!r})",
                )
        previous.update(values)
        ledger[key] = previous
        tmp = self.path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


def cms_yardstick(keys, batch_size):
    """Single-threaded Count-Min ingest of the same keys, per kernel backend."""
    import repro
    from spans import Tracer

    metrics = {}
    for backend in ("numpy", "auto"):
        tracer = Tracer()
        session = repro.open(dict(CMS_SPEC, backend=backend))
        tracer.wrap(
            session.estimator,
            "update_batch",
            "kernels.count_min.update_batch",
            count_items=lambda args, kwargs: len(args[0]),
        )
        for start in range(0, len(keys), batch_size):
            session.estimator.update_batch(keys[start : start + batch_size])
        layer = tracer.total("kernels.count_min.update_batch")
        metrics[f"kernels.count_min.update_batch_eps.{backend}"] = layer["items"] / layer["total_s"]
    return metrics
