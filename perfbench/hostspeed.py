"""Host speed: a fixed reference task timed beside the program.

On a virtual machine shared with other tenants the program's speed follows
the neighbours' load: from one second to the next it changes by a third,
and over minutes its level drifts by half or more, with no steal time
reported (the slowdown is in the shared hardware, so CPU time shows it as
much as wall time).  A gated timing therefore has the host's speed divided
out: the benchmark times a small fixed task (:func:`reference`, plain
Python and NumPy in the same mix of dictionary lookups, small objects and
short array calls as the program's hot paths) right beside each stretch of
program work, and scales the stretch's time by ``REFERENCE_S / reference
time``.  The result reads as the program's time on a host where the
reference takes ``REFERENCE_S`` (about its time on an idle host of this
kind), and it moves exactly in proportion with the program's own speed: the
reference runs nothing of the package.

Two ways of putting the reference beside the work:

* explicitly, after every stretch of a few calls (ingest and query passes);
* :class:`Sampler`: an interval timer runs the reference every
  ``INTERVAL_S`` seconds *inside* one long call (a build, a start-up), and
  the time the reference took is taken out of the call's time again.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

#: Seconds the reference takes on an idle host of the kind the benchmark
#: was written on (2 vCPUs of an Intel Xeon, model 207); the unit of the
#: scaled timings.
REFERENCE_S = 3.7e-4
#: How often :class:`Sampler` runs the reference inside a call.
INTERVAL_S = 0.02

_rng = np.random.default_rng(20220501)
_KEYS = _rng.integers(0, 1 << 20, 2048).tolist()
_TABLE = {key: key % 20 for key in _KEYS[::3]}
_EDGES = np.sort(_rng.normal(size=255))


class _Item:
    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key


def reference():
    """Run the reference task once; return its wall seconds."""
    start = time.perf_counter()
    found = []
    for key in _KEYS:
        bucket = _TABLE.get(key)
        if bucket is not None:
            found.append(bucket)
    totals = np.zeros(20)
    np.add.at(totals, np.asarray(found, dtype=np.int64), 1.0)
    items = [_Item(key) for key in _KEYS[:512]]
    features = np.array([[np.log1p(float(item.key))] for item in items[:256]])
    np.searchsorted(_EDGES, features[:, 0] - 13.0)
    np.fromiter((_TABLE.get(item.key, 0) for item in items), dtype=np.int64, count=len(items))
    return time.perf_counter() - start


def scale_seconds(seconds, reference_s):
    """Program seconds at the reference host speed."""
    return seconds * REFERENCE_S / reference_s


class Sampler:
    """Reference runs inside one long call, every ``INTERVAL_S`` seconds.

    ``with sampler.measure() as timing: call()`` sets ``timing.seconds`` to
    the call's wall time less the references run inside it, and
    ``timing.reference_s`` to the median reference time seen (a reference
    runs before and after the call too, so a short call has two).  The
    timer's handler runs between Python bytecodes of the main thread, so
    the reference never runs in the middle of a C call.
    """

    def __init__(self):
        self._samples = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy or self._samples is None:
            return
        self._busy = True
        try:
            self._samples.append(reference())
        finally:
            self._busy = False

    @contextlib.contextmanager
    def measure(self):
        timing = _Timing()
        edges = [reference()]
        self._samples = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            elapsed = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
            inside, self._samples = self._samples, None
        edges.append(reference())
        timing.wall_s = elapsed
        timing.seconds = elapsed - sum(inside)
        timing.references_s = sum(inside) + sum(edges)
        timing.reference_s = statistics.median(inside + edges)
        timing.scaled_s = scale_seconds(timing.seconds, timing.reference_s)


class _Timing:
    """``wall_s``: the call; ``seconds``: the call less the references in it;
    ``references_s``: all reference runs, the two around the call included;
    ``reference_s``: their median; ``scaled_s``: ``seconds`` at the
    reference host speed."""

    wall_s = seconds = references_s = reference_s = scaled_s = float("nan")
