"""Quickstart: learn a hashing scheme from a stream prefix and answer count queries.

This example walks through the full opt-hash workflow on a small synthetic
workload, driven entirely through the declarative ``repro.api`` layer:

1. generate a group-structured stream (Section 6.1 of the paper);
2. describe both estimators as specs — the learned scheme as an
   :class:`~repro.api.specs.OptHashSpec`, the Count-Min baseline as a
   :class:`~repro.api.specs.SketchSpec` with the same memory budget;
3. open sessions, ingest the remaining stream in one pass;
4. answer point (count) queries for seen and unseen elements and compare
   the two estimators.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.evaluation.metrics import average_absolute_error, expected_magnitude_error
from repro.streams.synthetic import SyntheticConfig, SyntheticGenerator


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Generate a synthetic workload: G = 6 groups of elements, a prefix
    #    in which only half of each group may appear, and a stream that is
    #    ten times longer than the prefix.
    # ------------------------------------------------------------------
    generator = SyntheticGenerator(
        SyntheticConfig(num_groups=6, fraction_seen=0.5, seed=0)
    )
    prefix, stream = generator.generate_prefix_and_stream(stream_multiplier=10)
    print(f"prefix arrivals:  {len(prefix):>6}  (distinct: {len(prefix.distinct_elements())})")
    print(f"stream arrivals:  {len(stream):>6}")

    # ------------------------------------------------------------------
    # 2. Declare both estimators.  The opt-hash spec carries the whole
    #    learning-phase configuration (solver and classifier by name); the
    #    learning itself runs when the session opens on the prefix.
    # ------------------------------------------------------------------
    opt_spec = repro.OptHashSpec(
        num_buckets=16, lam=0.5, solver="bcd", classifier="cart", seed=0
    )
    session = repro.open(opt_spec, options=repro.Options(prefix=prefix))
    estimator = session.estimator
    print(
        "learned scheme:   "
        f"{estimator.scheme.num_stored_ids} stored IDs -> {opt_spec.num_buckets} buckets"
    )

    # A Count-Min Sketch with the same total budget (stored IDs count as
    # bucket-equivalents, following the paper's accounting).
    budget = opt_spec.num_buckets + estimator.scheme.num_stored_ids
    cms_spec = repro.SketchSpec("count_min", total_buckets=budget, depth=2, seed=0)
    baseline = repro.open(cms_spec)
    baseline.ingest(prefix)

    # ------------------------------------------------------------------
    # 3. Streaming phase: a single chunked pass over the remaining stream.
    # ------------------------------------------------------------------
    session.ingest(stream)
    baseline.ingest(stream)

    # ------------------------------------------------------------------
    # 4. Query phase: point queries and aggregate error metrics.
    # ------------------------------------------------------------------
    truth = prefix.frequencies()
    for element in stream:
        truth.increment(element.key)
    lookup = {element.key: element for element in generator.universe}

    print("\nsample point queries (true -> opt-hash / count-min):")
    for element in generator.universe[:3] + generator.universe[-3:]:
        print(
            f"  element {element.key:>5}: {truth[element.key]:>6} -> "
            f"{session.estimator.estimate(element):>9.2f} / "
            f"{baseline.estimate_key(element.key):>7.1f}"
        )

    opt_avg = average_absolute_error(session.estimator, truth, element_lookup=lookup)
    cms_avg = average_absolute_error(baseline.estimator, truth, element_lookup=lookup)
    opt_exp = expected_magnitude_error(session.estimator, truth, element_lookup=lookup)
    cms_exp = expected_magnitude_error(baseline.estimator, truth, element_lookup=lookup)
    print(f"\naverage |error| per element:  opt-hash = {opt_avg:8.2f}   count-min = {cms_avg:8.2f}")
    print(f"expected magnitude of error:  opt-hash = {opt_exp:8.2f}   count-min = {cms_exp:8.2f}")
    print(
        f"memory: opt-hash = {session.size_bytes / 1000:.2f} KB, "
        f"count-min = {baseline.size_bytes / 1000:.2f} KB"
    )

    # The baseline session snapshots to one buffer (spec + counters) and
    # resumes bit-identically — the deployment path for linear sketches.
    resumed = repro.restore(baseline.snapshot())
    assert resumed.estimate_key(generator.universe[0].key) == baseline.estimate_key(
        generator.universe[0].key
    )
    print("snapshot/restore: OK")


if __name__ == "__main__":
    main()
