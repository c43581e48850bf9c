"""The two in-process workloads: ``learn-synthetic`` and ``opthash-zipf``.

The benchmark process generates the inputs (``prepare``), hands them to a
fresh program process through an ``.npz`` file, and checks the outputs that
process writes back (``evaluate``).  The program process is this file run
as a script: it only loads inputs and drives the package's public API, so
its peak resident set is the program's, not the generator's.

Each *session* is one ``repro.open`` (the learning phase), a Session ingest
of the post-prefix stream in fixed-size batches, and one cold estimate pass
over the query set.  A run starts several program processes one after the
other, each running sessions until its share of ``--seconds`` has passed:
the speed of a Python process depends on its memory layout, so figures
from one process vary more between runs than the median of several.  Every
session must produce bit-identical estimates.

The learning prefix is a fixed instance (a constant seed), so the learning
phase solves the same problem in every run and its time, sweep count and
objective compare across runs; the benchmark's ``--seed`` draws the
post-prefix stream.  Drawing the prefix from the seed as well makes the
learned scheme, and with it the errors, swing by a factor of two or more
from seed to seed, which no run length can steady.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from common import (
    CheckFailed,
    check,
    cms_yardstick,
    median,
    peak_rss_mb,
)
import hostspeed
from spans import Tracer, no_span

#: Constant seed of the learning prefix (see the module docstring).
INSTANCE_SEED = 20220501
#: Exit code of a program process whose correctness check failed; the
#: message is in ``failed<index>.txt`` in the work directory.
CHECK_FAILED_EXIT = 3
#: Ingest or estimate calls between two runs of the host-speed reference.
STRETCH = 16
#: Ingest and estimate calls of the untimed warm-up.
WARM_UP_CALLS = 8
#: Untraced/traced build pairs behind ``trace.overhead.build``.
OVERHEAD_BUILD_PAIRS = {"full": 5, "tiny": 1}

CONFIGS = {
    "learn-synthetic": {
        "full": {
            "num_groups": 12,
            "suffix_length": 1_000_000,
            "ingest_batch": 2048,
            "query_batch": 64,
            "builds_per_session": 1,
            "spec": {
                "kind": "opt_hash",
                "num_buckets": 30,
                "lam": 0.5,
                "solver": "bcd",
                "classifier": "cart",
                "max_stored_elements": 350,
                "seed": INSTANCE_SEED,
            },
        },
        "tiny": {
            "num_groups": 8,
            "suffix_length": 20_000,
            "ingest_batch": 2048,
            "query_batch": 64,
            "builds_per_session": 1,
            "spec": {
                "kind": "opt_hash",
                "num_buckets": 10,
                "lam": 0.5,
                "solver": "bcd",
                "classifier": "cart",
                "max_stored_elements": 100,
                "seed": INSTANCE_SEED,
            },
        },
    },
    "opthash-zipf": {
        "full": {
            "support": 1_000_000,
            "exponent": 1.1,
            "prefix_length": 200_000,
            "suffix_length": 8_000_000,
            "num_queries": 400_000,
            "ingest_batch": 8192,
            "query_batch": 256,
            "builds_per_session": 3,
            "spec": {
                "kind": "opt_hash",
                "num_buckets": 20,
                "lam": 1.0,
                "solver": "dp",
                "classifier": "cart",
                "max_stored_elements": 2000,
                "seed": INSTANCE_SEED,
            },
        },
        "tiny": {
            "support": 100_000,
            "exponent": 1.1,
            "prefix_length": 20_000,
            "suffix_length": 100_000,
            "num_queries": 20_000,
            "ingest_batch": 8192,
            "query_batch": 256,
            "builds_per_session": 2,
            "spec": {
                "kind": "opt_hash",
                "num_buckets": 10,
                "lam": 1.0,
                "solver": "dp",
                "classifier": "cart",
                "max_stored_elements": 200,
                "seed": INSTANCE_SEED,
            },
        },
    },
}


def key_feature(element):
    """Featurizer of ``opthash-zipf``: the log of the integer id.

    Zipf ids are popularity ranks, so this one feature lets the classifier
    route unseen ids to buckets of similar frequency.
    """
    return np.array([np.log1p(float(element.key))])


# ----------------------------------------------------------------------
# benchmark side: inputs and output checks
# ----------------------------------------------------------------------
def prepare(workload, scale, seed, workdir):
    """Generate the inputs (outside any timed region) and write them."""
    config = CONFIGS[workload][scale]
    if workload == "learn-synthetic":
        from repro.streams import SyntheticConfig, SyntheticGenerator

        generator = SyntheticGenerator(
            SyntheticConfig(
                num_groups=config["num_groups"], fraction_seen=0.5, seed=INSTANCE_SEED
            )
        )
        prefix = generator.generate_prefix()
        universe = generator.universe
        # The generator's arrival law (group with probability ∝ 1/g, then a
        # uniform member), drawn from the benchmark seed.
        rng = np.random.default_rng(seed)
        groups = rng.choice(
            config["num_groups"],
            size=config["suffix_length"],
            p=generator.group_probabilities,
        )
        suffix = np.empty(config["suffix_length"], dtype=np.int64)
        for group in range(config["num_groups"]):
            members = np.array([e.key for e in generator.group_members(group)])
            chosen = groups == group
            suffix[chosen] = members[rng.integers(len(members), size=int(chosen.sum()))]
        inputs = {
            "features": np.array([e.features for e in universe], dtype=np.float64),
            "prefix": prefix.key_array().astype(np.int64),
            "suffix": suffix,
            "queries": np.arange(len(universe), dtype=np.int64),
        }
    else:
        from repro.streams import ZipfSampler

        def draw(rng, size):
            sampler = ZipfSampler(config["support"], exponent=config["exponent"], rng=rng)
            return sampler.sample(size).astype(np.int64) + 1

        inputs = {
            "prefix": draw(np.random.default_rng(INSTANCE_SEED), config["prefix_length"]),
            "suffix": draw(np.random.default_rng(seed), config["suffix_length"]),
            "queries": np.arange(1, config["num_queries"] + 1, dtype=np.int64),
        }
    np.savez(workdir / "inputs.npz", **inputs)
    return inputs


def evaluate(workload, scale, inputs, outputs):
    """Check one program process's outputs; return the two error measures."""
    config = CONFIGS[workload][scale]
    prefix, suffix, queries = inputs["prefix"], inputs["suffix"], inputs["queries"]
    size = int(max(prefix.max(), suffix.max(), queries.max())) + 1
    arrived = np.bincount(prefix, minlength=size) + np.bincount(suffix, minlength=size)

    # Bucket totals against an independent reference: prefix seeding of
    # every stored key plus one per post-prefix arrival of a stored key.
    table_keys, table_buckets = outputs["table_keys"], outputs["table_buckets"]
    reference = np.bincount(
        table_buckets,
        weights=arrived[table_keys].astype(np.float64),
        minlength=config["spec"]["num_buckets"],
    )
    check(
        np.array_equal(reference, outputs["bucket_totals"]),
        "bucket totals differ from the bincount reference",
    )
    estimates = outputs["estimates"]
    check(len(estimates) == len(queries), "estimate count differs from query count")
    truth = arrived[queries].astype(np.float64)
    absolute = np.abs(truth - estimates)
    return {
        "avg_abs_error": float(absolute.mean()),
        "expected_magnitude_error": float((truth * absolute).sum() / truth.sum()),
    }


# ----------------------------------------------------------------------
# program side: runs in its own process
# ----------------------------------------------------------------------
class Program:
    def __init__(self, workload, scale, workdir):
        import repro
        from repro.streams import Element, StreamPrefix

        self.repro = repro
        self.config = CONFIGS[workload][scale]
        self.scale = scale
        self.workload = workload
        inputs = np.load(workdir / "inputs.npz")
        self.suffix = inputs["suffix"]
        if workload == "learn-synthetic":
            universe = [Element.with_features(key, row) for key, row in enumerate(inputs["features"])]
            self.prefix = StreamPrefix(arrivals=[universe[key] for key in inputs["prefix"]])
            self.queries = [universe[key] for key in inputs["queries"]]
            self.featurizer = None
        else:
            self.prefix = StreamPrefix(arrivals=[Element(key=int(key)) for key in inputs["prefix"]])
            self.queries = inputs["queries"]
            self.featurizer = key_feature
        self.options = repro.Options(prefix=self.prefix, featurizer=self.featurizer)

    def batches(self, items, size):
        return [items[start : start + size] for start in range(0, len(items), size)]

    def session(self, tracer=None, host=None):
        """One session: learn, ingest, query.  Returns timings and the session.

        With a ``host`` :class:`hostspeed.Sampler` (untraced runs) the
        build runs under it, and a reference task runs after every
        ``STRETCH`` calls of the ingest and query passes; each stretch is
        then ``(items, seconds, reference seconds)`` in ``ingest_stretches``
        / ``query_stretches``.
        """
        span = tracer.span if tracer is not None else no_span
        build = host.measure() if host is not None else contextlib.nullcontext()
        start = time.perf_counter()
        with build as timing, span("api.open"):
            session = self.repro.open(self.config["spec"], options=self.options)
        build_s = time.perf_counter() - start
        if tracer is not None:
            _instrument(tracer, session)
        result = {"session": session, "build_s": build_s, "build_timing": timing}
        for kind, items, call, name in (
            ("ingest", self.suffix, session.ingest, "api.session.ingest"),
            ("query", self.queries, session.estimate, "api.session.estimate"),
        ):
            latencies, stretches, outputs = [], [], []
            stretch_items = stretch_s = 0
            for batch in self.batches(items, self.config[f"{kind}_batch"]):
                start = time.perf_counter()
                with span(name, items=len(batch)):
                    outputs.append(call(batch))
                latencies.append(time.perf_counter() - start)
                stretch_items += len(batch)
                stretch_s += latencies[-1]
                if host is not None and len(latencies) % STRETCH == 0:
                    stretches.append((stretch_items, stretch_s, hostspeed.reference()))
                    stretch_items = stretch_s = 0
            if host is not None and stretch_items:
                stretches.append((stretch_items, stretch_s, hostspeed.reference()))
            result[f"{kind}_lat"] = latencies
            result[f"{kind}_stretches"] = stretches
        result["estimates"] = np.concatenate(outputs)  # the query pass's answers
        return result

    def build(self, host):
        """One more learning phase alone, under the host sampler, then closed."""
        with host.measure() as timing:
            session = self.repro.open(self.config["spec"], options=self.options)
        session.close()
        return timing

    def warm_up(self):
        """Pay a fresh process's one-off costs (lazy imports, first calls) untimed.

        A build, and a few ingest and estimate calls on it.
        """
        session = self.repro.open(self.config["spec"], options=self.options)
        for batch in self.batches(self.suffix, self.config["ingest_batch"])[:WARM_UP_CALLS]:
            session.ingest(batch)
        for batch in self.batches(self.queries, self.config["query_batch"])[:WARM_UP_CALLS]:
            session.estimate(batch)
        session.close()

    def run(self, seconds):
        """A warm-up, then timed sessions while they fit in ``seconds``.

        A session starts only if one more like the last would end within
        ``seconds`` of the start, but at least one runs.  The
        first one's outputs are the ones checked, and the peak resident
        set is taken when it ends, so it does not depend on how many
        sessions the host's speed fits in.  Each session is followed by
        ``builds_per_session - 1`` builds alone, so a workload whose
        sessions are long still has several build samples in a run.
        """
        began = time.perf_counter()
        self.warm_up()
        host = hostspeed.Sampler()
        first = None
        runs = []
        builds = []
        while True:
            cycle_began = time.perf_counter()
            result = self.session(host=host)
            if first is None:
                first = result
                first_peak_rss_mb = peak_rss_mb()
            else:
                check(
                    np.array_equal(result["estimates"], first["estimates"]),
                    "sessions built from the same inputs disagree",
                )
                result["session"].close()
            builds.append(result["build_timing"])
            builds.extend(self.build(host) for _ in range(self.config["builds_per_session"] - 1))
            runs.append({key: result[key] for key in result if key.endswith(("_lat", "_stretches"))})
            del result
            now = time.perf_counter()
            if now - began + (now - cycle_began) > seconds:
                break

        def scaled_rates(kind):
            return [
                items / hostspeed.scale_seconds(seconds, reference_s)
                for r in runs
                for items, seconds, reference_s in r[f"{kind}_stretches"]
            ]

        def pass_rates(kind):
            return [
                sum(s[0] for s in r[f"{kind}_stretches"]) / sum(r[f"{kind}_lat"]) for r in runs
            ]

        report = {
            "sessions": len(runs),
            "peak_rss_mb": first_peak_rss_mb,
            "build_s": [b.scaled_s for b in builds],
            "ingest_eps": scaled_rates("ingest"),
            "query_eps": scaled_rates("query"),
            "wall": {
                "build_s": [b.wall_s for b in builds],
                "ingest_eps": pass_rates("ingest"),
                "query_eps": pass_rates("query"),
            },
            "reference_s": [s[2] for r in runs for kind in ("ingest", "query") for s in r[f"{kind}_stretches"]],
            "ingest_lat": [x for r in runs for x in r["ingest_lat"]],
            "query_lat": [x for r in runs for x in r["query_lat"]],
            "attempted": sum(1 + len(r["ingest_lat"]) + len(r["query_lat"]) for r in runs)
            + len(builds) - len(runs),
            "kernel_backend": first["session"].describe().get("kernel_backend"),
        }
        return first, report

    def traced(self):
        """Per-layer replay, with the tracing overhead measured beside it.

        A first untraced session takes the one-off costs of a fresh process
        (imports, first calls) and is the reference for the estimates; the
        overhead comparisons run after it.
        """
        reference = self.session()
        reference["session"].close()
        build_overhead = self.build_overhead(OVERHEAD_BUILD_PAIRS[self.scale])
        ingest_overhead = self.ingest_overhead()
        tracer = Tracer()
        learning = self.replay_learning(tracer)
        result = self.session(tracer)
        session = result["session"]
        labels = dict(zip(learning["stored_keys"], learning["labels"]))
        check(
            labels == session.estimator.scheme.hash_codes(),
            "stage-by-stage replay labels differ from the trained scheme's table",
        )
        check(
            np.array_equal(result["estimates"], reference["estimates"]),
            "traced and untraced sessions disagree",
        )
        stored = np.array(learning["stored_keys"], dtype=np.int64)
        query_keys = np.array(
            [q.key for q in self.queries] if self.workload == "learn-synthetic" else self.queries,
            dtype=np.int64,
        )
        unseen_lookups = int(np.count_nonzero(~np.isin(query_keys, stored)))
        layers = tracer.summary()
        empty = {"calls": 0, "items": 0, "total_s": 0.0, "self_s": 0.0}
        update = layers.get("core.estimator.update_batch", empty)
        buckets = layers.get("core.scheme.buckets_batch", empty)
        predict = layers.get("ml.predict", empty)
        metrics = {
            "core.pipeline.count_s": learning["count_s"],
            "optimize.solve_s": learning["solve_s"],
            "optimize.bcd.sweeps": learning["sweeps"],
            "optimize.bcd.sweep_s": learning["solve_s"] / learning["sweeps"] if learning["sweeps"] else 0.0,
            "optimize.objective": learning["objective"],
            "ml.fit_s": learning["fit_s"],
            "core.estimator.update_batch_eps": update["items"] / update["total_s"],
            "core.estimator.table_hit_ratio": float(np.isin(self.suffix, stored).mean()),
            "api.session.ingest_overhead_s": layers["api.session.ingest"]["self_s"],
            "core.scheme.buckets_batch_eps": buckets["items"] / buckets["total_s"],
            "ml.predict_s": predict["total_s"],
            "ml.predicted_keys": predict["items"],
            "core.scheme.prediction_cache_hit_ratio": (
                1.0 - predict["items"] / unseen_lookups if unseen_lookups else 0.0
            ),
            "trace.overhead.ingest": ingest_overhead,
            "trace.overhead.build": build_overhead,
        }
        metrics.update(cms_yardstick(self.suffix, self.config["ingest_batch"]))
        return result, metrics, layers

    def build_overhead(self, pairs):
        """(traced − untraced) / untraced ``repro.open`` time, median over pairs.

        A traced build is ``repro.open`` with spans around its learning
        stages (:func:`_traced_learning`); the order within a pair
        alternates, so neither kind always runs first, and each pair is
        compared with itself, so a slow stretch of the host cancels out.
        """
        ratios = []
        for pair in range(pairs):
            seconds = {}
            for traced in (False, True) if pair % 2 == 0 else (True, False):
                tracer = Tracer()
                stages = _traced_learning(tracer, self.prefix) if traced else contextlib.nullcontext()
                with stages:
                    start = time.perf_counter()
                    session = self.repro.open(self.config["spec"], options=self.options)
                    seconds[traced] = time.perf_counter() - start
                session.close()
                if traced:
                    calls = {name: layer["calls"] for name, layer in tracer.summary().items()}
                    if calls != {"core.pipeline.count": 1, "optimize.solve": 1, "ml.fit": 1}:
                        raise RuntimeError(f"traced build recorded the spans {calls}")
            ratios.append((seconds[True] - seconds[False]) / seconds[False])
        return median(ratios)

    def ingest_overhead(self):
        """(untraced − traced) / untraced ingest rate within one session.

        One Session.ingest pass with the same spans as the traced session,
        switched on for every other stretch of batches; each traced stretch
        is compared with the untraced one before it, so a slow stretch of
        the host hits both kinds alike.  Median over the stretch pairs.
        """
        batches = self.batches(self.suffix, self.config["ingest_batch"])
        window = max(1, min(16, len(batches) // 2))
        tracer = Tracer()
        session = self.repro.open(self.config["spec"], options=self.options)
        _instrument(tracer, session)
        rates = {False: [], True: []}
        for index, begin in enumerate(range(0, len(batches), window)):
            traced = tracer.enabled = index % 2 == 1
            span = tracer.span if traced else no_span
            stretch = batches[begin : begin + window]
            start = time.perf_counter()
            for batch in stretch:
                with span("api.session.ingest", items=len(batch)):
                    session.ingest(batch)
            rates[traced].append(sum(map(len, stretch)) / (time.perf_counter() - start))
        session.close()
        pairs = zip(rates[False], rates[True])
        return median([(plain - spanned) / plain for plain, spanned in pairs])

    def replay_learning(self, tracer):
        """The learning phase stage by stage, as ``train_opt_hash`` runs it."""
        from repro.core.pipeline import sample_prefix_elements
        from repro.ml import make_classifier
        from repro.optimize import learn_hashing_scheme
        from repro.optimize.objective import evaluate_assignment

        spec = self.config["spec"]
        with tracer.span("core.pipeline.count") as count_span:
            keys, _, frequencies = self.prefix.training_arrays()
        featurize = self.featurizer or (lambda element: element.feature_array())
        features = np.array([featurize(e) for e in self.prefix.distinct_elements()], dtype=float)
        selected = sample_prefix_elements(
            frequencies,
            spec["max_stored_elements"],
            proportional_to_frequency=True,
            rng=np.random.default_rng(spec["seed"]),
        )
        stored_frequencies, stored_features = frequencies[selected], features[selected]
        with tracer.span("optimize.solve") as solve_span:
            solved = learn_hashing_scheme(
                stored_frequencies,
                stored_features,
                num_buckets=spec["num_buckets"],
                lam=spec["lam"],
                solver=spec["solver"],
                random_state=spec["seed"],
            )
        labels = solved.assignment.labels
        with tracer.span("ml.fit") as fit_span:
            make_classifier(spec["classifier"], random_state=spec["seed"]).fit(
                stored_features, labels
            )
        recomputed = evaluate_assignment(
            stored_frequencies, stored_features, solved.assignment, spec["lam"]
        )
        check(
            recomputed.overall == solved.objective.overall,
            f"solver objective {solved.objective.overall!r} differs from its "
            f"evaluate_assignment recomputation {recomputed.overall!r}",
        )
        return {
            "stored_keys": [keys[i] for i in selected],
            "labels": [int(label) for label in labels],
            "count_s": _seconds(count_span),
            "solve_s": _seconds(solve_span),
            "fit_s": _seconds(fit_span),
            "sweeps": int(getattr(solved.details, "iterations", 0)) if spec["solver"] == "bcd" else 0,
            "objective": float(solved.objective.overall),
        }


def _instrument(tracer, session):
    """Spans around the layer calls a Session makes while ingesting/querying."""
    count = lambda args, kwargs: len(args[0])  # noqa: E731
    estimator = session.estimator
    tracer.wrap(estimator, "update_batch", "core.estimator.update_batch", count_items=count)
    tracer.wrap(estimator.scheme, "buckets_batch", "core.scheme.buckets_batch", count_items=count)
    if estimator.scheme.classifier is not None:
        tracer.wrap(estimator.scheme.classifier, "predict", "ml.predict", count_items=count)


@contextlib.contextmanager
def _traced_learning(tracer, prefix):
    """Spans around the learning stages that run inside ``repro.open``.

    ``train_opt_hash`` looks ``learn_hashing_scheme`` and ``make_classifier``
    up in its module's namespace at call time, so wrappers put there (and on
    the prefix object) trace the real learning phase; the originals are put
    back on exit.
    """
    from repro.core import pipeline

    solve, make = pipeline.learn_hashing_scheme, pipeline.make_classifier

    def traced_solve(*args, **kwargs):
        with tracer.span("optimize.solve"):
            return solve(*args, **kwargs)

    def traced_make(*args, **kwargs):
        classifier = make(*args, **kwargs)
        tracer.wrap(classifier, "fit", "ml.fit")
        return classifier

    tracer.wrap(prefix, "training_arrays", "core.pipeline.count")
    pipeline.learn_hashing_scheme, pipeline.make_classifier = traced_solve, traced_make
    try:
        yield
    finally:
        pipeline.learn_hashing_scheme, pipeline.make_classifier = solve, make
        del prefix.training_arrays


def _seconds(span):
    return (span[2] - span[1]) / 1e9


def main(argv):
    workload, scale, workdir, trace, seconds, index = argv
    workdir = Path(workdir)
    program = Program(workload, scale, workdir)
    try:
        if trace == "1":
            first, metrics, layers = program.traced()
            calls = layers["api.session.ingest"]["calls"] + layers["api.session.estimate"]["calls"]
            report = {"metrics": metrics, "layers": layers, "attempted": calls + 1}
        else:
            first, report = program.run(float(seconds))
    except CheckFailed as failure:
        (workdir / f"failed{index}.txt").write_text(str(failure))
        return CHECK_FAILED_EXIT
    estimator = first["session"].estimator
    table = estimator.scheme.hash_codes()
    np.savez(
        workdir / f"outputs{index}.npz",
        estimates=first["estimates"],
        bucket_totals=estimator.bucket_totals,
        table_keys=np.array(list(table.keys()), dtype=np.int64),
        table_buckets=np.array(list(table.values()), dtype=np.int64),
    )
    first["session"].close()
    (workdir / f"report{index}.json").write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
