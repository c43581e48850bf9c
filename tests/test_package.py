"""Smoke tests for the top-level package surface."""

import repro


class TestPublicApi:
    def test_version_is_exposed(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_key_entry_points_importable(self):
        # The names used throughout the README quickstart.
        from repro import (  # noqa: F401
            CountMinSketch,
            OptHashSpec,
            train_opt_hash,
        )
        from repro.streams import SyntheticConfig, SyntheticGenerator  # noqa: F401
        from repro.evaluation import run_error_vs_size, run_lambda_sweep  # noqa: F401

    def test_subpackage_all_exports_resolve(self):
        import repro.evaluation
        import repro.ml
        import repro.optimize
        import repro.sketches
        import repro.streams

        for module in (
            repro.streams,
            repro.sketches,
            repro.ml,
            repro.optimize,
            repro.evaluation,
        ):
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name} missing"
