"""scipy is optional: only ``solver="milp"`` needs it (the ``exact`` extra).

The check runs in a subprocess with ``sys.modules["scipy"] = None``, which
makes every ``import scipy`` raise ``ImportError`` exactly as on a machine
without it.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

SCRIPT = r"""
import sys
sys.modules["scipy"] = None

import repro
from repro.errors import DependencyError, ReproError
from repro.streams import Element, StreamPrefix

prefix = StreamPrefix(arrivals=[Element(key=k % 13) for k in range(200)])
spec = {"kind": "opt_hash", "num_buckets": 3, "lam": 1.0, "classifier": None, "seed": 0}
session = repro.open(dict(spec, solver="dp"), options=repro.Options(prefix=prefix))
session.ingest([1, 2, 3])
assert session.estimate([1]).shape == (1,)

try:
    repro.open(dict(spec, solver="milp"), options=repro.Options(prefix=prefix))
except ReproError as error:
    assert isinstance(error, DependencyError) and isinstance(error, ImportError)
    assert "repro[exact]" in str(error), str(error)
else:
    raise AssertionError("solver='milp' without scipy did not raise")
print("ok")
"""


def test_import_and_dp_without_scipy_milp_names_the_extra():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
