"""The runtime needs numpy alone: scipy is a test-only oracle.

Importing ``scipy.linalg`` costs every process a few tenths of a second and
about 20 MiB before it does anything, so no module on a runtime import path
may load it.  The check runs in a fresh interpreter: this one has already
imported whatever other test modules pulled in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROGRAM = """
import json, sys
import repro.cli, repro.core, repro.scenarios
from repro.core import PrestoConfig, PrestoSystem
from repro.simulation.randomness import seeded_rng
from repro.timeseries.ar import fit_ar_yule_walker
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, QueryWorkloadGenerator

trace = IntelLabGenerator(
    IntelLabConfig(n_sensors=2, duration_s=21_600.0), seed=3
).generate()
queries = QueryWorkloadGenerator(
    2, QueryWorkloadConfig(arrival_rate_per_s=1 / 600.0), seeded_rng(4)
).generate(3_600.0, 21_600.0)
# "ar" reaches the Yule-Walker fit, the one former scipy caller
config = PrestoConfig(model_kind="ar", min_training_epochs=64, refit_interval_s=3_600.0)
report = PrestoSystem(trace, config, seed=3).run(queries=queries)
coefficients, _ = fit_ar_yule_walker(trace.values[0, :200], 3)
print(json.dumps({
    "coefficients": len(coefficients),
    "answers": len(report.answers),
    "queries": len(queries),
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}))
"""


def test_a_presto_run_loads_no_scipy():
    done = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["coefficients"] == 3
    assert seen["queries"] > 0 and seen["answers"] == seen["queries"]
    assert seen["scipy"] == []
