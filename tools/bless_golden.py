#!/usr/bin/env python
"""Regenerate the golden outputs ``tests/test_golden.py`` holds the tree to.

Three families live under ``tests/golden/``:

``scenarios/<slug>.json``
    Each built-in scenario's smoke-campaign rows as
    :func:`repro.analysis.runtime.canonical_rows` serialises them (serial,
    ``wall_clock_s`` stripped), one key per line.
``perf/<workload>.json``
    Each perf workload's quick-scale ``report.summary()``, built through
    ``benchmarks/perf/workloads.build`` (imported read-only), in the
    summary's own key order — so the order is gated too.
``models/<kind>.json``
    Each ``PrestoConfig.model_kind`` on one seeded 3-day, 4-sensor trace:
    fitted on sensor 0's first ``training_epochs`` samples, the epochs
    and predictions of :data:`MODEL_STEPS` protocol steps after it, the
    32-step forecast that follows (mean and std; json writes each float's
    shortest round-trip repr, so the bits are pinned), and the summary of
    a ``PrestoSystem`` run over the whole trace at that kind.

A change that moves a golden file re-blesses it and says why in CHANGES.
For every file it rewrites with new text, the tool prints each key whose
value moved and that key's largest relative change over the file (a key
names one metric across rows and steps: list positions are not part of
it; ``inf`` marks a value that was zero, non-numeric or reshaped).

Usage::

    PYTHONPATH=src python tools/bless_golden.py            # everything
    PYTHONPATH=src python tools/bless_golden.py --only "event storm" cell_day
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

GOLDEN = REPO / "tests" / "golden"
WORKLOADS = REPO / "benchmarks" / "perf" / "workloads.py"
PERF_SEED = 1105
MODEL_KINDS = ("ar", "arima", "seasonal", "markov", "sarima")
MODEL_SEED = 7
MODEL_STEPS = 256
MODEL_DELTA = 0.2


def slug(name: str) -> str:
    """A scenario name as a file stem (``"duty-cycle sweep"`` → ``duty_cycle_sweep``)."""
    return re.sub(r"[^a-z0-9]+", "_", name.lower()).strip("_")


@functools.cache
def perf_workloads():
    """``benchmarks/perf/workloads.py`` as a module, without touching ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perf_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def entries() -> list[tuple[str, str, Path]]:
    """Every golden output as ``(kind, name, path)``: scenarios, perf, models."""
    from repro.scenarios import all_scenarios

    scenarios = [
        ("scenarios", name, GOLDEN / "scenarios" / f"{slug(name)}.json")
        for name in all_scenarios()
    ]
    perf = [
        ("perf", name, GOLDEN / "perf" / f"{name}.json")
        for name in perf_workloads().WORKLOADS
    ]
    models = [("models", kind, GOLDEN / "models" / f"{kind}.json") for kind in MODEL_KINDS]
    return scenarios + perf + models


@functools.cache
def model_trace():
    """The one trace every model golden runs on (3 days: two seasons + one)."""
    from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator

    config = IntelLabConfig(n_sensors=4, duration_s=3 * 86_400.0, epoch_s=31.0)
    return IntelLabGenerator(config, seed=MODEL_SEED).generate()


def model_rows(model_kind: str) -> dict:
    """One model family's steps, forecast and system summary on :func:`model_trace`."""
    import numpy as np

    from repro.core import PrestoConfig, PrestoSystem
    from repro.core.prediction import PredictionEngine

    trace = model_trace()
    config = PrestoConfig.for_model(
        model_kind, sample_period_s=31.0, refit_interval_s=6 * 3600.0
    )
    fit_end = config.training_epochs
    readings, clean, times = trace.values[0], trace.clean_values[0], trace.timestamps
    model = PredictionEngine(config, 1).make_model()
    training = readings[:fit_end]
    model.fit(np.where(np.isnan(training), clean[:fit_end], training), times[:fit_end])
    model.align_to_time(float(times[fit_end]))
    push_epochs, predictions = [], []
    for epoch in range(fit_end, fit_end + MODEL_STEPS):
        reading = float(readings[epoch])
        # a dropout or every fifth epoch is silent: the prediction is observed
        silent = epoch % 5 == 0 or reading != reading
        predicted, pushed = model.step(None if silent else reading, MODEL_DELTA)
        predictions.append(predicted)
        if pushed:
            push_epochs.append(epoch)
    forecast = model.forecast(32)
    return {
        "push_epochs": push_epochs,
        "predictions": predictions,
        "forecast_mean": forecast.mean.tolist(),
        "forecast_std": forecast.std.tolist(),
        "system": PrestoSystem(trace, config, seed=MODEL_SEED).run().summary(),
    }


def render(kind: str, name: str) -> str:
    """The golden text of one entry, computed from the tree as it is now."""
    if kind == "scenarios":
        from repro.analysis.runtime import canonical_rows

        rows = json.loads(canonical_rows(name, jobs=1))
    elif kind == "models":
        rows = model_rows(name)
    else:
        system, queries, _ = perf_workloads().build(name, PERF_SEED, "quick")
        rows = system.run(queries=queries).summary()
    # json's float encoding is repr, exact for binary64; indentation puts
    # one value per line so a moved metric is one line of diff
    return json.dumps(rows, indent=1) + "\n"


def _relative(old, new) -> float:
    """|new - old| / |old| for two numbers, else inf."""
    numeric = (int, float)
    if isinstance(old, bool) or isinstance(new, bool):
        return math.inf
    if isinstance(old, numeric) and isinstance(new, numeric) and old:
        return abs(new - old) / abs(old)
    return math.inf


def moved_keys(old, new, key: str = "", moves: dict | None = None) -> dict[str, float]:
    """Each key whose value differs between two golden documents, with its
    largest relative change (dotted for nested dicts, list positions
    dropped), in the order the keys first appear."""
    moves = {} if moves is None else moves
    if isinstance(old, dict) and isinstance(new, dict):
        for name in [*old, *(name for name in new if name not in old)]:
            moved_keys(old.get(name), new.get(name), f"{key}.{name}" if key else name, moves)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for a, b in zip(old, new):
            moved_keys(a, b, key, moves)
    elif not (old == new and type(old) is type(new) or old != old and new != new):
        moves[key] = max(moves.get(key, 0.0), _relative(old, new))
    return moves


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--only", nargs="+", metavar="NAME", help="scenario or workload names to re-bless"
    )
    args = parser.parse_args(argv)
    chosen = entries()
    if args.only:
        unknown = set(args.only) - {name for _, name, _ in chosen}
        if unknown:
            parser.error(f"unknown golden entries {sorted(unknown)}")
        chosen = [entry for entry in chosen if entry[1] in args.only]
    for kind, name, path in chosen:
        path.parent.mkdir(parents=True, exist_ok=True)
        text = render(kind, name)
        old = path.read_text() if path.exists() else None
        status = "new" if old is None else "kept" if old == text else "moved"
        path.write_text(text)
        print(f"{status:5s} {path.relative_to(REPO)}")
        if status == "moved":
            moves = moved_keys(json.loads(old), json.loads(text))
            for key, change in moves.items():
                print(f"      {key}  {change:.3g}")
            if not moves:
                print("      (key order only)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
