"""Declared model state: ``from_state(state())`` rebuilds every family exactly.

A replica sync ships each tracker's model as its declared state — float64
arrays and scalars — and failover forecasts from the model rebuilt out of
it.  So for all five families the rebuilt model must hold the same state,
forecast the same 32 steps and step on in lockstep with the original, bit
for bit; and the tracker's own state (family tag, delta, counters) must
round-trip too.
"""

from __future__ import annotations

import numpy as np
import pytest
from test_model_step import FAMILIES, fitted_family

from repro.core.push import ModelUpdate, ProxyModelTracker
from repro.timeseries import MODEL_FAMILIES


def state_bytes(state: tuple) -> list[tuple[int, bytes]]:
    """Each element's rank and float64 bytes: equal iff the states are identical."""
    return [
        (np.ndim(element), np.asarray(element, dtype=np.float64).tobytes())
        for element in state
    ]


def test_every_family_is_declared():
    assert sorted(cls.__name__ for cls in MODEL_FAMILIES) == sorted(
        type(fitted_family(family, np.random.default_rng(0))[0]).__name__
        for family in FAMILIES
    )


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_from_state_is_exact(family, seed):
    rng = np.random.default_rng(seed)
    model, level = fitted_family(family, rng)
    for _ in range(40):
        level += float(rng.normal(0.0, 0.15))
        model.step(level if rng.random() < 0.8 else None, 0.1)
    state = model.state()
    assert all(
        isinstance(element, float) or element.dtype == np.float64 for element in state
    )
    rebuilt = type(model).from_state(state)
    assert state_bytes(rebuilt.state()) == state_bytes(state)
    ours, theirs = model.forecast(32), rebuilt.forecast(32)
    assert ours.mean.tobytes() == theirs.mean.tobytes()
    assert ours.std.tobytes() == theirs.std.tobytes()
    assert model.residual_std == rebuilt.residual_std
    for _ in range(40):
        level += float(rng.normal(0.0, 0.15))
        assert model.step(level, 0.1) == rebuilt.step(level, 0.1)
    assert state_bytes(rebuilt.state()) == state_bytes(model.state())


@pytest.mark.parametrize("family", FAMILIES)
def test_unfitted_state_round_trips(family):
    cls = type(fitted_family(family, np.random.default_rng(0))[0])
    model = cls()
    assert state_bytes(cls.from_state(model.state()).state()) == state_bytes(model.state())


@pytest.mark.parametrize("family", FAMILIES)
def test_tracker_state_round_trips(family):
    rng = np.random.default_rng(5)
    model, level = fitted_family(family, rng)
    tracker = ProxyModelTracker(ModelUpdate(model=model, delta=0.3, activation_epoch=40))
    for step in range(25):
        if step % 4:
            tracker.advance_silent()
        else:
            tracker.apply_push(level + float(rng.normal(0.0, 0.5)))
    tag, state = tracker.state()
    assert MODEL_FAMILIES[tag - 1] is type(model)
    rebuilt = ProxyModelTracker.from_state(tag, state)
    assert (rebuilt.delta, rebuilt.substitutions, rebuilt.pushes_applied) == (0.3, 18, 7)
    assert rebuilt.state()[0] == tag
    assert state_bytes(rebuilt.state()[1]) == state_bytes(state)
    assert rebuilt.predicted_std() == tracker.predicted_std()
    assert rebuilt.advance_silent() == tracker.advance_silent()
