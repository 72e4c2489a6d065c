"""The sensor fleet's one pass per epoch, against sensors sampled one by one.

:class:`~repro.core.fleet.SensorFleet` samples every sensor on a
simulator in one pass per epoch: column operations for the archive fill
and the latest reading, one batched model step per shape, and a visit
only to rows with an event.  The reference is
``tests/reference_sensor.py``: the same cells built of sensors each
sampled by its cell's own task, each checker stepping its own model.  The
property drives both through 1–3 small cells sharing one kernel — with
sensing dropouts, lossy links, refits and late model updates, delta
retunes, batching switched on and off, drifting clocks, queries and
standing queries — and
compares everything a sensor leaves: packets and pushes, each checker's
counts, trajectory and model state, every meter's categories by their
bytes, every archive record, the cells' reports and the
answers.

A second property holds :class:`~repro.timeseries.linear.LinearBatch` to
the scalar :meth:`LinearRecursion.step` bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_sensor import ReferenceFleet, ReferenceSensor

from repro.core import system as system_module
from repro.core.config import PrestoConfig
from repro.core.continuous import ContinuousQuery, TriggerKind
from repro.core.fleet import SensorFleet
from repro.core.matching import BATCH_QUANT_STEP, SensorOperatingPoint
from repro.core.system import PrestoCell
from repro.radio.link import LinkConfig
from repro.simulation.kernel import Simulator
from repro.simulation.randomness import RandomStreams
from repro.sync.clock import ClockModel
from repro.timeseries.ar import ARModel
from repro.timeseries.arima import ARIMAModel
from repro.timeseries.linear import LinearBatch, batch_shape
from repro.timeseries.sarima import SeasonalArimaModel
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import Query, QueryKind

PERIOD = 31.0


def hexes(values) -> list[str]:
    return [float(value).hex() for value in np.asarray(values, dtype=np.float64).ravel()]


def sensor_view(sensor) -> dict:
    """Everything one sensor leaves, as comparable plain data."""
    checker = sensor.checker
    view = {
        "epoch": sensor.epoch,
        "samples": sensor.samples_taken,
        "counts": (sensor.pushes_sent, sensor.cold_pushes, sensor.batches_sent,
                   sensor.pulls_served),
        "meter": [(name, float(joules).hex())
                  for name, joules in sensor.meter.snapshot().by_category.items()],
        "reading": sensor.current_reading(),
        "archive": (
            sensor.archive.buffered_readings,
            sensor.archive.readings_archived,
            sensor.archive.readings_dropped,
            [
                (record.start_time, record.end_time, record.n_readings, record.level,
                 record.pages, record.hosted_by, hexes(record.values()))
                for record in sensor.archive.records.values()
            ],
        ),
    }
    if checker is not None:
        observed, pushed = checker.trajectory
        recorded = min(checker.checks, len(pushed))
        view["checker"] = (
            checker.update.activation_epoch,
            checker.checks,
            checker.pushes,
            float(checker.delta).hex(),
            hexes(observed[:recorded]),
            list(pushed[:recorded]),
            [hexes(element) for element in checker._model.state()],
        )
    return view


@dataclasses.dataclass(frozen=True)
class Plan:
    """One drawn scenario."""

    cell_sizes: tuple[int, ...]
    seed: int
    dropout: float
    loss: float
    check_interval_s: float
    batch_interval_s: float
    retune_interval_s: float
    clocks: bool
    retunes: tuple[tuple[float, int, float, float], ...]   # (at, sensor, delta, batch)
    queries: tuple[tuple[float, int, int], ...]            # (at, sensor, kind)
    watched: tuple[int, ...]                               # standing queries' sensors

    @property
    def horizon_s(self) -> float:
        return 300 * PERIOD


def locate(cells: list, sensor: int) -> tuple:
    """The cell of global sensor *sensor*, and its index there."""
    for cell in cells:
        if sensor < len(cell.sensors):
            return cell, sensor
        sensor -= len(cell.sensors)
    raise IndexError(sensor)


def simulate(plan: Plan, reference: bool) -> tuple[list, list]:
    """Build and run *plan*'s cells; the cells and the answers."""
    n_sensors = sum(plan.cell_sizes)
    trace = IntelLabGenerator(
        IntelLabConfig(
            n_sensors=n_sensors, duration_s=plan.horizon_s, epoch_s=PERIOD,
            dropout_rate=plan.dropout,
        ),
        seed=plan.seed,
    ).generate()
    config = PrestoConfig(
        sample_period_s=PERIOD,
        min_training_epochs=48,
        training_epochs=96,
        refit_interval_s=40 * PERIOD,
        retune_interval_s=plan.retune_interval_s,
        default_check_interval_s=plan.check_interval_s,
        batch_interval_s=plan.batch_interval_s,
        segment_readings=16,
        flash_capacity_bytes=2_048,
        storage_policy="mcf_offload",
        link=LinkConfig(loss_probability=plan.loss),
    )
    sim = Simulator()
    fleet = ReferenceFleet(sim) if reference else SensorFleet(sim)
    cells, first = [], 0
    for index, size in enumerate(plan.cell_sizes):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                patch.setattr(system_module, "PrestoSensor", ReferenceSensor)
            cell = PrestoCell(
                trace.subset(list(range(first, first + size))),
                config,
                sim,
                RandomStreams(seed=plan.seed + index),
                fleet,
                proxy_name=f"proxy{index}",
                clock_model=ClockModel() if plan.clocks else None,
            )
        cells.append(cell)
        first += size
    sensors = [sensor for cell in cells for sensor in cell.sensors]
    for index in plan.watched:
        cell, local = locate(cells, index)
        cell.proxy.continuous.register(
            ContinuousQuery(sensor=local, kind=TriggerKind.ABOVE, threshold=21.0)
        )
    for cell in cells:
        cell.start_tasks()
    for at, index, delta, batch in plan.retunes:
        point = SensorOperatingPoint(plan.check_interval_s, delta, batch, BATCH_QUANT_STEP)
        sim.schedule(at, lambda s=sensors[index % n_sensors], p=point: s.apply_operating_point(p))
    answers = []
    for number, (at, index, kind) in enumerate(plan.queries):
        cell, local = locate(cells, index % n_sensors)
        query_kind = (QueryKind.NOW, QueryKind.PAST_POINT, QueryKind.PAST_RANGE)[kind]
        target = at if query_kind is QueryKind.NOW else at / 2
        query = Query(number, query_kind, local, at, target,
                      window_s=0.0 if kind < 2 else 20 * PERIOD)
        sim.schedule(
            at,
            lambda q=query, c=cell: answers.append(
                c.proxy.process_query(q, q.sensor)
            ),
        )
    sim.run_until(plan.horizon_s)
    for cell in cells:
        cell.stop_tasks()
        cell.finalise(plan.horizon_s)
    return cells, answers


def run(plan: Plan, reference: bool) -> dict:
    """Build and run *plan*'s cells; what they leave."""
    cells, answers = simulate(plan, reference)
    sensors = [sensor for cell in cells for sensor in cell.sensors]
    return {
        "sensors": [sensor_view(sensor) for sensor in sensors],
        "packets": [(cell.network.packets_sent, cell.network.packets_delivered)
                    for cell in cells],
        "reports": [repr(dataclasses.replace(cell.report(plan.horizon_s), answers=[], truths=[]))
                    for cell in cells],
        "answers": [(a.value, a.source, a.latency_s, a.believed_std, a.sensor_energy_j)
                    for a in answers],
    }


@st.composite
def plans(draw) -> Plan:
    horizon = 300 * PERIOD
    cell_sizes = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    n_sensors = sum(cell_sizes)
    times = st.floats(60.0, horizon - 60.0, allow_nan=False)
    return Plan(
        cell_sizes=cell_sizes,
        seed=draw(st.integers(0, 2**16)),
        dropout=draw(st.sampled_from([0.0, 0.1])),
        loss=draw(st.sampled_from([0.0, 0.3])),
        check_interval_s=draw(st.sampled_from([1.0, 1_500.0])),
        batch_interval_s=draw(st.sampled_from([0.0, 0.0, 300.0])),
        retune_interval_s=draw(st.sampled_from([1e12, 50 * PERIOD])),
        clocks=draw(st.booleans()),
        retunes=tuple(
            draw(
                st.lists(
                    st.tuples(times, st.integers(0, n_sensors - 1),
                              st.sampled_from([0.05, 0.3, 1.0]),
                              st.sampled_from([0.0, 0.0, 200.0])),
                    max_size=4,
                )
            )
        ),
        queries=tuple(
            draw(st.lists(st.tuples(times, st.integers(0, n_sensors - 1), st.integers(0, 2)),
                          max_size=6))
        ),
        watched=tuple(sorted(draw(st.sets(st.integers(0, n_sensors - 1), max_size=3)))),
    )


@settings(max_examples=20, deadline=None)
@given(plan=plans())
def test_fleet_pass_equals_sensors_sampled_one_by_one(plan):
    assert run(plan, False) == run(plan, True)


def fitted(model, seed: int, n: int):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    series = 20.0 + 2.0 * np.sin(2 * np.pi * t / 48.0) + np.cumsum(rng.normal(0, 0.05, n))
    return model.fit(series)


MODELS = {
    "ar2": lambda seed: fitted(ARModel(order=2, sample_period_s=PERIOD), seed, 400),
    "arima221": lambda seed: fitted(ARIMAModel((2, 2, 1), sample_period_s=PERIOD), seed, 400),
    "sarima": lambda seed: fitted(
        SeasonalArimaModel(season_length=24, sample_period_s=PERIOD), seed, 200
    ),
}


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(MODELS)),
    seeds=st.lists(st.integers(0, 2**16), min_size=1, max_size=4),
    steps=st.integers(1, 60),
    delta=st.sampled_from([0.01, 0.2, 1.0]),
)
def test_linear_batch_steps_bit_for_bit_like_the_scalar_step(family, seeds, steps, delta):
    models = [MODELS[family](seed) for seed in seeds]
    scalar = [copy.deepcopy(model) for model in models]
    batch = LinearBatch(batch_shape(models[0]))
    for model in models:
        batch.add(model)
    rng = np.random.default_rng(seeds[0])
    for _ in range(steps):
        readings = np.array([m.predict_next() for m in scalar]) + rng.normal(0, 0.3, len(models))
        readings[rng.random(len(models)) < 0.1] = np.nan
        one_step, predicted = batch.predict()
        pushed = np.abs(readings - predicted) > delta
        batch.advance(np.where(pushed, readings, predicted), one_step)
        for model, reading, level, push in zip(scalar, readings.tolist(), predicted, pushed):
            expected = model.step(None if reading != reading else reading, delta)
            assert (float(level).hex(), bool(push)) == (expected[0].hex(), expected[1])
    for row, (model, stepped) in enumerate(zip(models, scalar)):
        batch.store(row, model)
        assert [hexes(a) for a in model.state()] == [hexes(a) for a in stepped.state()]
