"""The proxy tracker reading the sensor checker's trajectory, against eager stepping.

A :class:`~repro.core.push.ProxyModelTracker` linked to its sensor's
:class:`~repro.core.push.SensorModelChecker` reads silent runs off the
checker's recorded trajectory instead of stepping its own model, and forks
— folds what it read into its own model, then steps alone — at the first
epoch it cannot read exactly.  The reference is the tracker as it was
before: never linked, stepping its own model every epoch.  Each scenario
below drives one seeded cell twice, once each way, through one fork
trigger, and compares the two every epoch: the proxy's per-sensor counters
and newest cache entry, the bytes of the tracker's declared state (what
replica sync ships) on a stride of epochs and at the end, and the whole cache at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from repro.core import push
from repro.core.config import PrestoConfig
from repro.core.push import ProxyModelTracker, SensorModelChecker
from repro.core.system import PrestoSystem
from repro.radio.link import LinkConfig, TransferOutcome
from repro.radio.packet import PacketKind
from repro.timeseries.arima import ARIMAModel
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import Query, QueryKind

PERIOD = 31.0
HORIZON_S = 0.4 * 86_400.0
N_SENSORS = 2
#: epochs between tracker-state comparisons: coprime with everything, so
#: the linked tracker folds runs of every length in between
PICKLE_EVERY = 13


def shipped(tracker: ProxyModelTracker) -> tuple[int, list[bytes]]:
    """The tracker's declared state as bytes — what a replica sync ships."""
    family, state = tracker.state()
    return family, [np.asarray(element, dtype=np.float64).tobytes() for element in state]


def make_system(seed: int = 3, loss: float = 0.1, dropout: float = 0.0) -> PrestoSystem:
    trace = IntelLabGenerator(
        IntelLabConfig(
            n_sensors=N_SENSORS,
            duration_s=HORIZON_S,
            epoch_s=PERIOD,
            dropout_rate=dropout,
        ),
        seed=seed,
    ).generate()
    config = PrestoConfig(
        sample_period_s=PERIOD,
        min_training_epochs=128,
        refit_interval_s=3 * 3600.0,
        retune_interval_s=1e12,       # no retunes: the scripts own delta
        link=LinkConfig(loss_probability=loss),
    )
    return PrestoSystem(trace, config, seed=seed)


def intercept(system: PrestoSystem, rule) -> None:
    """Route the cell's sends through *rule*.

    ``rule(packet)`` returns None to send normally, ``"drop"`` for a push
    whose ARQ gave up, or a delay in seconds after which the packet is
    handed to its receiver.
    """
    network = system.network
    send = network.send

    def routed(packet, energy_category="radio.tx"):
        packet.created_at = system.sim.now
        verdict = rule(packet)
        if verdict is None:
            return send(packet, energy_category=energy_category)
        if verdict == "drop":
            return TransferOutcome(False, 6, 0.0)
        receiver = network._nodes[packet.dst]
        if receiver.accept is not None:   # as Network.send hands it over
            receiver.accept(packet, system.sim.now + verdict)
        else:
            system.sim.schedule_after(verdict, lambda: receiver.on_receive(packet))
        return TransferOutcome(True, 1, verdict)

    network.send = routed


def first_after(at_s: float, kind: PacketKind, sensor_name: str, verdict, hit: list):
    """A rule applying *verdict* to the first *kind* packet to or from
    *sensor_name* sent at or after *at_s*; that packet is appended to *hit*."""

    def rule(packet):
        if hit or packet.kind is not kind or packet.created_at < at_s:
            return None
        if sensor_name not in (packet.src, packet.dst):
            return None
        hit.append(packet)
        return verdict

    return rule


@dataclass
class Run:
    """One scripted run and what was observed about it."""

    system: PrestoSystem
    log: list = field(default_factory=list)
    forks: int = 0
    #: ``(update, linked)`` per tracker the proxy built, in order
    trackers: list = field(default_factory=list)
    #: packets the script's rule acted on
    hit: list = field(default_factory=list)


def linked_or_eager(run: Run, linked: bool, patch) -> None:
    """Build *run*'s trackers linked, or eager (never linked, stepping
    alone, as every tracker did before); count forks and log each build."""
    init, fork = ProxyModelTracker.__init__, ProxyModelTracker._fork

    def built(tracker, update, checker=None):
        checker = checker if linked else None
        run.trackers.append((update, checker is not None))
        init(tracker, update, checker)

    def counted(tracker):
        run.forks += tracker._checker is not None
        fork(tracker)

    patch.setattr(ProxyModelTracker, "__init__", built)
    patch.setattr(ProxyModelTracker, "_fork", counted)


def drive(script, linked: bool, monkeypatch) -> Run:
    """One run of *script(run)* over the whole trace."""
    with monkeypatch.context() as patch:
        run = Run(make_system())
        linked_or_eager(run, linked, patch)
        script(run)
        probe(run.system, run.log)
        run.system.run()
        return run


def probe(system: PrestoSystem, log: list) -> None:
    """Log each sensor's proxy-side view at the middle of every epoch."""
    proxy = system.proxy

    def look():
        epoch = int(system.sim.now // PERIOD)
        row = []
        for sensor in range(N_SENSORS):
            state = proxy._states[sensor]
            tracker = state.tracker
            latest = proxy.cache.latest(sensor)
            row.append(
                (
                    state.last_epoch,
                    state.push_losses_detected,
                    None if tracker is None else tracker.substitutions,
                    None if tracker is None else tracker.pushes_applied,
                    None if latest is None else (latest.timestamp, latest.value, latest.std),
                    shipped(tracker)
                    if tracker is not None and epoch % PICKLE_EVERY == 0
                    else None,
                )
            )
        log.append(row)

    for epoch in range(int(HORIZON_S // PERIOD)):
        system.sim.schedule(epoch * PERIOD + PERIOD / 2, look)


def assert_same_run(script, monkeypatch) -> Run:
    """Run *script* linked and eager, assert every epoch matched, and
    return the linked run."""
    ours = drive(script, True, monkeypatch)
    theirs = drive(script, False, monkeypatch)
    assert theirs.forks == 0
    assert len(ours.log) == len(theirs.log) > 1000
    for epoch, (mine, reference) in enumerate(zip(ours.log, theirs.log)):
        assert mine == reference, f"epoch {epoch} diverged"
    for sensor in range(N_SENSORS):
        for a, b in zip(
            ours.system.proxy.cache.arrays_in(sensor, -1.0, 1e12),
            theirs.system.proxy.cache.arrays_in(sensor, -1.0, 1e12),
        ):
            np.testing.assert_array_equal(a, b)
        assert shipped(ours.system.proxy._states[sensor].tracker) == shipped(
            theirs.system.proxy._states[sensor].tracker
        )
    assert repr(ours.system.cell.report(HORIZON_S).summary()) == repr(
        theirs.system.cell.report(HORIZON_S).summary()
    )
    assert sum(linked for _, linked in ours.trackers) >= 2 * N_SENSORS
    return ours


def test_arq_exhausted_push_forks(monkeypatch):
    def script(run):
        intercept(
            run.system, first_after(20_000.0, PacketKind.PUSH, "sensor0", "drop", run.hit)
        )

    ours = assert_same_run(script, monkeypatch)
    assert ours.hit and ours.forks >= 1


def test_push_overtaken_by_a_now_query_forks(monkeypatch):
    def script(run):
        system = run.system
        rule = first_after(20_000.0, PacketKind.PUSH, "sensor1", 20.0, run.hit)

        def delay_and_query(packet):
            verdict = rule(packet)
            if verdict is not None:
                # a NOW query lands while the push is in flight
                now = system.sim.now + 5.0
                query = Query(0, QueryKind.NOW, 1, now, now, precision=100.0)
                system.sim.schedule(
                    now, lambda: system.proxy.process_query(query, query.sensor)
                )
            return verdict

        intercept(system, delay_and_query)

    ours = assert_same_run(script, monkeypatch)
    assert ours.hit and ours.forks >= 1
    assert ours.system.proxy._states[1].push_losses_detected > 0


def test_late_model_update_never_links(monkeypatch):
    def script(run):
        # the update reaches the sensor 30 epochs after shipping, 10 past
        # its activation epoch
        intercept(
            run.system,
            first_after(10_000.0, PacketKind.MODEL_UPDATE, "sensor0", 30 * PERIOD, run.hit),
        )

    ours = assert_same_run(script, monkeypatch)
    late = ours.hit[0].payload
    assert late in [update for update, _ in ours.trackers]


@pytest.mark.parametrize("batches_lost", [False, True])
def test_batch_mode_closes_the_trajectory(monkeypatch, batches_lost):
    """The checker does not step while batching, so the batched readings
    (or, when the batches are lost, the silent epochs the proxy reads over
    them) meet trajectory entries of later epochs, or none."""

    def script(run):
        sensor = run.system.sensors[1]

        def batching(interval):
            sensor.apply_operating_point(
                replace(sensor.operating_point, batch_interval_s=interval)
            )

        run.system.sim.schedule(15_000.0, lambda: batching(600.0))
        run.system.sim.schedule(18_000.0, lambda: batching(0.0))
        if batches_lost:

            def rule(packet):
                if packet.kind is PacketKind.BATCH:
                    run.hit.append(packet)
                    return "drop"
                return None

            intercept(run.system, rule)

    ours = assert_same_run(script, monkeypatch)
    assert ours.forks >= 1
    assert len(ours.hit) >= 4 if batches_lost else ours.system.sensors[1].batches_sent >= 4


def test_a_push_the_trajectory_does_not_hold_forks():
    """A pushed value other than the one the checker recorded for that
    epoch is not read off the trajectory."""
    update = fitted_update((2, 1, 1), seed=4)
    checker = SensorModelChecker(update)
    eager = ProxyModelTracker(update)
    tracker = ProxyModelTracker(update, checker)
    reading = checker._model.predict_next() + 5.0
    assert checker.process(reading).push
    for replica in (tracker, eager):
        replica.apply_push(reading + 0.25)
    assert tracker._checker is None
    assert shipped(tracker) == shipped(eager)


def test_full_trajectory_forks(monkeypatch):
    monkeypatch.setattr(push, "TRAJECTORY_EPOCHS", 40)
    ours = assert_same_run(lambda run: None, monkeypatch)
    # every activation outlives 40 epochs
    assert ours.forks == sum(linked for _, linked in ours.trackers) >= 4


def test_lossless_trace_never_forks_or_steps_the_tracker(monkeypatch):
    """With every push delivered (and sensing dropouts, which the checker
    records as silent), the tracker only reads: no fork, and no model step
    or observe at all — the checkers step in the fleet's batched pass, so
    any ``step`` or ``observe`` would be the tracker's."""
    checkers: list[SensorModelChecker] = []
    calls = {"step": 0, "observe": 0}
    init = SensorModelChecker.__init__

    def tracked_init(self, *args):
        init(self, *args)
        checkers.append(self)

    def counted(name):
        method = getattr(ARIMAModel, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(ARIMAModel, name, wrapper)

    monkeypatch.setattr(SensorModelChecker, "__init__", tracked_init)
    counted("step")
    counted("observe")
    run = Run(make_system(loss=0.0, dropout=0.05))
    linked_or_eager(run, True, monkeypatch)
    rng = np.random.default_rng(9)
    queries = [
        Query(i, QueryKind.NOW, int(rng.integers(0, N_SENSORS)), float(at), float(at))
        for i, at in enumerate(np.sort(rng.uniform(5_000.0, HORIZON_S, 200)))
    ]
    run.system.run(queries=queries)
    trackers = [run.system.proxy._states[s].tracker for s in range(N_SENSORS)]
    assert sum(t.substitutions for t in trackers) > 200
    assert len(run.trackers) >= 2 * N_SENSORS   # several activations per sensor
    assert all(linked for _, linked in run.trackers)
    assert run.forks == 0
    assert sum(c.checks for c in checkers) > 200
    assert calls == {"step": 0, "observe": 0}


def test_pickled_mid_silent_run_matches_eager(monkeypatch):
    """A NOW query's catch-up stops inside a silent run; the tracker's state
    read there carries the state an eagerly stepped tracker has, and keeps its
    link."""

    def tracker_at(linked: bool):
        with monkeypatch.context() as patch:
            run = Run(make_system(loss=0.0))
            linked_or_eager(run, linked, patch)
            run.system.cell.start_tasks()
            run.system.sim.run_until(20_000.0)
            run.system.proxy.advance_to_now(0)
            return run.system, run.system.proxy._states[0].tracker

    system, ours = tracker_at(True)
    _, theirs = tracker_at(False)
    assert ours._checker is system.sensors[0].checker
    assert ours._cursor - ours._folded > 50       # nothing folded yet
    assert shipped(ours) == shipped(theirs)
    assert ours._folded == ours._cursor
    assert ours._checker is system.sensors[0].checker


def fitted_update(order: tuple[int, int, int], seed: int) -> push.ModelUpdate:
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.normal(0.0, 0.1, 400)) + 20.0
    return push.ModelUpdate(model=ARIMAModel(order=order).fit(x), delta=0.3)


def test_verify_replicas_in_sync_compares_state():
    """The same next prediction is not enough: the hook compares declared
    state, at the same epoch."""
    update = fitted_update((1, 1, 0), seed=5)
    checker = SensorModelChecker(update)
    tracker = ProxyModelTracker(update, checker)
    rng = np.random.default_rng(6)
    for value in update.model.predict_next() + np.cumsum(rng.normal(0.0, 0.2, 50)):
        if checker.process(float(value)).push:
            tracker.apply_push(float(value))
        else:
            tracker.advance_silent()
    assert push.verify_replicas_in_sync(checker, tracker)
    checker.advance_silent()                      # one epoch ahead
    assert not push.verify_replicas_in_sync(checker, tracker)
    tracker.advance_silent()
    assert push.verify_replicas_in_sync(checker, tracker)
    # an AR(1) innovation is state no prediction reads
    tracker._model._eps[-1] += 1e-9
    assert tracker._model.predict_next() == checker._model.predict_next()
    assert not push.verify_replicas_in_sync(checker, tracker)


@pytest.mark.parametrize("after", [1, 7])
def test_silent_run_forks_at_the_first_pushed_epoch(after):
    """A run over a pushed epoch the proxy never received reads the silent
    prefix off the trajectory, then steps the own model from that epoch."""
    update = fitted_update((2, 1, 1), seed=8)
    checker = SensorModelChecker(update)
    eager = ProxyModelTracker(update)
    tracker = ProxyModelTracker(update, checker)
    epochs = 4 + after
    for epoch in range(epochs):
        predicted = checker._model.predict_next()
        checker.process(predicted + (5.0 if epoch == 3 else 0.0))
    assert list(checker.trajectory[1][:epochs]) == [0, 0, 0, 1] + [0] * after
    values = tracker.silent_run(epochs)
    assert values.tolist() == [eager.advance_silent() for _ in range(epochs)]
    assert tracker._checker is None
    assert tracker.substitutions == eager.substitutions == epochs
    assert shipped(tracker) == shipped(eager)
