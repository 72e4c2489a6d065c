"""The uplink's two batched paths against their per-item oracles.

**The inbox against one kernel event per delivered uplink.**  A delivered
push or batch no longer schedules a kernel event: it waits in its proxy's
per-sensor inbox, stamped with its arrival instant and a kernel ticket, and
every read or mutation of the proxy first lands what arrived before it
(``PrestoProxy.drain``) — a sensor's due arrivals as runs, and while
standing queries are armed the watched sensors' merged in arrival order.
The reference (``reference_ingest.per_arrival``) lands each uplink at its
own event, each push and each batched reading one write, as before.  Both
must leave the same cache columns, counters, trackers, sync estimates and
standing-query notifications (order included) over drawn multi-cell
systems with standing queries, drawn federations with standing queries and
a proxy death, and the five perf workloads; and every delivered uplink must
be landed exactly once.

**One send per pass against one send per push.**  A sampling pass sends
its pushes as one ``Network.send_uplinks`` call per cell, no packet or
outcome built per push; the reference (``reference_ingest.per_push``) sends
each at its row's visit through ``Network.send``, as before.  Both must
queue the same uplinks in the same order — arrival instants bit for bit,
kernel tickets and payloads — and leave the same cache columns, link
ledgers, meter breakdowns and summaries, over drawn cells (cold pushes,
batching rows that flush between pushes in one pass, a mid-run link swap,
drifting clocks), drawn partitioned federations (several cells on one
fleet) and the five perf workloads.

Three mutants of the batched send must each fail a test here: a batching
row's flush sent *after* the pushes pending before it (the loss stream
and tickets drawn out of order), a closed-form latency instead of the ARQ
loop's term-by-term sum (arrival instants move in the last bit), and
``EnergyMeter.since`` ignoring a counted source (a pull's energy loses its
link frames).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from proxy_steps import catch_up
import reference_ingest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_ingest import per_arrival, per_push
from test_fleet import Plan, hexes, plans, simulate
from test_lockstep import fitted_update, shipped

from repro.core import federation as federation_module
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.continuous import ContinuousQuery, TriggerKind
from repro.core.federation import FederatedSystem
from repro.core.proxy import PrestoProxy
from repro.core.push import ProxyModelTracker, SensorModelChecker
from repro.core.queries import AnswerSource
from repro.core.sensor import PULL_REQUEST_BYTES, PrestoSensor
from repro.core.system import PrestoCell, PrestoSystem
from repro.radio.link import LinkConfig
from repro.radio.network import Network
from repro.simulation.kernel import Simulator
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import Query, QueryKind

PERIOD = 31.0
PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


def proxy_view(proxy: PrestoProxy) -> dict:
    """Everything a proxy's ingest leaves, as comparable plain data."""
    proxy.drain()
    view: dict = {
        "cache": (proxy.cache.insertions, proxy.cache.refinements, proxy.cache.evictions),
        "continuous": (proxy.continuous.evaluations, proxy.continuous.stale_entries_skipped),
        "notifications": list(proxy.continuous.notifications),
    }
    for sensor, state in sorted(proxy._states.items()):
        columns = proxy.cache.arrays_in(sensor, -math.inf, math.inf)
        estimate = proxy.sync.estimate_for(proxy._sync_key(sensor))
        tracker = state.tracker
        view[sensor] = (
            state.last_epoch,
            state.pushes_received,
            state.batches_received,
            state.push_losses_detected,
            [hexes(column) for column in columns],
            None if estimate is None else hexes(dataclasses.astuple(estimate)),
            None
            if tracker is None
            else (
                tracker.substitutions,
                tracker.pushes_applied,
                tracker.state()[0],
                [hexes(element) for element in tracker.state()[1]],
            ),
        )
    return view


def tally_uplinks(patch) -> Counter:
    """Count each proxy's delivered uplinks, by proxy name."""
    delivered: Counter = Counter()
    accept = PrestoProxy.accept

    def counted(self, arrivals):
        delivered[self.name] += len(arrivals)
        accept(self, arrivals)

    patch.setattr(PrestoProxy, "accept", counted)
    return delivered


def assert_conserved(proxy: PrestoProxy, network: Network, delivered: int, horizon: float):
    """Every delivered uplink landed exactly once, or still waits: then it
    arrives after *horizon*, as an undelivered event would have."""
    assert network.packets_sent == network.packets_delivered + network.packets_dropped
    proxy.drain()
    landed = sum(s.pushes_received + s.batches_received for s in proxy._states.values())
    waiting = [arrival[0] for queue in proxy._inbox.values() for arrival in queue]
    assert landed + len(waiting) == delivered
    assert all(at > horizon for at in waiting)


# -- drawn multi-cell systems (test_fleet's plans) ------------------------------------


@settings(max_examples=12, deadline=None)
@given(plan=plans())
def test_inbox_lands_what_per_arrival_delivery_lands(plan):
    with pytest.MonkeyPatch.context() as patch:
        delivered = tally_uplinks(patch)
        cells, answers = simulate(plan, reference=False)
        ours = [proxy_view(cell.proxy) for cell in cells]
        for cell in cells:
            assert_conserved(
                cell.proxy, cell.network, delivered[cell.proxy.name], plan.horizon_s
            )
    with pytest.MonkeyPatch.context() as patch:
        per_arrival(patch)
        reference_cells, reference_answers = simulate(plan, reference=False)
        theirs = [proxy_view(cell.proxy) for cell in reference_cells]
    assert ours == theirs
    assert [repr(a) for a in answers] == [repr(a) for a in reference_answers]


# -- drawn federations: standing queries, batching, a proxy death -----------------------


@dataclasses.dataclass(frozen=True)
class Federation:
    seed: int
    n_sensors: int
    n_proxies: int
    loss: float
    batch_interval_s: float
    standing: tuple[int, ...]                 # watched global sensors
    kill: tuple[int, float] | None            # (proxy index, fraction of the horizon)
    queries: tuple[tuple[float, int, int], ...]

    @property
    def horizon_s(self) -> float:
        return 300 * PERIOD


@st.composite
def federations(draw) -> Federation:
    n_sensors = draw(st.integers(3, 6))
    n_proxies = draw(st.integers(2, 3))
    times = st.floats(600.0, 300 * PERIOD - 60.0, allow_nan=False)
    return Federation(
        seed=draw(st.integers(0, 2**16)),
        n_sensors=n_sensors,
        n_proxies=n_proxies,
        loss=draw(st.sampled_from([0.0, 0.3])),
        batch_interval_s=draw(st.sampled_from([0.0, 0.0, 300.0])),
        standing=tuple(draw(st.sets(st.integers(0, n_sensors - 1), max_size=2))),
        kill=draw(
            st.none()
            | st.tuples(st.integers(0, n_proxies - 1), st.floats(0.2, 0.8, allow_nan=False))
        ),
        queries=tuple(
            draw(
                st.lists(
                    st.tuples(times, st.integers(0, n_sensors - 1), st.integers(0, 2)),
                    max_size=8,
                )
            )
        ),
    )


def run_federation(drawn: Federation, patch) -> tuple[str, dict]:
    """Run *drawn*; its report summary and its cells by proxy name."""
    partitions = []
    finish = federation_module._CellPartition.finish

    def kept(self):
        partitions.append(self)
        return finish(self)

    patch.setattr(federation_module._CellPartition, "finish", kept)
    trace = IntelLabGenerator(
        IntelLabConfig(n_sensors=drawn.n_sensors, duration_s=drawn.horizon_s, epoch_s=PERIOD),
        seed=drawn.seed,
    ).generate()
    config = PrestoConfig(
        sample_period_s=PERIOD,
        min_training_epochs=48,
        training_epochs=96,
        refit_interval_s=40 * PERIOD,
        batch_interval_s=drawn.batch_interval_s,
        link=LinkConfig(loss_probability=drawn.loss),
    )
    system = FederatedSystem(
        trace,
        config,
        FederationConfig(
            n_proxies=drawn.n_proxies,
            partition_backend="inline",
            replica_sync_interval_s=1_200.0,
        ),
        seed=drawn.seed,
    )
    for sensor in drawn.standing:
        system.continuous.register(
            ContinuousQuery(sensor=sensor, kind=TriggerKind.ABOVE, threshold=21.0)
        )
    killed = []
    if drawn.kill is not None:
        index, fraction = drawn.kill
        killed.append(system.proxy_names[index])
        system.schedule_failure(killed[0], fraction * drawn.horizon_s)
    kinds = (QueryKind.NOW, QueryKind.PAST_POINT, QueryKind.PAST_RANGE)
    queries = [
        Query(number, kinds[kind], sensor, at, at if kind == 0 else at / 2,
              window_s=0.0 if kind < 2 else 20 * PERIOD)
        for number, (at, sensor, kind) in enumerate(sorted(drawn.queries))
    ]
    report = system.run(queries=queries, duration_s=drawn.horizon_s)
    assert all(not p.directory.proxy(name).alive for p in partitions for name in killed)
    cells = {name: cell for partition in partitions for name, cell in partition._built.items()}
    return repr(report.summary()), cells


@settings(max_examples=8, deadline=None)
@given(drawn=federations())
def test_federations_land_what_per_arrival_delivery_lands(drawn):
    def views(patch) -> tuple[str, dict]:
        summary, cells = run_federation(drawn, patch)
        return summary, {name: proxy_view(cell.proxy) for name, cell in cells.items()}

    with pytest.MonkeyPatch.context() as patch:
        ours = views(patch)
    with pytest.MonkeyPatch.context() as patch:
        per_arrival(patch)
        theirs = views(patch)
    assert ours == theirs


def test_a_dead_proxy_keeps_landing_every_delivered_uplink():
    """A killed proxy answers nothing, so only its refits and the end of
    the run drain its inbox; every uplink it was delivered still lands."""
    drawn = Federation(
        seed=11, n_sensors=4, n_proxies=2, loss=0.3, batch_interval_s=0.0,
        standing=(), kill=(1, 0.3), queries=((3_000.0, 3, 0), (7_000.0, 2, 0)),
    )
    with pytest.MonkeyPatch.context() as patch:
        delivered = tally_uplinks(patch)
        _, cells = run_federation(drawn, patch)
    assert delivered["proxy1"] > 100
    for name, cell in cells.items():
        assert_conserved(cell.proxy, cell.network, delivered[name], drawn.horizon_s)


# -- the perf workloads -------------------------------------------------------------------


WORKLOADS = ("cell_day", "fed_armed", "query_storm", "sync_coded", "flash_pressure")


def run_workload(workload: str, patch) -> tuple[str, list]:
    """Run perf *workload* at quick scale, a federation's partitions in
    this process: its report summary and its cells."""
    sys.path.insert(0, str(PERF))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERF))
    partitions = []
    finish = federation_module._CellPartition.finish

    def kept(self):
        partitions.append(self)
        return finish(self)

    patch.setattr(federation_module._CellPartition, "finish", kept)
    system, queries, _ = workloads.build(workload, workloads.DEFAULT_SEED, "quick")
    if not isinstance(system, PrestoSystem):
        system.federation = dataclasses.replace(system.federation, partition_backend="inline")
    report = system.run(queries=queries)
    cells = (
        [system.cell]
        if isinstance(system, PrestoSystem)
        else [cell for p in partitions for cell in p._built.values()]
    )
    return repr(report.summary()), cells


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perf_workloads_land_what_per_arrival_delivery_lands(workload):
    def run(patch) -> tuple[str, list[dict]]:
        summary, cells = run_workload(workload, patch)
        return summary, [proxy_view(cell.proxy) for cell in cells]

    with pytest.MonkeyPatch.context() as patch:
        ours = run(patch)
    with pytest.MonkeyPatch.context() as patch:
        per_arrival(patch)
        theirs = run(patch)
    assert ours == theirs


# -- one send per pass against one send per push --------------------------------------


def plain(payload) -> tuple:
    """An uplink's payload as comparable plain data."""
    if type(payload) is tuple:
        sensor, epoch, value, local_time = payload
        return sensor, epoch, value.hex(), local_time.hex()
    return (
        payload["sensor"], hexes(payload["timestamps"]), hexes(payload["values"]),
        float(payload["quant_step"]).hex(),
    )


def uplink_log(patch) -> list:
    """Log every uplink a proxy queues — proxy, arrival instant, kernel
    ticket, payload — in the order the proxies queue them."""
    log: list = []
    accept = PrestoProxy.accept

    def logged(self, arrivals):
        sizes = {sensor: len(queue) for sensor, queue in self._inbox.items()}
        accept(self, arrivals)
        queued = sorted(
            (entry for sensor, queue in self._inbox.items()
             for entry in queue[sizes.get(sensor, 0):]),
            key=lambda entry: entry[1],
        )
        log.extend(
            (self.name, at.hex(), ticket, plain(payload)) for at, ticket, payload, _ in queued
        )

    patch.setattr(PrestoProxy, "accept", logged)
    return log


def breakdown(meter) -> list:
    return [(name, joules.hex()) for name, joules in meter.snapshot().by_category.items()]


def radio_view(cells) -> list:
    """Every cell's packets, link ledgers, push counts and meter breakdowns."""
    view: list = []
    for cell in cells:
        network = cell.network
        view.append((network.packets_sent, network.packets_delivered, network.packets_dropped))
        for sensor in cell.sensors:
            mac = network.mac_for(sensor.name)
            view.append((
                mac.uplink.stats, mac.downlink.stats, sorted(
                    (key, tally.attempts, tally.deliveries, tally.drops)
                    for link in (mac.uplink, mac.downlink)
                    for key, tally in link._ledger.items()
                ),
                sensor.pushes_sent, sensor.cold_pushes, breakdown(sensor.meter),
            ))
        view.append(breakdown(cell.proxy_meter))
    return view


REGIMES = (
    LinkConfig(loss_probability=0.6, max_retries=1),
    LinkConfig(loss_probability=0.3, max_retries=3, backoff_s=0.013),
    LinkConfig(loss_probability=0.0, max_retries=0, backoff_s=0.2, propagation_s=3e-4),
)


def swap_links(patch, at: float, regime: LinkConfig, first_only: bool) -> None:
    """Every cell swaps its link regime at *at* — its first sensor's only,
    or the whole star's."""
    start = PrestoCell.start_tasks

    def started(self):
        start(self)
        names = self.network.sensor_names[:1] if first_only else None
        self.sim.schedule(at, lambda: self.network.set_link_config(regime, names))

    patch.setattr(PrestoCell, "start_tasks", started)


def sent_per_pass_and_per_push(plan, swap=None) -> tuple:
    """What *plan*'s cells leave with a pass's pushes sent per cell run,
    and with each push sent alone."""

    def run(patch) -> tuple:
        log = uplink_log(patch)
        if swap is not None:
            swap_links(patch, *swap)
        cells, answers = simulate(plan, reference=False)
        return (
            log,
            [proxy_view(cell.proxy) for cell in cells],
            radio_view(cells),
            [repr(answer) for answer in answers],
            [repr(dataclasses.replace(cell.report(plan.horizon_s), answers=[], truths=[]))
             for cell in cells],
        )

    with pytest.MonkeyPatch.context() as patch:
        ours = run(patch)
    with pytest.MonkeyPatch.context() as patch:
        per_push(patch)
        theirs = run(patch)
    return ours, theirs


@settings(max_examples=12, deadline=None)
@given(
    plan=plans(),
    swap=st.tuples(
        st.floats(0.1, 0.9, allow_nan=False), st.sampled_from(REGIMES), st.booleans()
    ),
)
def test_one_send_per_pass_equals_one_send_per_push(plan, swap):
    fraction, regime, first_only = swap
    ours, theirs = sent_per_pass_and_per_push(plan, (fraction * plan.horizon_s, regime, first_only))
    assert ours == theirs


def test_a_batch_flushed_between_pushes_of_one_pass_leaves_between_them():
    """Sensor 0 pushes every epoch (cold, then on every break of a tight
    delta) and sensor 2 too; sensor 1 batches between them, flushing every
    few epochs mid-pass, over a lossy star with drifting clocks."""
    plan = Plan(
        cell_sizes=(3,), seed=7, dropout=0.0, loss=0.3, check_interval_s=1.0,
        batch_interval_s=0.0, retune_interval_s=1e12, clocks=True,
        retunes=((200.0, 1, 0.3, 150.0), (2_000.0, 0, 0.05, 0.0), (2_000.0, 2, 0.05, 0.0)),
        queries=((4_000.0, 0, 0), (6_000.0, 1, 1)), watched=(),
    )
    flushes: list[bool] = []
    pushed_at: dict = {}
    send, flush = reference_ingest.send_push, PrestoSensor.flush_batch

    def noted_send(sensor, true_time, value):
        pushed_at[sensor.network] = sensor.epoch
        send(sensor, true_time, value)

    def noted_flush(self):
        flushes.append(pushed_at.get(self.network) == self.epoch)
        flush(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reference_ingest, "send_push", noted_send)
        patch.setattr(PrestoSensor, "flush_batch", noted_flush)
        ours, theirs = sent_per_pass_and_per_push(plan)
    assert sum(flushes) >= 10   # the reference side pushed before a flush in one pass
    assert ours == theirs


@settings(max_examples=6, deadline=None)
@given(drawn=federations())
def test_federations_send_per_pass_what_per_push_sends(drawn):
    def run(patch) -> tuple:
        log = uplink_log(patch)
        summary, cells = run_federation(drawn, patch)
        names = sorted(cells)
        return (
            log, summary, [proxy_view(cells[name].proxy) for name in names],
            radio_view([cells[name] for name in names]),
        )

    with pytest.MonkeyPatch.context() as patch:
        ours = run(patch)
    with pytest.MonkeyPatch.context() as patch:
        per_push(patch)
        theirs = run(patch)
    assert ours == theirs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perf_workloads_send_per_pass_what_per_push_sends(workload):
    def run(patch) -> tuple:
        log = uplink_log(patch)
        summary, cells = run_workload(workload, patch)
        return log, summary, [proxy_view(cell.proxy) for cell in cells], radio_view(cells)

    with pytest.MonkeyPatch.context() as patch:
        ours = run(patch)
    with pytest.MonkeyPatch.context() as patch:
        per_push(patch)
        theirs = run(patch)
    assert ours[0] and ours[2]
    assert ours == theirs


# -- drain points ---------------------------------------------------------------------------


def small_system(seed: int = 2, n_sensors: int = 2, **config) -> PrestoSystem:
    trace = IntelLabGenerator(
        IntelLabConfig(n_sensors=n_sensors, duration_s=40_000.0, epoch_s=PERIOD), seed=seed
    ).generate()
    return PrestoSystem(trace, PrestoConfig(sample_period_s=PERIOD, **config), seed=seed)


def test_uplinks_wait_until_read_and_land_in_arrival_order():
    """Pushes fire no kernel event; a query drains its own sensor only,
    and a direct ``on_receive`` lands at once, after its sensor's queue."""
    system = small_system()
    system.run(duration_s=10_000.0)
    proxy, sim = system.proxy, system.sim
    assert not proxy._inbox                      # the run's end drained it
    system.cell.start_tasks()
    sim.run_until(14_000.0)
    waiting = {sensor: len(queue) for sensor, queue in proxy._inbox.items()}
    assert waiting.get(0, 0) > 2 and waiting.get(1, 0) > 2
    proxy.process_query(Query(0, QueryKind.NOW, 0, 14_000.0, 14_000.0, precision=100.0), 0)
    assert 0 not in proxy._inbox and len(proxy._inbox[1]) == waiting[1]
    last = proxy._states[1].last_epoch
    epoch = int(14_000.0 // PERIOD) + 1
    pushes = proxy._states[1].pushes_received
    proxy.on_receive((1, epoch, 99.0, 14_000.0))
    assert 1 not in proxy._inbox
    assert proxy._states[1].pushes_received == pushes + waiting[1] + 1
    assert proxy._states[1].last_epoch == epoch > last
    assert proxy.cache.latest(1).value == 99.0


def test_arming_a_standing_query_over_a_queued_uplink_is_refused():
    system = small_system()
    system.cell.start_tasks()
    system.sim.run_until(5_000.0)
    system.continuous.register(ContinuousQuery(sensor=0, kind=TriggerKind.ABOVE, threshold=0.0))
    with pytest.raises(RuntimeError, match="armed before uplinks queue"):
        catch_up(system.proxy, 0)


def test_watched_sensors_drain_merged_in_arrival_order():
    """Two watched sensors' pushes interleave in time; a query on one of
    them mid-stream drains both, merged, so the notifications come out in
    the order one event per uplink gives them.  Drained one sensor at a
    time, all of sensor 0's queued pushes would notify before sensor 1's."""

    def notified() -> tuple[dict, list]:
        system = small_system()
        for sensor in (0, 1):
            system.continuous.register(
                ContinuousQuery(sensor=sensor, kind=TriggerKind.ABOVE, threshold=-1e9)
            )
        proxy, sim = system.proxy, system.sim
        waiting = {}

        def query():
            waiting.update((sensor, len(queue)) for sensor, queue in proxy._inbox.items())
            proxy.process_query(Query(0, QueryKind.NOW, 0, 3_000.0, 3_000.0, precision=100.0), 0)

        system.cell.start_tasks()
        sim.schedule(3_000.0, query)
        sim.run_until(6_000.0)
        proxy.drain()
        return waiting, [(n.sensor, n.timestamp) for n in proxy.continuous.notifications]

    waiting, ours = notified()
    with pytest.MonkeyPatch.context() as patch:
        per_arrival(patch)
        _, theirs = notified()
    assert waiting[0] > 10 and waiting[1] > 10
    assert ours == theirs
    before = [sensor for sensor, timestamp in ours if timestamp < 3_000.0]
    assert before[:4] == [0, 1, 0, 1]


def test_kernel_ticket_keeps_the_tie_order_of_later_events():
    sim = Simulator()
    order = []
    sim.schedule(5.0, lambda: order.append(("a", sim.position)))
    (ticket,) = sim.tickets(1)
    sim.schedule(5.0, lambda: order.append(("b", sim.position)))
    assert sim.position == (0.0, math.inf)
    sim.run_until(10.0)
    (_, a), (_, b) = order
    assert a < (5.0, ticket) < b
    assert sim.position == (10.0, math.inf)


def test_activation_gap_leaves_the_retiring_trackers_unread_epochs_uncached():
    """Pinned, not endorsed: a new model's activation jumps the sensor's
    newest epoch to ``activation - 1``, so the silent epochs the retiring
    tracker had not landed yet get no cache row at all.  Without queries,
    pulls or dropouts these gaps are exactly the epochs a cache column
    misses."""
    switches = []
    activate = PrestoProxy._activate_if_due

    def logged(self, sensor, state, epoch):
        before = (state.pending, state.last_epoch, state.tracker)
        activate(self, sensor, state, epoch)
        if state.tracker is not before[2] and before[2] is not None:
            switches.append((sensor, before[1], before[0].activation_epoch))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrestoProxy, "_activate_if_due", logged)
        system = small_system(
            seed=4, min_training_epochs=64, refit_interval_s=3 * 3600.0,
            cache_entries_per_sensor=5_000,
        )
        system.run(duration_s=40_000.0)
    proxy = system.proxy
    assert len(switches) >= 4
    for sensor in range(2):
        times = proxy.cache.arrays_in(sensor, -math.inf, math.inf)[0]
        epochs = set(np.rint(times / PERIOD).astype(int).tolist())
        missing = set(range(proxy._states[sensor].last_epoch + 1)) - epochs
        gaps = {
            epoch
            for switched, newest, activation in switches
            if switched == sensor
            for epoch in range(newest + 1, activation)
        }
        assert gaps and missing == gaps


# -- a pull's own energy ---------------------------------------------------------------------


def pulled_joules(meter_categories: dict[str, dict[float, int]]) -> float:
    """Counts × unit joules, summed as the meter sums: category name, then unit."""
    total = 0.0
    for category in sorted(meter_categories):
        spent = 0.0
        for unit_j in sorted(meter_categories[category]):
            spent += meter_categories[category][unit_j] * unit_j
        total += spent
    return total


def test_a_pull_answer_spends_its_own_frames_and_pages():
    """``sensor_energy_j`` of a NOW and a PAST pull is the pull's link
    frames (request heard, reply attempts and ACKs) and flash pages times
    their constants, bit for bit — from the links' and flash's own
    ledgers, not from the meter."""
    system = small_system(seed=6, link=LinkConfig(loss_probability=0.3))
    system.run(duration_s=20_000.0)
    proxy, sensor = system.proxy, system.sensors[0]
    mac = system.network.mac_for(sensor.name)
    up, down, flash = mac.uplink, mac.downlink, sensor.archive.flash
    constants = flash.constants
    target = 19_000.0
    cases = [
        Query(0, QueryKind.NOW, 0, 20_000.0, 20_000.0),
        Query(1, QueryKind.PAST_POINT, 0, 20_000.0, target),
    ]
    for query in cases:
        before = (
            up.stats.attempts, up.stats.deliveries, down.stats.deliveries,
            flash.stats.pages_read, flash.stats.pages_written, flash.stats.blocks_erased,
        )
        if query.kind is QueryKind.NOW:
            answer = proxy._pull_now(query, 0, 0.0, None)
            reply_bytes = 8
        else:
            answer = proxy._pull_past(query, 0, 0.0, target - PERIOD, target + PERIOD, None)
            reply_bytes = answer.pulled_bytes
        assert answer.source is AnswerSource.SENSOR_PULL
        reply = up._frames[(reply_bytes, 0)]
        request = down._frames[(PULL_REQUEST_BYTES, mac.duty_cycle.lpl_preamble_bytes(mac.radio))]
        after = (
            up.stats.attempts, up.stats.deliveries, down.stats.deliveries,
            flash.stats.pages_read, flash.stats.pages_written, flash.stats.blocks_erased,
        )
        attempts, acks, heard, read, written, erased = (b - a for a, b in zip(before, after))
        counts = {
            "radio.pull_reply": {reply.tx_j: attempts, reply.ack_j: acks},
            "radio.rx": {request.rx_j: heard},
            "flash.read": {constants.read_page_energy_j: read},
            "flash.write": {constants.write_page_energy_j: written},
            "flash.erase": {constants.erase_block_energy_j: erased},
        }
        assert (heard, acks) == (1, 1) and (read > 0) is (query.kind is not QueryKind.NOW)
        assert answer.sensor_energy_j == pulled_joules(counts)


def test_read_pushes_lands_only_the_prefix_the_trajectory_holds():
    """``read_pushes`` is the one run reader: a linked tracker reads the run
    off the trajectory at once, one whose run leaves the trajectory forks
    there, and a ``from_state`` tracker steps it all — and each returns, bit
    for bit, what the silent runs and pushes it replaces return."""
    update = fitted_update((2, 1, 1), seed=8)
    checker = SensorModelChecker(update)
    pushed = {}
    for epoch in range(9):
        predicted = checker._model.predict_next()
        reading = predicted + (5.0 if epoch in (2, 5) else 0.0)
        if checker.process(reading).push:
            pushed[epoch] = reading
    assert sorted(pushed) == [2, 5]
    declared = ProxyModelTracker(update).state()
    runs = {
        # every push is on the trajectory: read at once, still linked
        "linked": (ProxyModelTracker(update, checker), [2, 5], [pushed[2], pushed[5]]),
        # a reading the checker never pushed (a batch's) at epoch 4: fork there
        "forked": (ProxyModelTracker(update, checker), [2, 4, 5, 7],
                   [pushed[2], 21.0, pushed[5], 20.5]),
        "from_state": (ProxyModelTracker.from_state(*declared), [2, 5], [pushed[2], pushed[5]]),
    }
    for name, (tracker, offsets, readings) in runs.items():
        eager = (
            ProxyModelTracker.from_state(*declared)
            if name == "from_state"
            else ProxyModelTracker(update, checker)
        )
        expected, step = array("d"), 0
        for offset, reading in zip(offsets, readings):
            expected.extend(eager.silent_run(offset - step))
            eager.apply_push(reading)
            expected.append(reading)
            step = offset + 1
        values = tracker.read_pushes(offsets, readings)
        if name == "linked":   # read off the trajectory: nothing stepped
            assert tracker._cursor == 6 and tracker._own_model is None
        assert hexes(values) == hexes(expected), name
        assert (tracker.substitutions, tracker.pushes_applied) == (
            eager.substitutions,
            eager.pushes_applied,
        ), name
        assert tracker.pushes_applied == len(offsets)
        assert shipped(tracker) == shipped(eager), name
        assert (tracker._checker is not None) is (name == "linked"), name
