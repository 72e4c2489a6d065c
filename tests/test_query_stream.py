"""The kernel's query stream against one kernel event per query.

Queries no longer enter the event heap: ``PrestoSystem.run`` and each
federation partition take their queries' sequence numbers with
``Simulator.tickets`` where the per-query events used to be scheduled,
hand the kernel one sorted ``(time, seq, query)`` stream, and
``Simulator.run_until`` fires each where its event would have fired.  Each
query is then routed through its sensor's route row, worked out once.  The
reference (``reference_routing.per_query_event``) restores the per-query
events, the old kernel loop and the route worked out per query; both must
leave the same answer log, failover positions and report, over drawn
federations whose queries tie with sampling passes, periodic tasks, replica
syncs, proxy deaths and link changes, drawn single cells, and the five perf
workloads.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_routing import per_query_event

from repro.core import federation as federation_module
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.federation import FederatedSystem
from repro.core.proxy import PrestoProxy
from repro.core.system import PrestoSystem
from repro.radio.link import LinkConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import Query, QueryKind

PERF = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"
PERIOD = 31.0
HORIZON_S = 300 * PERIOD
KINDS = (QueryKind.NOW, QueryKind.PAST_POINT, QueryKind.PAST_RANGE)
#: instants other work is due at: idle accounting and retunes (hourly),
#: replica syncs (every 1 200 s), refits (48 epochs + 1 s, then every 40)
DUE = (1_200.0, 1_489.0, 2_400.0, 2_729.0, 3_600.0, 3_969.0, 4_800.0, 7_200.0)


def config(loss: float = 0.1) -> PrestoConfig:
    return PrestoConfig(
        sample_period_s=PERIOD,
        min_training_epochs=48,
        training_epochs=96,
        refit_interval_s=40 * PERIOD,
        link=LinkConfig(loss_probability=loss),
    )


def trace(n_sensors: int, seed: int):
    return IntelLabGenerator(
        IntelLabConfig(n_sensors=n_sensors, duration_s=HORIZON_S, epoch_s=PERIOD),
        seed=seed,
    ).generate()


@st.composite
def instants(draw) -> float:
    """A time that ties with other work more often than not."""
    return draw(
        st.floats(400.0, HORIZON_S - 60.0, allow_nan=False)
        | st.integers(13, 299).map(lambda epoch: epoch * PERIOD)
        | st.sampled_from(DUE)
    )


@st.composite
def query_lists(draw, n_sensors: int) -> list[tuple[float, int, int]]:
    """``(arrival, sensor, kind)`` triples, several often at one instant."""
    queries = []
    for at in draw(st.lists(instants(), max_size=10)):
        for _ in range(draw(st.integers(1, 3))):
            queries.append((at, draw(st.integers(0, n_sensors - 1)), draw(st.integers(0, 2))))
    return queries


def as_queries(drawn: list[tuple[float, int, int]]) -> list[Query]:
    return [
        Query(number, KINDS[kind], sensor, at, at if kind == 0 else at / 2,
              window_s=0.0 if kind < 2 else 20 * PERIOD)
        for number, (at, sensor, kind) in enumerate(drawn)
    ]


def outcome(system, report) -> tuple:
    """Everything a run leaves that routing could move."""
    failovers = getattr(system, "_failover_positions", None)
    return repr(report), [repr(answer) for answer in report.answers], failovers


def both(run) -> tuple[tuple, tuple]:
    """*run* (a function of nothing) on the stream, then on per-query events."""
    ours = run()
    with pytest.MonkeyPatch.context() as patch:
        per_query_event(patch)
        theirs = run()
    return ours, theirs


# -- drawn federations ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Federation:
    seed: int
    n_sensors: int
    n_proxies: int
    partitions: int
    kill: tuple[int, float] | None                    # (proxy, instant)
    link_change: tuple[float, float] | None           # (instant, loss)
    queries: tuple[tuple[float, int, int], ...]


@st.composite
def federations(draw) -> Federation:
    n_sensors = draw(st.integers(3, 6))
    n_proxies = draw(st.integers(2, 3))
    return Federation(
        seed=draw(st.integers(0, 2**16)),
        n_sensors=n_sensors,
        n_proxies=n_proxies,
        partitions=draw(st.integers(1, n_proxies)),
        kill=draw(st.none() | st.tuples(st.integers(0, n_proxies - 1), instants())),
        link_change=draw(st.none() | st.tuples(instants(), st.sampled_from([0.0, 0.4]))),
        queries=tuple(draw(query_lists(n_sensors))),
    )


def run_federation(drawn: Federation) -> tuple:
    system = FederatedSystem(
        trace(drawn.n_sensors, drawn.seed),
        config(),
        FederationConfig(
            n_proxies=drawn.n_proxies,
            partitions=drawn.partitions,
            partition_backend="inline",
            replica_sync_interval_s=1_200.0,
        ),
        seed=drawn.seed,
    )
    if drawn.kill is not None:
        proxy, at = drawn.kill
        system.schedule_failure(system.proxy_names[proxy], at)
    if drawn.link_change is not None:
        at, loss = drawn.link_change
        system.schedule_link_change(at, LinkConfig(loss_probability=loss))
    report = system.run(queries=as_queries(list(drawn.queries)), duration_s=HORIZON_S)
    return outcome(system, report)


@settings(max_examples=15, deadline=None)
@given(drawn=federations())
def test_federations_route_what_per_query_events_route(drawn):
    ours, theirs = both(lambda: run_federation(drawn))
    assert ours == theirs


# -- drawn single cells ---------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_sensors=st.integers(1, 3),
    link_change=st.none() | instants(),
    data=st.data(),
)
def test_cells_answer_what_per_query_events_answer(seed, n_sensors, link_change, data):
    drawn = data.draw(query_lists(n_sensors))

    def run() -> tuple:
        system = PrestoSystem(trace(n_sensors, seed), config(loss=0.2), seed=seed)
        if link_change is not None:
            system.schedule_link_change(link_change, LinkConfig(loss_probability=0.5))
        report = system.run(queries=as_queries(drawn), duration_s=HORIZON_S)
        return outcome(system, report)

    ours, theirs = both(run)
    assert ours == theirs


# -- the perf workloads ---------------------------------------------------------------


@pytest.mark.parametrize(
    "workload", ["cell_day", "fed_armed", "query_storm", "sync_coded", "flash_pressure"]
)
def test_perf_workloads_route_what_per_query_events_route(workload):
    sys.path.insert(0, str(PERF))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERF))

    def run() -> tuple:
        system, queries, _ = workloads.build(workload, workloads.DEFAULT_SEED, "quick")
        if not isinstance(system, PrestoSystem):
            system.federation = dataclasses.replace(
                system.federation, partition_backend="inline"
            )
        report = system.run(queries=queries)
        return repr(report.summary()), *outcome(system, report)

    ours, theirs = both(run)
    assert ours == theirs


def test_queries_wait_in_the_stream_not_the_heap():
    """``pending`` counts the queries still to come either way; only
    per-query events keep them in the heap."""
    seen: list[tuple[int, int]] = []
    process = PrestoProxy.process_query

    def spy(self, query, sensor, routing_latency_s=0.0):
        seen.append((self.sim.pending, len(self.sim._queue._heap)))
        return process(self, query, sensor, routing_latency_s)

    def run() -> list[tuple[int, int]]:
        seen.clear()
        system = PrestoSystem(trace(2, 3), config(), seed=3)
        queries = as_queries([(1_000.0 + 10.0 * i, i % 2, 0) for i in range(20)])
        system.run(queries=queries, duration_s=3_000.0)
        return list(seen)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PrestoProxy, "process_query", spy)
        ours, theirs = both(run)
    assert len(ours) == 20
    assert [pending for pending, _ in ours] == [pending for pending, _ in theirs]
    assert [heap + 19 - i for i, (_, heap) in enumerate(ours)] == [heap for _, heap in theirs]


def test_partition_logs_are_columns():
    """A partition returns its ranks, answers and failover ranks as columns."""
    results = []
    finish = federation_module._CellPartition.finish

    def kept(self):
        results.append(finish(self))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(federation_module._CellPartition, "finish", kept)
        system = FederatedSystem(
            trace(4, 5),
            config(),
            FederationConfig(n_proxies=2, partitions=2, partition_backend="inline"),
            seed=5,
        )
        system.schedule_failure("proxy1", 3_000.0)
        queries = as_queries([(600.0 + 300.0 * i, i % 4, i % 3) for i in range(25)])
        report = system.run(queries=queries, duration_s=HORIZON_S)
    ranks = sorted(rank for result in results for rank in result.ranks)
    assert ranks == list(range(len(report.answers)))
    for result in results:
        assert result.ranks == sorted(result.ranks)
        assert [a.query for a in result.answers] == [
            report.answers[rank].query for rank in result.ranks
        ]
    failovers = sorted(rank for result in results for rank in result.failover_ranks)
    assert failovers == system._failover_positions and len(failovers) == report.failovers > 0
