"""Every issued query is answered exactly once, at its rank.

A federated run routes each query to its owner's partition, answers it
there, and merges the partitions' logs by each query's global firing rank.
The law, over drawn federations on 1, 2 and 3 partitions and both
partition backends, with scheduled deaths and recoveries and queries on
sensors the trace does not have:

- the merged log holds each issued query once, at its rank (the queries in
  arrival order, ties in submission order);
- every query lands in exactly one class, each counted independently of
  the log's length: answered by its live owner (the cells' own query
  counts), failed over to a replica (the owner was dead at the arrival, as
  the fault schedule says), or unroutable (no such sensor) — and the
  classes partition the issued count.

The report's counters agree with the classes: ``failovers`` is the
failover class, ``replica_hits`` its answered part, and ``unroutable`` the
unroutable class plus the failovers left with no live replica host or no
stripe that decodes (``coding.irrecoverable`` counts the latter).
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import federation as federation_module
from repro.core.config import FederationConfig, PrestoConfig
from repro.core.federation import FederatedSystem
from repro.core.queries import AnswerSource
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import Query, QueryKind

PERIOD = 31.0
HORIZON_S = 300 * PERIOD
KINDS = (QueryKind.NOW, QueryKind.PAST_POINT, QueryKind.PAST_RANGE)


@dataclasses.dataclass(frozen=True)
class Drawn:
    seed: int
    n_sensors: int
    n_proxies: int
    partitions: int
    backend: str
    coding: tuple[int, int]                        # (k, n) of the replica code
    faults: tuple[tuple[int, float, float | None], ...]   # (proxy, death, recovery)
    queries: tuple[tuple[float, int, int], ...]    # (arrival, sensor, kind)


@st.composite
def drawn_federations(draw) -> Drawn:
    n_sensors = draw(st.integers(4, 7))
    n_proxies = draw(st.integers(3, 4))
    times = st.floats(400.0, HORIZON_S - 1.0, allow_nan=False)
    # Sensor ids the trace does not have sit among the real ones.
    sensors = st.integers(0, n_sensors - 1) | st.sampled_from([-1, n_sensors, 99])
    # Wireless proxies (the last ones) replicate; a death after the first
    # sync leaves a replica to answer from.
    faults = st.lists(
        st.tuples(
            st.sampled_from(range(n_proxies - 1, -1, -1)),
            st.floats(1_000.0, HORIZON_S - 1.0, allow_nan=False),
            st.none() | times,
        ),
        min_size=1,
        max_size=2,
    )
    return Drawn(
        seed=draw(st.integers(0, 2**16)),
        n_sensors=n_sensors,
        n_proxies=n_proxies,
        partitions=draw(st.integers(1, 3)),
        backend=draw(st.sampled_from(["inline", "inline", "process"])),
        coding=draw(st.sampled_from([(1, 1), (2, 2)])),
        faults=tuple(draw(faults)),
        queries=tuple(
            draw(st.lists(st.tuples(times, sensors, st.integers(0, 2)), min_size=4, max_size=24))
        ),
    )


def build(drawn: Drawn) -> tuple[FederatedSystem, list[Query]]:
    """*drawn*'s system, its faults scheduled, and its queries in
    submission order (arrival times may tie)."""
    trace = IntelLabGenerator(
        IntelLabConfig(n_sensors=drawn.n_sensors, duration_s=HORIZON_S, epoch_s=PERIOD),
        seed=drawn.seed,
    ).generate()
    config = PrestoConfig(
        sample_period_s=PERIOD,
        min_training_epochs=48,
        training_epochs=96,
        refit_interval_s=40 * PERIOD,
    )
    k, n = drawn.coding
    system = FederatedSystem(
        trace,
        config,
        FederationConfig(
            n_proxies=drawn.n_proxies,
            replica_coding="rs" if k > 1 else "full",
            coding_k=k,
            coding_n=n,
            replication_factor=n,
            partitions=drawn.partitions,
            partition_backend=drawn.backend,
            replica_sync_interval_s=900.0,
        ),
        seed=drawn.seed,
    )
    for proxy, died, recovered in drawn.faults:
        system.schedule_failure(system.proxy_names[proxy], died)
        if recovered is not None:
            system.schedule_recovery(system.proxy_names[proxy], recovered)
    queries = [
        Query(number, KINDS[kind], sensor, at, at if kind == 0 else at / 2,
              window_s=0.0 if kind < 2 else 20 * PERIOD)
        for number, (at, sensor, kind) in enumerate(drawn.queries)
    ]
    return system, queries


def owner_alive(system: FederatedSystem, drawn: Drawn, owner: str, at: float) -> bool:
    """Whether *owner* is up at a query arriving at *at*: every death and
    recovery at or before *at* has fired (an equal-time fault fires before
    the query), deaths before recoveries at equal times."""
    changes = sorted(
        [(died, 0, system.proxy_names[p]) for p, died, _ in drawn.faults]
        + [(back, 1, system.proxy_names[p]) for p, _, back in drawn.faults if back is not None]
    )
    alive = True
    for when, kind, name in changes:
        if when <= at and name == owner:
            alive = kind == 1
    return alive


def run(drawn: Drawn, patch) -> tuple:
    """Run *drawn*; the system, the issued queries in rank order, the
    report and the queries the cells answered themselves (inline only:
    a process partition's cells stay in its worker)."""
    system, queries = build(drawn)
    processed: list[int] = []
    finish = federation_module._CellPartition.finish

    def counted(self):
        processed.append(sum(cell.proxy.queries_processed for cell in self._built.values()))
        return finish(self)

    patch.setattr(federation_module._CellPartition, "finish", counted)
    report = system.run(queries=queries, duration_s=HORIZON_S)
    due = sorted(queries, key=lambda query: query.arrival_time)
    return system, due, report, sum(processed) if drawn.backend == "inline" else None


@settings(max_examples=30, deadline=None)
@given(drawn=drawn_federations())
def test_every_issued_query_is_answered_exactly_once_at_its_rank(drawn):
    with pytest.MonkeyPatch.context() as patch:
        system, due, report, processed = run(drawn, patch)
    answers = report.answers
    # Each rank exactly once: the log is the issued queries, in rank order
    # (a process partition's answers hold copies; query ids are unique).
    assert [answer.query for answer in answers] == due

    n = drawn.n_sensors
    unroutable = [i for i, query in enumerate(due) if not 0 <= query.sensor < n]
    failover = [
        i
        for i, query in enumerate(due)
        if 0 <= query.sensor < n
        and not owner_alive(system, drawn, system.owner_of(query.sensor), query.arrival_time)
    ]
    owned = len(due) - len(failover) - len(unroutable)
    if processed is not None:
        assert processed == owned
    assert system._failover_positions == failover
    assert report.failovers == len(failover)
    for i in unroutable:
        assert answers[i].source is AnswerSource.FAILED and answers[i].latency_s == 0.0
    replica_answered = sum(answers[i].source is not AnswerSource.FAILED for i in failover)
    assert report.replica_hits == replica_answered
    # Failovers with no live replica host, or no stripe that decodes,
    # count as unroutable too.
    stranded = report.unroutable - len(unroutable)
    assert 0 <= report.coding.irrecoverable <= stranded
    failed_failover = len(failover) - replica_answered - stranded
    assert failed_failover >= 0
    answered = owned + replica_answered
    assert answered + failed_failover + report.unroutable == len(due)
