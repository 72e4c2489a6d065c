"""Decode-equivalence harness: coded failover answers match full copies.

The erasure-coded sync path's contract is *not* "approximately as good":
while >= k fragments of the relevant generations survive, a failover
answer decoded from fragments must be byte-identical to the one a
survivability-equivalent full-copy deployment gives on the same seed —
same values, same sources, same latencies, same measured staleness.
``rs`` with (k=2, n=3) tolerates any single host loss, exactly like
``replication_factor=2`` whole copies, so those two runs must agree on
everything except the byte bill.
"""

import numpy as np
import pytest

from repro.core.config import FederationConfig, PrestoConfig
from repro.core.federation import WIRED_LATENCY_S, FederatedSystem
from repro.core.proxy import PROXY_PROCESSING_S
from repro.core.push import ModelUpdate
from repro.timeseries.arima import ARIMAModel
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import QueryWorkloadConfig, ShardedWorkloadGenerator

DURATION_S = 4 * 3600.0
N_SENSORS = 12
CODING_K, CODING_N = 2, 3

#: the cascade kills two wireless owners and recovers one; with 3 wired
#: hosts and single-host fragment spread, >= k fragments survive at every
#: failover instant, so equivalence must hold at every answer
FAILURES = (("proxy3", 2.5 * 3600.0), ("proxy4", 2.6 * 3600.0))
RECOVERIES = (("proxy3", 3.4 * 3600.0),)


def make_trace():
    config = IntelLabConfig(
        n_sensors=N_SENSORS, duration_s=DURATION_S, epoch_s=31.0
    )
    return IntelLabGenerator(config, seed=7).generate()


def fast_config():
    return PrestoConfig(
        sample_period_s=31.0,
        refit_interval_s=3 * 3600.0,
        min_training_epochs=128,
    )


def run_federated(
    replica_coding,
    partitions=1,
    backend="inline",
    failures=FAILURES,
    recoveries=RECOVERIES,
    **overrides,
):
    """One pinned-seed run; ``full`` uses the survivability-equivalent
    replication factor n - k + 1 so both modes ride out the same losses."""
    trace = make_trace()
    settings = dict(
        n_proxies=6,
        replication_factor=CODING_N - CODING_K + 1,
        replica_coding=replica_coding,
        coding_k=CODING_K,
        coding_n=CODING_N,
        partitions=partitions,
        partition_backend=backend,
    )
    federation = FederationConfig(**{**settings, **overrides})
    system = FederatedSystem(
        trace, config=fast_config(), federation=federation, seed=3
    )
    generator = ShardedWorkloadGenerator(
        [list(shard) for shard in system.shards],
        QueryWorkloadConfig(arrival_rate_per_s=1 / 120.0),
        rng=np.random.default_rng(11),
    )
    queries = generator.generate(0.0, DURATION_S)
    for name, at_s in failures:
        system.schedule_failure(name, at_s)
    for name, at_s in recoveries:
        system.schedule_recovery(name, at_s)
    return system.run(queries, duration_s=DURATION_S)


def equivalence_key(report):
    """Everything that must be byte-identical across coding modes.

    ``replica_syncs`` is deliberately excluded: it counts *shipments*
    (hosts x syncs), which legitimately differs between one whole copy
    per host and one fragment per host.
    """
    return (
        tuple(answer.latency_s for answer in report.answers),
        tuple(answer.value for answer in report.answers),
        tuple(answer.source for answer in report.answers),
        report.fault_staleness_s,
        report.cross_proxy_hops,
        report.replica_hits,
        report.failovers,
        report.unroutable,
        report.failover_mean_error,
        report.failover_max_error,
    )


@pytest.fixture(scope="module")
def full_report():
    return run_federated("full")


@pytest.fixture(scope="module")
def rs_report():
    return run_federated("rs")


class TestDecodeEquivalence:
    def test_failover_answers_byte_identical(self, full_report, rs_report):
        assert equivalence_key(rs_report) == equivalence_key(full_report)

    def test_failovers_actually_exercised(self, full_report):
        # The cascade must produce real failover traffic, else the
        # equivalence above is vacuous.
        assert full_report.failovers > 0
        assert full_report.replica_hits > 0
        assert full_report.fault_staleness_s  # one entry per death

    def test_decodes_happened(self, rs_report):
        coding = rs_report.coding
        assert coding.mode == "rs"
        assert coding.decodes > 0
        assert coding.irrecoverable == 0  # >= k fragments always survived

    def test_coded_sync_bytes_strictly_below_full_copy(
        self, full_report, rs_report
    ):
        # (k=2, n=3) ships 1.5x the payload where full copies ship 2x —
        # same single-host-loss survivability, strictly fewer bytes.
        assert 0 < rs_report.coding.shipped_bytes
        assert rs_report.coding.shipped_bytes < rs_report.coding.full_copy_bytes
        assert rs_report.coding.shipped_bytes < full_report.coding.shipped_bytes
        # The in-run counterfactual prices the same payloads both ways.
        assert rs_report.coding.full_copy_bytes == full_report.coding.shipped_bytes

    def test_sync_energy_tracks_shipped_bytes(self, full_report, rs_report):
        for report in (full_report, rs_report):
            assert report.coding.sync_radio_j > 0
            assert report.coding.sync_flash_j > 0
        ratio = rs_report.coding.shipped_bytes / full_report.coding.shipped_bytes
        assert rs_report.coding.sync_radio_j == pytest.approx(
            full_report.coding.sync_radio_j * ratio
        )
        assert rs_report.coding.sync_flash_j == pytest.approx(
            full_report.coding.sync_flash_j * ratio
        )

    def test_summary_exports_coding_metrics(self, rs_report):
        summary = rs_report.summary()
        assert summary["coding_shipped_bytes"] > 0
        assert 0.0 < summary["coding_bytes_saved_fraction"] < 1.0


LEDGER_FIELDS = (
    "payload_bytes",
    "shipped_bytes",
    "full_copy_bytes",
    "decodes",
    "irrecoverable",
    "sync_radio_j",
    "sync_flash_j",
)


def assert_same_run(a, b):
    """Answers, routing, shipment count and the coding ledger all agree."""
    assert equivalence_key(a) == equivalence_key(b)
    assert a.replica_syncs == b.replica_syncs
    for field in LEDGER_FIELDS:
        assert getattr(a.coding, field) == getattr(b.coding, field), field


class TestCodedPartitionEquivalence:
    """Splitting the cells across partitions must not change coded results or accounting."""

    @pytest.mark.parametrize("replica_coding", ["full", "rs"])
    def test_partitions_preserve_coding_accounting(self, replica_coding):
        assert_same_run(
            run_federated(replica_coding, partitions=2),
            run_federated(replica_coding),
        )


class TestFullIsTheKEqualsOneCode:
    """``full`` is only a name: replication factor r *is* rs(k=1, n=r)."""

    @pytest.mark.parametrize("factor", [1, 2])
    def test_full_equals_rs_with_k_one(self, factor):
        full = run_federated("full", replication_factor=factor)
        coded = run_federated("rs", coding_k=1, coding_n=factor)
        assert (full.coding.k, full.coding.n) == (1, factor)
        assert (coded.coding.k, coded.coding.n) == (1, factor)
        assert full.failovers > 0 and full.coding.decodes > 0
        assert_same_run(full, coded)


class TestNewestGenerationWins:
    """A recovered host that missed a sync must not make failover staler.

    proxy0 is proxy3's lowest-latency replica host.  It is down across the
    7200 s sync and back before proxy3 dies at 9000 s, so it holds
    generation 1 while proxy1 holds generation 2.  Reconstruction merges
    every live host's generations oldest-first, so proxy3's failover
    answers come from generation 2 — exactly as if proxy0 had never
    blinked — and are still charged proxy0's response latency.
    """

    BLIP = ("proxy0", 6000.0, 8000.0)

    @pytest.mark.parametrize("replica_coding", ["full", "rs"])
    def test_host_that_missed_a_sync_does_not_serve_stale_state(
        self, replica_coding
    ):
        name, down_at, up_at = self.BLIP
        steady = run_federated(replica_coding)
        blinked = run_federated(
            replica_coding,
            failures=FAILURES + ((name, down_at),),
            recoveries=RECOVERIES + ((name, up_at),),
        )

        def proxy3_failovers(report):
            kill_at = dict(FAILURES)["proxy3"]
            revive_at = dict(RECOVERIES)["proxy3"]
            return [
                (a.query.query_id, a.value, a.source, a.latency_s)
                for a in report.answers
                if a.query.sensor in (6, 7)
                and kill_at < a.query.arrival_time < revive_at
            ]

        assert proxy3_failovers(steady)
        assert any(value is not None for _, value, _, _ in proxy3_failovers(steady))
        assert proxy3_failovers(blinked) == proxy3_failovers(steady)
        # the wireless deaths' staleness is read off the newest generation too
        assert blinked.fault_staleness_s[:2] == steady.fault_staleness_s


class TestNothingHeldIsNotALostStripe:
    """An owner that dies before its first sync has no generation anywhere.

    Its failovers reach a live replica host that holds nothing, so they
    FAIL at that host's latency and count as neither ``unroutable`` nor
    ``irrecoverable`` — the same answers under both spellings.
    """

    KILL_AT_S = 600.0       # the first sync is at 3600 s

    def test_death_before_first_sync(self):
        runs = {
            coding: run_federated(
                coding, failures=(("proxy3", self.KILL_AT_S),), recoveries=()
            )
            for coding in ("full", "rs")
        }
        for report in runs.values():
            failovers = [
                a
                for a in report.answers
                if a.query.sensor in (6, 7)
                and a.query.arrival_time > self.KILL_AT_S
            ]
            assert len(failovers) == report.failovers > 0
            assert all(a.value is None for a in failovers)
            assert all(
                a.latency_s >= PROXY_PROCESSING_S + WIRED_LATENCY_S
                for a in failovers
            )
            assert report.replica_hits == 0
            assert report.unroutable == 0
            assert report.coding.irrecoverable == 0
            assert report.fault_staleness_s == (float("inf"),)
        # no failover was answered, so the two error terms are NaN: drop them
        assert equivalence_key(runs["rs"])[:-2] == equivalence_key(runs["full"])[:-2]


class TestPayloadBytesIgnoreProcessHistory:
    """Sync payloads are a function of the run, not of what the process
    (or a forked worker) happened to construct before it."""

    def test_unrelated_model_updates_do_not_move_payload_bytes(self, rs_report):
        model = ARIMAModel(order=(1, 1, 0)).fit(np.linspace(0.0, 1.0, 64))
        for _ in range(300):
            ModelUpdate(model=model, delta=1.0)
        assert_same_run(run_federated("rs"), rs_report)

    def test_partition_backends_ship_equal_bytes(self):
        assert_same_run(
            run_federated("rs", partitions=2, backend="process"),
            run_federated("rs", partitions=2, backend="inline"),
        )
