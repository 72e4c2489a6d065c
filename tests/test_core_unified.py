"""Unit tests for the unified logical store across proxies: global queries
routed through the federation, and the temporally ordered view."""

import pytest

from repro.core import FederatedSystem, FederationConfig, PrestoConfig, PrestoSystem
from repro.core.federation import HOP_LATENCY_S, WIRELESS_LATENCY_S
from repro.core.proxy import PROXY_PROCESSING_S
from repro.core.queries import AnswerSource
from repro.core.unified import ProxyCell, ordered_view
from repro.radio.link import LinkConfig
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import Query, QueryKind

#: the wireless proxy1 dies here; queries before it reach the live owner
KILL_AT_S = 4 * 3600.0
BEFORE_S = 3 * 3600.0 - 5.0
AFTER_S = 5 * 3600.0


@pytest.fixture(scope="module")
def federated_answers():
    """One 4-sensor trace on two proxies, 6 h: wired proxy0 owns global
    sensors 0-1, wireless proxy1 owns 2-3 and is replicated on proxy0.

    Returns the system, its report and the answers keyed by query id.
    """
    config = IntelLabConfig(n_sensors=4, duration_s=6 * 3600.0, epoch_s=31.0)
    trace = IntelLabGenerator(config, seed=1).generate()
    presto = PrestoConfig(
        sample_period_s=31.0,
        min_training_epochs=64,
        refit_interval_s=3600.0,
        link=LinkConfig(loss_probability=0.0),
    )
    system = FederatedSystem(
        trace, presto, FederationConfig(n_proxies=2, replication_factor=1), seed=1
    )
    system.schedule_failure("proxy1", KILL_AT_S)
    queries = [
        Query(0, QueryKind.NOW, 1, BEFORE_S, BEFORE_S, precision=0.8),
        Query(1, QueryKind.NOW, 2, BEFORE_S, BEFORE_S, precision=0.8),
        Query(2, QueryKind.NOW, 99, BEFORE_S, BEFORE_S),
        Query(3, QueryKind.NOW, 3, BEFORE_S, BEFORE_S, precision=0.8),
        Query(4, QueryKind.NOW, 2, AFTER_S, AFTER_S, precision=0.8),
    ]
    report = system.run(queries=queries)
    return system, report, {a.query.query_id: a for a in report.answers}


def truth_at(system, sensor, t):
    return system.trace.values[sensor, system.trace.epoch_of(t)]


class TestRouting:
    def test_query_routed_to_owning_cell(self, federated_answers):
        system, _, answers = federated_answers
        assert system.owner_of(1) == "proxy0"
        answer = answers[0]
        assert answer.answered
        assert answer.value == pytest.approx(truth_at(system, 1, BEFORE_S), abs=1.5)

    def test_global_to_local_translation(self, federated_answers):
        system, _, answers = federated_answers
        # global sensor 2 is local sensor 0 of proxy1
        assert system.cell_for("proxy1").to_local(2) == 0
        answer = answers[1]
        assert answer.answered
        assert answer.query.sensor == 2  # the answer keeps the global id
        assert answer.value == pytest.approx(truth_at(system, 2, BEFORE_S), abs=1.5)

    def test_unroutable_sensor_fails(self, federated_answers):
        _, report, answers = federated_answers
        assert answers[2].source is AnswerSource.FAILED
        assert answers[2].value is None
        assert report.unroutable >= 1

    def test_routing_latency_added(self, federated_answers):
        system, _, answers = federated_answers
        # sensor 3 lives off the entry node, on the mesh proxy
        hops = system._route[3][1]
        assert hops > 0
        assert answers[3].answered
        assert answers[3].latency_s >= (
            PROXY_PROCESSING_S + hops * HOP_LATENCY_S + WIRELESS_LATENCY_S
        )


class TestFailover:
    def test_wireless_failure_served_by_replica(self, federated_answers):
        system, report, answers = federated_answers
        assert not system.cell_for("proxy1").wired
        assert system.replication_plan["proxy1"] == ["proxy0"]
        answer = answers[4]
        assert answer.answered
        assert report.failovers >= 1
        assert report.replica_hits >= 1
        assert answer.value == pytest.approx(truth_at(system, 2, AFTER_S), abs=1.5)


@pytest.fixture(scope="module")
def cells_and_systems():
    """Two independent 2-sensor cells, global sensors 0-1 and 2-3, run 6 h."""
    systems = []
    for seed, name in ((1, "proxy"), (2, "proxy-b")):
        config = IntelLabConfig(n_sensors=2, duration_s=6 * 3600.0, epoch_s=31.0)
        trace = IntelLabGenerator(config, seed=seed).generate()
        presto = PrestoConfig(
            sample_period_s=31.0,
            min_training_epochs=64,
            refit_interval_s=3600.0,
            link=LinkConfig(loss_probability=0.0),
        )
        systems.append(PrestoSystem(trace, presto, seed=seed, proxy_name=name))
    cells = [ProxyCell(systems[0].proxy, 0), ProxyCell(systems[1].proxy, 2)]
    for system in systems:
        system.run()
    return cells, systems


#: per-(cell, local) clock offsets: local = true + offset
DRIFT_OFFSETS = {(0, 0): 5.0, (0, 1): 5.0, (1, 0): -5.0, (1, 1): -5.0}
#: (cell, local, true detection time) — interleaved across the two cells
DRIFT_DETECTIONS = [(0, 0, 100.0), (1, 0, 103.0), (0, 1, 106.0), (1, 1, 109.0)]


def build_drifted_cells(sensor_stamped=True):
    """Two real proxies whose sensors report drifted local timestamps."""
    systems = []
    for seed, name in ((1, "proxy"), (2, "proxy-b")):
        config = IntelLabConfig(n_sensors=2, duration_s=3600.0, epoch_s=31.0)
        trace = IntelLabGenerator(config, seed=seed).generate()
        presto = PrestoConfig(
            sample_period_s=31.0, link=LinkConfig(loss_probability=0.0)
        )
        systems.append(PrestoSystem(trace, presto, seed=seed, proxy_name=name))
    cells = [
        ProxyCell(systems[0].proxy, 0, sensor_stamped=sensor_stamped),
        ProxyCell(systems[1].proxy, 2, sensor_stamped=sensor_stamped),
    ]
    for (cell_index, local), offset in DRIFT_OFFSETS.items():
        proxy = systems[cell_index].proxy
        name = proxy.sensor_name(local)
        for t in (0.0, 600.0, 1200.0):
            proxy.sync.record_exchange(name, proxy_time=t, sensor_local_time=t + offset)
    for cell_index, local, true_time in DRIFT_DETECTIONS:
        proxy = systems[cell_index].proxy
        raw = true_time + DRIFT_OFFSETS[(cell_index, local)]
        proxy.record_detection(local, raw_timestamp=raw, value=20.0 + local)
    return cells


class TestOrderedViewDriftCorrection:
    def test_raw_stamps_would_misorder(self):
        """Fixture sanity: the raw local stamps invert the detection order."""
        raw = sorted(
            (true + DRIFT_OFFSETS[(cell, local)], cell, local)
            for cell, local, true in DRIFT_DETECTIONS
        )
        raw_cells = [cell for _, cell, _ in raw]
        assert raw_cells != [cell for cell, _, _ in DRIFT_DETECTIONS]

    def test_corrected_merge_restores_true_order(self):
        view = ordered_view(build_drifted_cells(), 0.0, 1000.0)
        assert [sensor for _, sensor, _ in view] == [0, 2, 1, 3]
        assert [t for t, _, _ in view] == pytest.approx([100.0, 103.0, 106.0, 109.0])

    def test_window_bounds_apply_in_the_corrected_frame(self):
        """A detection whose raw stamp lies outside [start, end] but whose
        corrected instant is inside must appear — and vice versa."""
        view = ordered_view(build_drifted_cells(), 99.0, 104.0)
        assert [(round(t), sensor) for t, sensor, _ in view] == [(100, 0), (103, 2)]

    def test_epoch_stamped_cells_never_corrected(self):
        """Default cells hold epoch-derived (proxy-frame) stamps: even with
        a non-identity sync fit, ordered_view must merge them as stored —
        correcting proxy-frame stamps would *introduce* clock error."""
        view = ordered_view(build_drifted_cells(sensor_stamped=False), 0.0, 1000.0)
        raw = sorted(
            (true + DRIFT_OFFSETS[(cell, local)], 2 * cell + local)
            for cell, local, true in DRIFT_DETECTIONS
        )
        assert [(round(t, 9), sensor) for t, sensor, _ in view] == [
            (round(t, 9), sensor) for t, sensor in raw
        ]


class TestOrderedView:
    def test_merged_view_is_time_ordered(self, cells_and_systems):
        cells, systems = cells_and_systems
        view = ordered_view(cells, 0.0, systems[0].sim.now)
        assert len(view) > 0
        times = [t for t, _, _ in view]
        assert times == sorted(times)

    def test_view_uses_global_ids(self, cells_and_systems):
        cells, systems = cells_and_systems
        view = ordered_view(cells, 0.0, systems[0].sim.now)
        sensors = {s for _, s, _ in view}
        assert sensors <= {0, 1, 2, 3}
        assert any(s >= 2 for s in sensors)  # cell b contributes
