"""Unit tests for collaborative storage offload."""

import numpy as np
import pytest

from repro.core.config import PrestoConfig
from repro.core.system import PrestoCell, PrestoSystem
from repro.energy.constants import MICA2_FLASH, MICA2_RADIO
from repro.energy.meter import EnergyMeter
from repro.scenarios.spec import SWEEP_TABLE
from repro.storage.aging import AgingPolicy
from repro.storage.archive import SensorArchive
from repro.storage.flash import FlashDevice
from repro.storage.offload import (
    STORAGE_POLICIES,
    OffloadCoordinator,
    fleet_fidelity,
    segment_value,
)
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator

#: the sweep-table row that maps policy names to 1-based sweep codes
POLICY = SWEEP_TABLE["storage_policy"]


def make_fleet(
    capacities_pages=(4, 20, 20),
    segment_readings=64,
    policy="greedy_offload",
    max_level=3,
):
    """One archive per capacity, all registered with one coordinator."""
    archives = []
    for i, capacity in enumerate(capacities_pages):
        meter = EnergyMeter(f"sensor{i}")
        flash = FlashDevice(
            MICA2_FLASH, meter, capacity_bytes=capacity * MICA2_FLASH.page_bytes
        )
        archives.append(
            SensorArchive(
                flash,
                segment_readings=segment_readings,
                aging_policy=AgingPolicy(max_level=max_level),
                sample_period_s=30.0,
            )
        )
    coordinator = OffloadCoordinator(policy=policy, radio=MICA2_RADIO)
    for archive in archives:
        coordinator.register(archive)
    return archives, coordinator


def fill(archive, n_segments, segment_readings=64, offset=0):
    for i in range(n_segments * segment_readings):
        archive.append((offset + i) * 30.0, float(i % 9))


class TestPolicyCodes:
    def test_round_trip(self):
        for name in STORAGE_POLICIES:
            assert POLICY.field_value(POLICY.parse(name)) == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            POLICY.parse("teleport")

    def test_fractional_code_rejected(self):
        with pytest.raises(ValueError):
            POLICY.check((1.5,))

    def test_out_of_range_code_rejected(self):
        with pytest.raises(ValueError):
            POLICY.check((len(STORAGE_POLICIES) + 1,))

    def test_coordinator_rejects_local_aging(self):
        with pytest.raises(ValueError):
            OffloadCoordinator(policy="local_aging", radio=MICA2_RADIO)

    def test_presto_config_validates_policy(self):
        with pytest.raises(ValueError):
            PrestoConfig(storage_policy="nonsense")


class TestCapacitySkew:
    def test_alternates_and_preserves_fleet_total(self):
        config = PrestoConfig(flash_capacity_bytes=5280, flash_capacity_skew=0.5)
        capacities = [PrestoCell._sensor_capacity_bytes(config, i) for i in range(4)]
        assert capacities == [2640, 7920, 2640, 7920]
        assert sum(capacities) == 4 * 5280

    def test_zero_skew_is_a_passthrough(self):
        config = PrestoConfig(flash_capacity_bytes=5280)
        assert PrestoCell._sensor_capacity_bytes(config, 3) == 5280
        assert PrestoCell._sensor_capacity_bytes(PrestoConfig(), 0) is None

    def test_skew_bounds_validated(self):
        with pytest.raises(ValueError):
            PrestoConfig(flash_capacity_skew=1.0)
        with pytest.raises(ValueError):
            PrestoConfig(flash_capacity_skew=-0.1)


class TestSegmentValue:
    def test_older_segments_are_worth_less(self):
        archives, _ = make_fleet(capacities_pages=(20,))
        fill(archives[0], 2)
        now = 4 * 64 * 30.0
        values = [
            segment_value(record, now) for record in archives[0].records.values()
        ]
        assert values[0] < values[1]

    def test_aged_summary_worth_less_than_raw(self):
        archives, _ = make_fleet(capacities_pages=(20,))
        fill(archives[0], 2)
        records = list(archives[0].records.values())
        archives[0].aging_policy._coarsen(archives[0], records[0])
        now = 2 * 64 * 30.0
        assert segment_value(records[0], now) < segment_value(records[1], now)


class TestGreedyOffload:
    def test_moves_lowest_value_segment_to_emptiest_neighbour(self):
        archives, coordinator = make_fleet()
        fill(archives[0], 3)  # 4-page device: third segment forces offload
        moved = [r for r in archives[0].records.values() if r.hosted_by is not None]
        assert len(moved) == 1
        assert moved[0].record_id == 0  # oldest = lowest value
        assert moved[0].hosted_by == 1  # tie on free pages -> nearest host
        assert archives[1].flash.used_pages == moved[0].pages
        assert coordinator.stats.segments_offloaded == 1
        assert coordinator.stats.bytes_offloaded == 64 * 8
        # nothing was aged or dropped — offload preserved full resolution
        assert archives[0].aging_policy.history == []
        assert all(not r.aged for r in archives[0].records.values())

    def test_radio_energy_charged_to_both_parties(self):
        archives, _ = make_fleet()
        fill(archives[0], 3)
        source_meter = archives[0].flash.meter
        host_meter = archives[1].flash.meter
        assert source_meter.category_j("radio.offload_tx") > 0
        assert host_meter.category_j("radio.offload_rx") > 0
        # host also paid the flash program for the hosted segment
        assert host_meter.category_j("flash.write") > 0

    def test_remote_read_charges_host_flash_and_both_radios(self):
        archives, coordinator = make_fleet()
        fill(archives[0], 3)
        hosted = next(
            r for r in archives[0].records.values() if r.hosted_by is not None
        )
        host_reads_before = archives[1].flash.stats.pages_read
        source_reads_before = archives[0].flash.stats.pages_read
        host_tx_before = archives[1].flash.meter.category_j("radio.offload_tx")
        result = archives[0].read_point(hosted.start_time)
        assert result is not None
        value, level = result
        assert value == pytest.approx(0.0)  # first reading of the fill
        assert level == 0
        assert coordinator.stats.remote_reads == 1
        assert archives[1].flash.stats.pages_read > host_reads_before
        assert archives[0].flash.stats.pages_read == source_reads_before
        assert archives[1].flash.meter.category_j("radio.offload_tx") > host_tx_before
        assert archives[0].flash.meter.category_j("radio.offload_rx") > 0

    def test_dead_slack_guard_protects_host_room(self):
        archives, coordinator = make_fleet(capacities_pages=(4, 4, 4))
        # host 1 keeps exactly one own-segment's room: 2 used, 2 free
        fill(archives[1], 1, offset=10_000)
        assert archives[1].flash.free_pages == 2
        assert not coordinator._host_can_take(1, 1)
        # but a host whose free space can't fit a full segment anyway
        # (dead slack) may give it up
        fill(archives[2], 1, offset=20_000)
        archives[2].flash.write(MICA2_FLASH.page_bytes)  # free = 1 < 2
        assert coordinator._host_can_take(2, 1)

    def test_falls_back_to_aging_when_no_host_fits(self):
        archives, _ = make_fleet(capacities_pages=(4, 4, 4))
        for archive in archives[1:]:
            fill(archive, 2, offset=50_000)  # both neighbours full
        fill(archives[0], 3)
        # no host could take the segment: offload did nothing, aging did
        assert all(r.hosted_by is None for r in archives[0].records.values())
        assert archives[0].aging_policy.history != []

    def test_aging_skips_hosted_records(self):
        archives, _ = make_fleet()
        fill(archives[0], 3)
        hosted = next(
            r for r in archives[0].records.values() if r.hosted_by is not None
        )
        target = archives[0].aging_policy._oldest_coarsenable(archives[0])
        assert target is not None and target.record_id != hosted.record_id

    def test_evicting_hosted_record_frees_host_pages(self):
        archives, _ = make_fleet()
        fill(archives[0], 3)
        hosted = next(
            r for r in archives[0].records.values() if r.hosted_by is not None
        )
        host_used_before = archives[1].flash.used_pages
        source_used_before = archives[0].flash.used_pages
        # evict local records until the hosted one is the only candidate
        policy = archives[0].aging_policy
        while hosted.record_id in archives[0].records:
            assert policy._evict_oldest(archives[0])
        assert archives[1].flash.used_pages == host_used_before - hosted.pages
        # local evictions freed local pages; the hosted eviction freed none
        assert archives[0].flash.used_pages < source_used_before


class TestMinCostFlowOffload:
    def test_prefers_nearest_host_on_cost(self):
        archives, _ = make_fleet(policy="mcf_offload")
        fill(archives[0], 3)
        moved = [r for r in archives[0].records.values() if r.hosted_by is not None]
        assert moved and all(r.hosted_by == 1 for r in moved)

    def test_spills_to_further_host_when_near_one_is_full(self):
        archives, _ = make_fleet(capacities_pages=(4, 4, 20), policy="mcf_offload")
        fill(archives[1], 2, offset=50_000)  # nearest host full
        fill(archives[0], 3)
        moved = [r for r in archives[0].records.values() if r.hosted_by is not None]
        assert moved and all(r.hosted_by == 2 for r in moved)

    def test_batches_other_pressured_archives_too(self):
        archives, coordinator = make_fleet(
            capacities_pages=(4, 4, 20), policy="mcf_offload"
        )
        fill(archives[1], 2, offset=50_000)  # archive 1 full -> pressured
        fill(archives[0], 3)
        # the network-wide plan may relieve archive 1 onto host 2 as well
        assert coordinator.stats.segments_offloaded >= 1
        hosted_sources = {move.source for move in coordinator.moves}
        assert 0 in hosted_sources


class TestPageConservation:
    """Flash pages are neither minted nor lost across offload and aging."""

    @pytest.mark.parametrize(
        ("policy", "moves", "coarsenings"),
        [("mcf_offload", 112, 51), ("greedy_offload", 64, 48)],
    )
    def test_pressured_cell_holds_exactly_its_records(self, policy, moves, coarsenings):
        trace = IntelLabGenerator(
            IntelLabConfig(n_sensors=32, duration_s=0.2 * 86_400.0, epoch_s=31.0), seed=1105
        ).generate()
        config = PrestoConfig(
            sample_period_s=31.0,
            storage_policy=policy,
            flash_capacity_bytes=3_500,
            flash_capacity_skew=0.5,
            segment_readings=64,
            push_delta=2.0,
        )
        system = PrestoSystem(trace, config, seed=1105)
        system.run(queries=[])
        coordinator = system.cell.offload
        # the run is pressured enough to exercise moves and guest coarsening
        assert coordinator.stats.segments_offloaded == moves
        assert coordinator.stats.hosted_coarsenings == coarsenings
        archives = coordinator.archives
        held = [0] * len(archives)
        for index, archive in enumerate(archives):
            for record in archive.records.values():
                home = index if record.hosted_by is None else record.hosted_by
                held[home] += record.pages
                assert record.pages == archive.flash.pages_for(record.stored_bytes())
        assert [archive.flash.used_pages for archive in archives] == held


class TestFleetFidelity:
    def test_untouched_archives_score_one(self):
        archives, _ = make_fleet(capacities_pages=(20, 20, 20))
        truth = np.tile(np.arange(128, dtype=np.float64) % 9, (3, 1))
        for archive in archives:
            fill(archive, 2)
        assert fleet_fidelity(archives, truth, 30.0) == pytest.approx(1.0)

    def test_aging_reduces_fidelity_eviction_reduces_it_more(self):
        rng = np.random.default_rng(7)
        signal = rng.normal(20.0, 3.0, size=(1, 6 * 64))
        aged_archives, _ = make_fleet(capacities_pages=(4, 1, 1))
        for i in range(6 * 64):
            aged_archives[0].append(i * 30.0, float(signal[0, i]))
        aged = fleet_fidelity([aged_archives[0]], signal, 30.0)
        assert 0.0 < aged < 1.0
        # evict everything: fidelity collapses to just the buffered tail
        policy = aged_archives[0].aging_policy
        while aged_archives[0].records:
            assert policy._evict_oldest(aged_archives[0])
        evicted = fleet_fidelity([aged_archives[0]], signal, 30.0)
        assert evicted < aged

    def test_empty_fleet_scores_one(self):
        archives, _ = make_fleet(capacities_pages=(4,))
        assert fleet_fidelity(archives, np.zeros((1, 10)), 30.0) == 1.0
