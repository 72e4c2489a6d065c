"""Unit tests for energy accounting."""

import pytest

from repro.energy.meter import EnergyMeter


class TestEnergyMeter:
    def test_starts_empty(self, meter):
        assert meter.total_j == 0.0

    def test_charge_accumulates(self, meter):
        meter.charge("radio.tx", 1.0)
        meter.charge("radio.tx", 2.0)
        assert meter.category_j("radio.tx") == pytest.approx(3.0)

    def test_total_sums_categories(self, meter):
        meter.charge("radio.tx", 1.0)
        meter.charge("cpu.sample", 0.5)
        assert meter.total_j == pytest.approx(1.5)

    def test_negative_charge_rejected(self, meter):
        with pytest.raises(ValueError):
            meter.charge("radio.tx", -1.0)

    def test_unknown_category_reads_zero(self, meter):
        assert meter.category_j("nothing") == 0.0

    def test_group_matches_prefix(self, meter):
        meter.charge("radio.tx", 1.0)
        meter.charge("radio.rx", 2.0)
        meter.charge("radio.lpl", 4.0)
        meter.charge("cpu.sample", 8.0)
        assert meter.group_j("radio") == pytest.approx(7.0)

    def test_group_does_not_match_partial_words(self, meter):
        meter.charge("radiothing.x", 1.0)
        assert meter.group_j("radio") == 0.0

    def test_group_matches_exact_category(self, meter):
        meter.charge("radio", 1.0)
        assert meter.group_j("radio") == pytest.approx(1.0)

    def test_snapshot_is_a_copy(self, meter):
        meter.charge("a", 1.0)
        snap = meter.snapshot()
        meter.charge("a", 1.0)
        assert snap.by_category["a"] == pytest.approx(1.0)
        assert snap.total_j == pytest.approx(1.0)

    def test_merge(self):
        a = EnergyMeter("a")
        b = EnergyMeter("b")
        a.charge("radio.tx", 1.0)
        b.charge("radio.tx", 2.0)
        b.charge("cpu", 1.0)
        a.merge(b)
        assert a.category_j("radio.tx") == pytest.approx(3.0)
        assert a.category_j("cpu") == pytest.approx(1.0)
        # merge does not alias state
        b.charge("cpu", 5.0)
        assert a.category_j("cpu") == pytest.approx(1.0)
