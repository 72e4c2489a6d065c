"""Unit tests for energy accounting."""

import random

import pytest

from repro.energy.meter import EnergyMeter


class TestEnergyMeter:
    def test_starts_empty(self, meter):
        assert meter.total_j == 0.0

    def test_charge_accumulates(self, meter):
        meter.record("radio.tx", 1.0)
        meter.record("radio.tx", 1.0, 2)
        assert meter.category_j("radio.tx") == pytest.approx(3.0)

    def test_total_sums_categories(self, meter):
        meter.record("radio.tx", 1.0)
        meter.record("cpu.sample", 0.5)
        assert meter.total_j == pytest.approx(1.5)

    def test_negative_charge_rejected(self, meter):
        with pytest.raises(ValueError):
            meter.record("radio.tx", -1.0)
        with pytest.raises(ValueError):
            meter.record("radio.tx", 1.0, -1)

    @pytest.mark.parametrize("joules", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_charge_rejected(self, meter, joules):
        meter.record("radio.tx", 1.0)
        with pytest.raises(ValueError):
            meter.record("radio.tx", joules)
        with pytest.raises(ValueError):
            meter.record("radio.tx", 1.0, joules)
        assert meter.total_j == 1.0

    def test_unknown_category_reads_zero(self, meter):
        assert meter.category_j("nothing") == 0.0

    def test_group_matches_prefix(self, meter):
        meter.record("radio.tx", 1.0)
        meter.record("radio.rx", 2.0)
        meter.record("radio.lpl", 4.0)
        meter.record("cpu.sample", 8.0)
        assert meter.group_j("radio") == pytest.approx(7.0)

    def test_group_does_not_match_partial_words(self, meter):
        meter.record("radiothing.x", 1.0)
        assert meter.group_j("radio") == 0.0

    def test_group_matches_exact_category(self, meter):
        meter.record("radio", 1.0)
        assert meter.group_j("radio") == pytest.approx(1.0)

    def test_snapshot_is_a_copy(self, meter):
        meter.record("a", 1.0)
        snap = meter.snapshot()
        meter.record("a", 1.0)
        assert snap.by_category["a"] == pytest.approx(1.0)
        assert snap.total_j == pytest.approx(1.0)

    def test_merge(self):
        a = EnergyMeter("a")
        b = EnergyMeter("b")
        a.record("radio.tx", 1.0)
        b.record("radio.tx", 1.0, 2)
        b.record("cpu", 1.0)
        a.merge(b)
        assert a.category_j("radio.tx") == pytest.approx(3.0)
        assert a.category_j("cpu") == pytest.approx(1.0)
        # merge does not alias state
        b.record("cpu", 1.0, 5)
        assert a.category_j("cpu") == pytest.approx(1.0)

    def test_joules_are_count_times_constant(self, meter):
        """A category's joules are its count times its unit, not a running
        sum of per-event floats (which drifts from the product)."""
        unit = 0.1
        for _ in range(10):
            meter.record("cpu.sample", unit)
        assert meter.category_j("cpu.sample") == 10 * unit
        assert sum([unit] * 10) != 10 * unit

    def test_zero_quantity_names_the_category(self, meter):
        meter.record("radio.rx", 2e-4, 0)
        assert meter.snapshot().by_category == {"radio.rx": 0.0}

    def test_total_does_not_depend_on_record_order(self):
        """The same counts recorded in two orders give the same bits."""
        records = [
            (category, unit, count)
            for category in ("radio.tx", "radio.rx", "cpu.sample", "flash.write", "radio.lpl")
            for unit, count in ((1e-4 / 3, 7), (2.5e-4, 1), (0.1, 3), (1.7e-6, 11))
        ]
        shuffled = records * 3
        random.Random(5).shuffle(shuffled)
        first, second = EnergyMeter("first"), EnergyMeter("second")
        for category, unit, count in records * 3:
            first.record(category, unit, count)
        for category, unit, count in shuffled:
            second.record(category, unit, count)
        assert first.total_j.hex() == second.total_j.hex()
        assert list(first.snapshot().by_category.items()) == list(
            second.snapshot().by_category.items()
        )

    def test_counted_quantities_join_the_meters_own(self, meter):
        """Counts kept elsewhere add to the same (category, unit) before the
        product, and are read afresh at every read."""
        outside = {"checks": 3}
        meter.counted = lambda: [("cpu.model_check", 0.1, outside["checks"])]
        meter.record("cpu.model_check", 0.1, 7)
        assert meter.category_j("cpu.model_check") == 10 * 0.1
        outside["checks"] = 13
        assert meter.total_j == 20 * 0.1
        merged = EnergyMeter("fleet")
        merged.merge(meter)
        assert merged.category_j("cpu.model_check") == 20 * 0.1
