"""Unit tests for battery-lifetime projection."""

import pytest

from repro.energy.constants import MICA2_PROFILE
from repro.energy.lifetime import lifetime_gain, project_lifetime
from repro.energy.meter import EnergyMeter


def metered(joules_by_category, window_s=86_400.0):
    meter = EnergyMeter("node")
    for category, joules in joules_by_category.items():
        meter.record(category, joules)
    return project_lifetime(meter, window_s, MICA2_PROFILE)


class TestProjection:
    def test_lifetime_inverse_to_power(self):
        light = metered({"radio.tx": 1.0})
        heavy = metered({"radio.tx": 10.0})
        assert light.lifetime_days > heavy.lifetime_days

    def test_known_power_known_lifetime(self):
        # 61.56 kJ battery at ~7.12 mW (615.6 J/day incl. sleep floor)
        estimate = metered({"radio.lpl": 612.75})
        assert estimate.lifetime_days == pytest.approx(100.0, rel=0.02)

    def test_sleep_floor_bounds_lifetime(self):
        idle = metered({})
        # CC1000 + ATmega sleep ~33 uW -> ~21.6 kdays ceiling
        assert idle.lifetime_days < 60_000
        assert idle.dominant_category == "sleep.floor"

    def test_sleep_floor_optional(self):
        meter = EnergyMeter("node")
        meter.record("radio.tx", 1.0)
        with_floor = project_lifetime(meter, 86_400.0, MICA2_PROFILE)
        without = project_lifetime(
            meter, 86_400.0, MICA2_PROFILE, baseline_sleep=False
        )
        assert without.lifetime_days > with_floor.lifetime_days

    def test_dominant_category(self):
        estimate = metered({"radio.lpl": 10.0, "cpu.sample": 0.1})
        assert estimate.dominant_category == "radio.lpl"

    def test_per_category_decomposition(self):
        estimate = metered({"radio.lpl": 10.0, "flash.write": 0.1})
        assert estimate.by_category_days["flash.write"] > \
            estimate.by_category_days["radio.lpl"]
        assert "sleep.floor" in estimate.by_category_days

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            project_lifetime(EnergyMeter("x"), 0.0, MICA2_PROFILE)

    def test_years_view(self):
        estimate = metered({"radio.tx": 1.0})
        assert estimate.lifetime_years == pytest.approx(
            estimate.lifetime_days / 365.0
        )


class TestGain:
    def test_gain_ratio(self):
        before = metered({"radio.lpl": 14.0})
        after = metered({"radio.lpl": 1.4})
        assert lifetime_gain(before, after) == pytest.approx(
            before.average_power_w / after.average_power_w, rel=0.05
        )

    def test_presto_vs_streaming_magnitude(self):
        """The repository's headline: PRESTO's ~5.5 J/day vs streaming's
        ~17 J/day is a >2x lifetime multiplier even after the platform's
        sleep-current floor (~2.9 J/day) dilutes the radio savings."""
        streaming = metered({"radio.stream": 17.0})
        presto = metered({"radio.push": 5.5})
        assert 2.0 < lifetime_gain(streaming, presto) < 3.5
