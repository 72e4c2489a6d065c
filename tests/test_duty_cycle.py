"""Unit tests for the LPL duty-cycle energy model."""

import pytest

from repro.energy.constants import MICA2_RADIO
from repro.energy.duty_cycle import (
    DutyCycleConfig,
    lpl_average_power,
    lpl_check_energy,
)


class TestDutyCycleConfig:
    def test_duty_fraction(self):
        config = DutyCycleConfig(check_interval_s=1.0, check_duration_s=0.01)
        assert config.duty_fraction == pytest.approx(0.01)

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            DutyCycleConfig(check_interval_s=0.0)

    def test_rejects_duration_longer_than_interval(self):
        with pytest.raises(ValueError):
            DutyCycleConfig(check_interval_s=0.01, check_duration_s=0.02)

    def test_lpl_preamble_covers_interval(self):
        config = DutyCycleConfig(check_interval_s=0.5)
        preamble = config.lpl_preamble_bytes(MICA2_RADIO)
        assert preamble * MICA2_RADIO.byte_time_s >= 0.5

    def test_lpl_preamble_never_below_default(self):
        config = DutyCycleConfig(check_interval_s=1e-4, check_duration_s=5e-5)
        assert config.lpl_preamble_bytes(MICA2_RADIO) >= MICA2_RADIO.preamble_bytes


class TestLplPower:
    def test_longer_interval_lowers_average_power(self):
        fast = lpl_average_power(MICA2_RADIO, DutyCycleConfig(0.1))
        slow = lpl_average_power(MICA2_RADIO, DutyCycleConfig(10.0))
        assert slow < fast

    def test_average_power_between_sleep_and_rx(self):
        power = lpl_average_power(MICA2_RADIO, DutyCycleConfig(1.0))
        assert MICA2_RADIO.sleep_power_w < power < MICA2_RADIO.rx_power_w

    def test_check_energy_positive(self):
        assert lpl_check_energy(MICA2_RADIO, DutyCycleConfig(1.0)) > 0

    def test_paper_magnitude_day_of_listening(self):
        """At a 1 s check interval a Mica2 spends ~10-20 J/day idle —
        the magnitude the architecture comparison shows being saved."""
        config = DutyCycleConfig(1.0)
        per_day = lpl_average_power(MICA2_RADIO, config) * 86_400.0
        assert 5.0 < per_day < 40.0
