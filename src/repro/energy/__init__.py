"""Energy models for PRESTO sensor nodes.

The paper's core economic argument (Section 1) is that radio communication is
orders of magnitude more expensive than computation or storage, so PRESTO
trades communication for flash archival plus cheap model checks.  This
package provides the hardware constants (Mica2/CC1000-class radio, AT45DB
flash, ATmega128 CPU), per-packet and duty-cycle energy accounting, and the
per-node :class:`~repro.energy.meter.EnergyMeter` used by every experiment.
"""

from repro.energy.constants import (
    MICA2_PROFILE,
    TELOS_PROFILE,
    CPUConstants,
    FlashConstants,
    NodeEnergyProfile,
    RadioConstants,
)
from repro.energy.duty_cycle import DutyCycleConfig, lpl_average_power, lpl_check_energy
from repro.energy.lifetime import LifetimeEstimate, lifetime_gain, project_lifetime
from repro.energy.meter import EnergyBreakdown, EnergyMeter
from repro.energy.radio_energy import (
    ack_rx_energy,
    burst_transfer_energy,
    packet_airtime,
    packets_for_payload,
    receive_energy,
    transfer_energy,
    transmit_energy,
)

__all__ = [
    "CPUConstants",
    "FlashConstants",
    "NodeEnergyProfile",
    "RadioConstants",
    "MICA2_PROFILE",
    "TELOS_PROFILE",
    "DutyCycleConfig",
    "lpl_average_power",
    "lpl_check_energy",
    "EnergyBreakdown",
    "EnergyMeter",
    "LifetimeEstimate",
    "lifetime_gain",
    "project_lifetime",
    "ack_rx_energy",
    "burst_transfer_energy",
    "packet_airtime",
    "packets_for_payload",
    "receive_energy",
    "transmit_energy",
    "transfer_energy",
]
