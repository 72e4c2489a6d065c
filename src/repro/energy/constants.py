"""Hardware energy constants for canonical sensor-node platforms.

Values are drawn from the Mica2 (ATmega128 + CC1000 + AT45DB041 flash) and
Telos (MSP430 + CC2420 + ST M25P80) datasheets and the measurement literature
the paper builds on (Pottie & Kaiser [8]; Madden et al.; Polastre et al.).
Absolute joules are *not* the reproduction target — the paper's own Figure 2
was measured on unstated hardware — but keeping the constants honest keeps
the relative costs (radio >> CPU, radio >> flash) that drive every PRESTO
design decision.

Units: volts, amperes, watts, joules, bytes, seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class RadioConstants:
    """Radio chip parameters plus link-layer framing overheads.

    ``preamble_bytes`` is the *non-LPL* preamble; low-power-listening
    lengthens the preamble to cover the receiver's check interval, which is
    modelled in :mod:`repro.energy.duty_cycle` / :mod:`repro.radio.mac`.
    """

    name: str
    bitrate_bps: float          # effective over-the-air bit rate
    tx_power_w: float           # supply power while transmitting
    rx_power_w: float           # supply power while receiving / listening
    sleep_power_w: float        # radio sleep power
    startup_time_s: float       # oscillator + PLL settle before TX/RX
    startup_power_w: float      # power during startup (approx. RX power)
    preamble_bytes: int         # physical preamble + sync word
    header_bytes: int           # link-layer header (dest, type, group, len)
    crc_bytes: int              # frame check sequence
    ack_bytes: int              # explicit ACK frame size
    max_payload_bytes: int      # MTU for a single frame's payload

    @property
    def byte_time_s(self) -> float:
        """Seconds to clock one byte over the air."""
        return 8.0 / self.bitrate_bps

    @property
    def tx_energy_per_byte_j(self) -> float:
        """Joules to transmit one byte (power x airtime)."""
        return self.tx_power_w * self.byte_time_s


@dataclass(frozen=True)
class FlashConstants:
    """External NOR/dataflash parameters (page-oriented)."""

    name: str
    page_bytes: int
    write_page_energy_j: float   # energy to program one page
    read_page_energy_j: float    # energy to read one page
    erase_block_energy_j: float  # energy to erase one block
    pages_per_block: int
    capacity_bytes: int

    @property
    def write_energy_per_byte_j(self) -> float:
        """Amortised joules per byte written (full-page accounting)."""
        return self.write_page_energy_j / self.page_bytes


@dataclass(frozen=True)
class CPUConstants:
    """Microcontroller parameters."""

    name: str
    active_power_w: float
    sleep_power_w: float
    clock_hz: float

    @property
    def energy_per_cycle_j(self) -> float:
        """Joules per active CPU cycle."""
        return self.active_power_w / self.clock_hz

    def energy_for_cycles(self, cycles: float) -> float:
        """Joules to execute *cycles* active cycles."""
        return cycles * self.energy_per_cycle_j


@dataclass(frozen=True)
class NodeEnergyProfile:
    """Complete energy profile of one sensor-node platform."""

    name: str
    radio: RadioConstants
    flash: FlashConstants
    cpu: CPUConstants
    battery_capacity_j: float = field(default=2.0 * 2850e-3 * 3600 * 3.0)
    # default: 2x AA (2850 mAh each) at 3 V -> ~61.5 kJ


# --- Mica2: ATmega128L + CC1000 @ 38.4 kbps + AT45DB041B -------------------

MICA2_RADIO = RadioConstants(
    name="CC1000",
    bitrate_bps=38_400.0,
    tx_power_w=0.0810,      # 27 mA @ 3.0 V (0 dBm-ish)
    rx_power_w=0.0300,      # 10 mA @ 3.0 V
    sleep_power_w=3.0e-6,   # ~1 uA
    startup_time_s=2.5e-3,
    startup_power_w=0.0300,
    preamble_bytes=20,      # preamble + sync (non-LPL default)
    header_bytes=7,         # TinyOS AM header: dest 2, type 1, group 1, len 1 (+pad)
    crc_bytes=2,
    ack_bytes=5,
    max_payload_bytes=64,
)

# AT45DB write: ~15 mA @ 3 V for ~14 ms/page ~= 630 uJ/page in the datasheet
# worst case; measured literature (Mathur et al.) reports ~45 uJ..250 uJ per
# page once buffering amortises.  We use a literature-calibrated 250 uJ/page.
MICA2_FLASH = FlashConstants(
    name="AT45DB041B",
    page_bytes=264,
    write_page_energy_j=250e-6,
    read_page_energy_j=15e-6,
    erase_block_energy_j=180e-6,
    pages_per_block=8,
    capacity_bytes=4 * 1024 * 1024,
)

MICA2_CPU = CPUConstants(
    name="ATmega128L",
    active_power_w=0.0240,   # 8 mA @ 3.0 V
    sleep_power_w=30.0e-6,   # ~10 uA
    clock_hz=7.3728e6,
)

MICA2_PROFILE = NodeEnergyProfile(
    name="mica2",
    radio=MICA2_RADIO,
    flash=MICA2_FLASH,
    cpu=MICA2_CPU,
)


# --- Telos: MSP430 + CC2420 @ 250 kbps + ST M25P80 -------------------------

TELOS_RADIO = RadioConstants(
    name="CC2420",
    bitrate_bps=250_000.0,
    tx_power_w=0.0522,      # 17.4 mA @ 3.0 V (0 dBm)
    rx_power_w=0.0564,      # 18.8 mA @ 3.0 V
    sleep_power_w=3.0e-6,
    startup_time_s=0.58e-3,
    startup_power_w=0.0564,
    preamble_bytes=5,       # 4 preamble + 1 SFD (802.15.4)
    header_bytes=11,
    crc_bytes=2,
    ack_bytes=5,
    max_payload_bytes=114,
    )

TELOS_FLASH = FlashConstants(
    name="M25P80",
    page_bytes=256,
    write_page_energy_j=58e-6,
    read_page_energy_j=5e-6,
    erase_block_energy_j=2.0e-3,
    pages_per_block=256,
    capacity_bytes=1024 * 1024,
)

TELOS_CPU = CPUConstants(
    name="MSP430F1611",
    active_power_w=0.0054,   # 1.8 mA @ 3.0 V
    sleep_power_w=15.0e-6,
    clock_hz=4.0e6,
)

TELOS_PROFILE = NodeEnergyProfile(
    name="telos",
    radio=TELOS_RADIO,
    flash=TELOS_FLASH,
    cpu=TELOS_CPU,
)


# Nominal CPU cycle costs for the sensor-side operations PRESTO relies on.
# A model check is a handful of multiply-accumulates; wavelet denoising is
# O(n) lifting steps per sample.  These match the paper's asymmetry
# requirement: verification at the sensor must be nearly free.
MODEL_CHECK_CYCLES = 200.0          # per reading: evaluate model, compare
WAVELET_CYCLES_PER_SAMPLE = 800.0   # DWT + threshold per input sample
COMPRESS_CYCLES_PER_BYTE = 60.0     # entropy-coding cost per output byte
SAMPLE_ACQUIRE_CYCLES = 2_000.0     # ADC acquisition + calibration
