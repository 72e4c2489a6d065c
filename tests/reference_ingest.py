"""The proxy's ingest as it was: one kernel event and one write per uplink.

A delivered push or batch used to be scheduled as a simulator event at its
arrival instant, which landed it through :meth:`PrestoProxy.on_receive`:
a push, or each of a batch's readings in time order, brought its sensor's
cached view forward to its epoch — the tracker's silent run before it
(``silent_run``), then the reading (``apply_push``) — as one write.
:func:`per_arrival` restores both: with it the proxy's inbox never holds
anything, so every drain is a no-op, and every uplink lands at its own
event through the functions below instead of ``PrestoProxy._land``.

Patch before the systems are built: a cell's network keeps the proxy's
bound ``accept``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.cache import PREDICTED_CODE, PUSHED_CODE
from repro.core.proxy import PrestoProxy
from repro.radio.packet import Packet, PacketKind


def accept_at_arrival(self: PrestoProxy, packet: Packet, at: float) -> None:
    """Deliver *packet* by a kernel event at its arrival instant."""
    self.sim.schedule(at, lambda: self.on_receive(packet))


def land_one_by_one(self: PrestoProxy, sensor: int, packets: list[Packet]) -> None:
    """Land each push, and each batched reading, as a write of its own."""
    for packet in packets:
        if packet.kind is PacketKind.PUSH:
            handle_push(self, packet.payload)
        else:
            handle_batch(self, packet.payload)


def handle_push(proxy: PrestoProxy, payload: tuple[int, int, float, float]) -> None:
    sensor, epoch, value, local_time = payload
    proxy.sync.record_exchange(
        proxy._sync_key(sensor),
        proxy_time=proxy.epoch_time(epoch),
        sensor_local_time=local_time,
    )
    state = proxy._states[sensor]
    state.pushes_received += 1
    if not bring_forward(proxy, sensor, epoch, value):
        state.push_losses_detected += 1


def handle_batch(proxy: PrestoProxy, payload: dict) -> None:
    """Land a batch's readings in time order, each as a push lands at its
    epoch, with the batch's quantisation noise as its std."""
    sensor = int(payload["sensor"])
    proxy._states[sensor].batches_received += 1
    quant = float(payload["quant_step"])
    std = float(quant / np.sqrt(12.0))
    times = np.asarray(payload["timestamps"], dtype=np.float64)
    values = np.asarray(payload["values"], dtype=np.float64)
    order = np.argsort(times, kind="stable")
    epochs = np.rint(times[order] / proxy.config.sample_period_s).astype(np.int64)
    for epoch, value in zip(epochs.tolist(), values[order].tolist()):
        bring_forward(proxy, sensor, epoch, value, std)


def bring_forward(
    proxy: PrestoProxy, sensor: int, epoch: int, reading: float, std: float = 0.0
) -> bool:
    """Bring *sensor*'s cached view forward to *epoch* as one write: the
    tracker's predictions for the silent epochs before it, then *reading*
    (applied to the tracker), std *std*.  Before any model the reading
    lands alone.  Returns False when the tracker had already advanced past
    *epoch*: the reading still refines its row."""
    state = proxy._states[sensor]
    proxy._activate_if_due(sensor, state, epoch)
    tracker = state.tracker
    overtaken = tracker is not None and epoch <= state.last_epoch
    first, run_std, values = epoch, 0.0, array("d")
    if tracker is None:
        state.last_epoch = max(state.last_epoch, epoch)  # cold start
    elif not overtaken:
        first = state.last_epoch + 1
        if epoch > first:
            run_std = proxy._silent_std(tracker)
            values = tracker.silent_run(epoch - first)
        tracker.apply_push(reading)
        state.last_epoch = epoch
    values.append(reading)
    stds = np.full(len(values), run_std)
    stds[-1] = std
    codes = np.full(len(values), PREDICTED_CODE, dtype=np.int8)
    codes[-1] = PUSHED_CODE
    times = proxy._epoch_times(first, epoch)
    proxy._insert_batch(sensor, times, np.frombuffer(values), stds, codes)
    return not overtaken


def per_arrival(patch) -> None:
    """Make every proxy built from now on land each uplink at its own
    event, one write per push or batched reading."""
    patch.setattr(PrestoProxy, "accept", accept_at_arrival)
    patch.setattr(PrestoProxy, "_land", land_one_by_one)
