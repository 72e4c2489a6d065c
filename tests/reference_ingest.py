"""The uplink as it was: one send per push, one event and one write per arrival.

Two oracles, each restoring one per-item path its batched form replaced.

**One send per push** (:func:`per_push`).  A sampling pass used to visit
its rows in order and send each push at its row: ``PrestoSensor._push``
built a packet and handed it to :meth:`Network.send`, whose ARQ ran
the link's transfer and whose delivery queued it in the proxy's inbox.
:func:`leave_one_by_one` is that order, a batching row batching in turn,
and :func:`send_push` that send, its ARQ loop a frozen copy of the one the
link ran then (so a change to the link's loop shows against it).  It must
leave what :meth:`SensorFleet._leave` leaves with one
:meth:`Network.send_uplinks` call per cell per stretch of pushes: the
same loss-stream draws, kernel tickets, arrival instants, inbox order,
link ledgers, meters and landed rows.

**One event and one write per arrival** (:func:`per_arrival`).  A
delivered push or batch used to be scheduled as a simulator event at its
arrival instant, which landed it through :meth:`PrestoProxy.on_receive`:
a push, or each of a batch's readings in time order, brought its sensor's
cached view forward to its epoch — the tracker's silent run before it
(``silent_run``), then the reading (``apply_push``) — as one write, and a
push recorded its sync exchange on its own (``record_exchange``).  With it
the proxy's inbox never holds anything, so every drain is a no-op, and
every uplink lands at its own event through the functions below instead
of ``PrestoProxy._land``.

Patch before the systems are built: a cell's network keeps the proxy's
bound ``accept``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.core.cache import PREDICTED_CODE, PUSHED_CODE
from repro.core.fleet import PUSH_PAYLOAD_BYTES, SensorFleet
from repro.core.proxy import PrestoProxy
from repro.energy.radio_energy import packet_airtime
from repro.radio.link import _Tally

# -- one send per push ------------------------------------------------------------------


def leave_one_by_one(
    fleet: SensorFleet, now: float, readings: list[float], pushing: list[int],
    batching: list[int],
) -> None:
    """``SensorFleet._leave`` as the pass's per-row visit had it: the rows
    in order, a push sent at its row through :func:`send_push`, a batching
    row's reading batched (its flush sending by itself)."""
    batches = set(batching)
    for row in sorted(pushing + batching):
        sensor = fleet.sensors[row]
        if row in batches:
            sensor._batch(now, readings[row])
        else:
            send_push(sensor, now, readings[row])


def send_push(sensor, true_time: float, value: float) -> None:
    """``PrestoSensor._push``, ``Network.send`` and ``LossyLink.transfer``
    as they were for one push: its own ARQ loop on the sensor's uplink —
    each attempt's airtime worked out afresh, the latency summed term by
    term — then the link's and the network's counts, and a delivery handed
    to the proxy with its arrival instant."""
    local_time = sensor.clock.read(true_time) if sensor.clock else true_time
    payload = (sensor.sensor_id, sensor.epoch, float(value), float(local_time))
    network = sensor.network
    link = network.mac_for(sensor.name).uplink
    radio, config, draw = link.radio, link.config, link._rng.random
    key = ("radio.push", PUSH_PAYLOAD_BYTES, 0)
    tally = link._ledger.get(key)
    if tally is None:
        tally = link._ledger[key] = _Tally(link._frame(PUSH_PAYLOAD_BYTES, 0))
    network.packets_sent += 1
    attempts = 0
    latency = 0.0
    delivered = False
    while attempts <= config.max_retries:
        attempts += 1
        latency += packet_airtime(radio, PUSH_PAYLOAD_BYTES, 0)
        latency += config.propagation_s
        if draw() >= config.loss_probability:
            delivered = True
            latency += (radio.preamble_bytes + radio.ack_bytes) * radio.byte_time_s
            break
        latency += config.backoff_s
    tally.attempts += attempts
    if not delivered:
        tally.drops += 1
        network.packets_dropped += 1
        return
    tally.deliveries += 1
    network.packets_delivered += 1
    network._nodes[network._proxy_name].accept([(network.sim.now + latency, payload)])


def per_push(patch) -> None:
    """Make every fleet send each push at its row, one packet each."""
    patch.setattr(SensorFleet, "_leave", leave_one_by_one)


# -- one event and one write per arrival ---------------------------------------------


def accept_at_arrival(self: PrestoProxy, arrivals: list) -> None:
    """Deliver each arrival by a kernel event at its arrival instant."""
    for at, payload in arrivals:
        self.sim.schedule(at, lambda payload=payload: self.on_receive(payload))


def land_one_by_one(self: PrestoProxy, sensor: int, payloads: list) -> None:
    """Land each push, and each batched reading, as a write of its own."""
    for payload in payloads:
        if type(payload) is tuple:
            handle_push(self, payload)
        else:
            handle_batch(self, payload)


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
