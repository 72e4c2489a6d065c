"""The radio joule law and radio conservation.

**Joules.**  Each :class:`~repro.radio.link.LossyLink` counts every attempt,
delivery and drop per (energy category, frame shape), and its two
endpoints' meters read those counts as counted sources against the link's
per-frame joules (the sender's TX and ACK listen, the receiver's RX).  Over
small lossy cells, for every node, the TX frames its meter counts equal the
attempts on the links it sends on, the ACKs and RX frames equal the
deliveries on the links it sends and receives on, and each link category's
joules are exactly its counts times those constants, summed in the meter's
order.

**Conservation**, on whole runs of the five quick perf workloads, counted
from outside the links: every ARQ run (:meth:`LossyLink.arq`) is one
transfer and every loss-stream draw one attempt, so per link

- attempts (draws seen) == deliveries + losses, and
- transfers (ARQ runs seen) == deliveries + drops;

per network, ``packets_sent == packets_delivered + packets_dropped``, and
the sent and delivered packets are exactly the link transfers and
deliveries outside the pull categories (a pull talks to the MAC
directly); and each meter's radio quantities are its links' counts.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from test_fleet import plans, simulate
from test_ingest import WORKLOADS, run_workload

from repro.radio.link import LossyLink

#: meter categories that are not frames of a cell link
NOT_LINK_FRAMES = ("radio.lpl", "radio.offload_tx", "radio.offload_rx")
#: link categories a pull sends through the MAC, not the network
PULL_FRAMES = ("radio.pull_request", "radio.pull_reply")


def ledgers(meter, sending, receiving):
    """(*meter*'s frame counts, the links' counts), each as
    ``{"tx": attempts, "ack": deliveries sent, "rx": deliveries heard}``."""
    tx_units = {frame.tx_j for link in sending for frame in link._frames.values()}
    ack_units = {frame.ack_j for link in sending for frame in link._frames.values()}
    rx_units = {frame.rx_j for link in receiving for frame in link._frames.values()}
    counted: Counter = Counter()
    for category, units in meter._all_quantities().items():
        if not category.startswith("radio.") or category in NOT_LINK_FRAMES:
            continue
        for unit, quantity in units.items():
            if category == "radio.rx":
                assert unit in rx_units
                counted["rx"] += quantity
            else:
                assert unit in tx_units | ack_units
                counted["tx" if unit in tx_units else "ack"] += quantity
    links = Counter(
        tx=sum(link.stats.attempts for link in sending),
        ack=sum(link.stats.deliveries for link in sending),
        rx=sum(link.stats.deliveries for link in receiving),
    )
    return +counted, +links


def derived(meter, category: str) -> float:
    """*category*'s counts × constants, in ascending unit order."""
    total = 0.0
    for unit, quantity in sorted(meter._all_quantities()[category].items()):
        total += quantity * unit
    return total


def nodes(cell) -> list:
    """``(meter, links it sends on, links it hears on)`` per node of *cell*."""
    macs = [cell.network.mac_for(sensor.name) for sensor in cell.sensors]
    found = [
        (sensor.meter, [mac.uplink], [mac.downlink]) for sensor, mac in zip(cell.sensors, macs)
    ]
    found.append(
        (cell.proxy_meter, [mac.downlink for mac in macs], [mac.uplink for mac in macs])
    )
    return found


def assert_meters_read_their_links(cell) -> None:
    for meter, sending, receiving in nodes(cell):
        counted, links = ledgers(meter, sending, receiving)
        assert counted == links
        for category in meter._all_quantities():
            if category.startswith("radio.") and category not in NOT_LINK_FRAMES:
                assert meter.category_j(category).hex() == derived(meter, category).hex()


@settings(max_examples=15, deadline=None)
@given(plan=plans())
def test_radio_joules_are_link_frame_counts_times_frame_constants(plan):
    cells, _ = simulate(plan, False)
    lossy = 0
    for cell in cells:
        assert_meters_read_their_links(cell)
        macs = [cell.network.mac_for(sensor.name) for sensor in cell.sensors]
        lossy += sum(mac.uplink.stats.losses + mac.downlink.stats.losses for mac in macs)
    assert lossy or plan.loss == 0.0


# -- conservation on whole runs -------------------------------------------------------


class _CountingStream:
    """A link's view of its network's loss stream that counts its draws."""

    def __init__(self, rng, draws: Counter, link: LossyLink) -> None:
        self._rng, self._draws, self._link = rng, draws, link

    def random(self):
        self._draws[self._link] += 1
        return self._rng.random()


def count_from_outside(patch) -> tuple[Counter, Counter]:
    """Count every link's ARQ runs and loss-stream draws, by link."""
    transfers: Counter = Counter()
    draws: Counter = Counter()
    init, arq = LossyLink.__init__, LossyLink.arq

    def counting_init(self, radio, config, rng, sender_meter, receiver_meter):
        init(self, radio, config, _CountingStream(rng, draws, self), sender_meter, receiver_meter)

    def counting_arq(self, energy_category, payload_bytes, lpl_preamble_bytes):
        transfers[self] += 1
        return arq(self, energy_category, payload_bytes, lpl_preamble_bytes)

    patch.setattr(LossyLink, "__init__", counting_init)
    patch.setattr(LossyLink, "arq", counting_arq)
    return transfers, draws


@pytest.mark.parametrize("workload", WORKLOADS)
def test_radio_is_conserved_on_whole_runs(workload):
    with pytest.MonkeyPatch.context() as patch:
        transfers, draws = count_from_outside(patch)
        _, cells = run_workload(workload, patch)
    assert cells
    losses = 0
    for cell in cells:
        network = cell.network
        assert network.packets_sent == network.packets_delivered + network.packets_dropped
        sent = delivered = 0
        for sensor in cell.sensors:
            mac = network.mac_for(sensor.name)
            for link in (mac.uplink, mac.downlink):
                stats = link.stats
                assert draws[link] == stats.attempts == stats.deliveries + stats.losses
                assert transfers[link] == stats.deliveries + stats.drops
                losses += stats.losses
                for (category, _, _), tally in link._ledger.items():
                    if category not in PULL_FRAMES:
                        sent += tally.deliveries + tally.drops
                        delivered += tally.deliveries
        assert (network.packets_sent, network.packets_delivered) == (sent, delivered)
        assert_meters_read_their_links(cell)
    assert losses > 0
