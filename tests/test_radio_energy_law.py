"""The radio joule law: a node's radio joules are its links' frame counts
times the links' per-frame constants.

Each :class:`~repro.radio.link.LossyLink` counts every attempt and every
delivery in its :class:`~repro.radio.link.LinkStats`, and records the same
frames on its two endpoints' meters against its per-frame joules (the
sender's TX and ACK listen, the receiver's RX).  Two ledgers, kept apart,
must agree: over small lossy cells, for every node, the TX frames its meter
counts equal the attempts on the links it sends on, the ACKs and RX frames
equal the deliveries on the links it sends and receives on, and each link
category's joules are exactly its counts times those constants, summed in
the meter's order.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings
from test_fleet import plans, simulate

#: meter categories that are not frames of a cell link
NOT_LINK_FRAMES = ("radio.lpl", "radio.offload_tx", "radio.offload_rx")


def ledgers(meter, sending, receiving):
    """(*meter*'s frame counts, the links' counts), each as
    ``{"tx": attempts, "ack": deliveries sent, "rx": deliveries heard}``."""
    tx_units = {frame.tx_j for link in sending for frame in link._frames.values()}
    ack_units = {frame.ack_j for link in sending for frame in link._frames.values()}
    rx_units = {frame.rx_j for link in receiving for frame in link._frames.values()}
    counted: Counter = Counter()
    for category, units in meter._quantities.items():
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
    for unit, quantity in sorted(meter._quantities[category].items()):
        total += quantity * unit
    return total


@settings(max_examples=15, deadline=None)
@given(plan=plans())
def test_radio_joules_are_link_frame_counts_times_frame_constants(plan):
    cells, _ = simulate(plan, False)
    lossy = 0
    for cell in cells:
        macs = [cell.network.mac_for(sensor.name) for sensor in cell.sensors]
        nodes = [
            (sensor.meter, [mac._uplink], [mac._downlink])
            for sensor, mac in zip(cell.sensors, macs)
        ]
        nodes.append((
            cell.proxy_meter,
            [mac._downlink for mac in macs],
            [mac._uplink for mac in macs],
        ))
        for meter, sending, receiving in nodes:
            counted, links = ledgers(meter, sending, receiving)
            assert counted == links
            for category in meter._quantities:
                if category.startswith("radio.") and category not in NOT_LINK_FRAMES:
                    assert meter.category_j(category).hex() == derived(meter, category).hex()
        lossy += sum(mac._uplink.stats.losses + mac._downlink.stats.losses for mac in macs)
    assert lossy or plan.loss == 0.0
