"""Radio, MAC, and network simulation.

Models the lower-tier wireless hops of the PRESTO hierarchy: lossy links
with retransmission, a B-MAC-style low-power-listening MAC whose check
interval is *tunable by the proxy* (the knob query–sensor matching turns),
and a star network connecting each proxy to its sensors.  Every link counts
its frames per energy category and frame shape, and the sender's and
receiver's energy meters read those counts against the per-frame joules of
:mod:`repro.energy`.
"""

from repro.radio.link import LinkConfig, LinkStats, LossyLink
from repro.radio.mac import LplMac
from repro.radio.network import Network, NetworkNode

__all__ = [
    "LinkConfig",
    "LinkStats",
    "LossyLink",
    "LplMac",
    "Network",
    "NetworkNode",
]
