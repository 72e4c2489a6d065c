"""The proxy's ingest as it was: one kernel event per delivered uplink.

A delivered push or batch used to be scheduled as a simulator event at its
arrival instant, which landed it through :meth:`PrestoProxy.on_receive` —
one ``_handle_push`` / ``_handle_batch`` per uplink, each push one write.
:func:`per_arrival` restores that delivery over the inbox: with it the
proxy's inbox never holds anything, so every drain is a no-op and every
uplink lands at its own event, through the per-arrival path.

Patch before the systems are built: a cell's network keeps the proxy's
bound ``accept``.
"""

from __future__ import annotations

from repro.core.proxy import PrestoProxy
from repro.radio.packet import Packet


def accept_at_arrival(self: PrestoProxy, packet: Packet, at: float) -> None:
    """Deliver *packet* by a kernel event at its arrival instant."""
    self.sim.schedule(at, lambda: self.on_receive(packet))


def per_arrival(patch) -> None:
    """Make every proxy built from now on land each uplink at its own event."""
    patch.setattr(PrestoProxy, "accept", accept_at_arrival)
