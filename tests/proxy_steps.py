"""What a query does to a proxy before it reads, for tests that inspect the
cached view or the model tracker at the current instant."""

from __future__ import annotations

from repro.core.proxy import PrestoProxy


def catch_up(proxy: PrestoProxy, sensor: int) -> None:
    """Land *sensor*'s inbox, then bring its cached view up to the current
    epoch: ``process_query``'s one drain and a NOW answer's catch-up."""
    proxy.drain(sensor)
    proxy._bring_forward(sensor, proxy.current_epoch())
