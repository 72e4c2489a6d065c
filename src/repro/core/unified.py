"""The temporally ordered view of detections across proxies.

Section 5's data abstraction asks for "a single temporally ordered view of
detections across distributed proxies and sensors".  Query routing and
failover across proxies belong to :class:`~repro.core.federation.
FederatedSystem`; this module adds only the merge: :func:`ordered_view`
reads each proxy's cache — or, for mote-stamped cells, its detection log —
corrects every detection with the sync fit it was recorded under, keeps
those inside the window and sorts the result by time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.proxy import PrestoProxy


@dataclass(frozen=True)
class ProxyCell:
    """One proxy and where its sensors start in the global numbering.

    Local sensor ``i`` of ``proxy`` is global sensor ``first_sensor + i``.
    ``sensor_stamped`` picks what :func:`ordered_view` reads.  The
    epoch-driven push protocol stamps cache entries from the shared epoch
    counter — already proxy frame, nothing to correct — so by default the
    view reads the cache.  A cell whose motes stamp detections with their
    own free-running clocks sets it True, and the view reads the proxy's
    detection log (:meth:`~repro.core.proxy.PrestoProxy.record_detection`)
    instead.
    """

    proxy: PrestoProxy
    first_sensor: int
    sensor_stamped: bool = False


def ordered_view(
    cells: list[ProxyCell], start: float, end: float
) -> list[tuple[float, int, float]]:
    """Temporally ordered ``(corrected_time, global_sensor, value)``
    tuples across *cells* whose proxy-frame instant lies in ``[start, end]``.

    A default cell contributes the *actual* entries of its cache window as
    stored: the push protocol stamped them from the lockstep epoch
    counter, so their timestamps already are proxy time.  A
    ``sensor_stamped`` cell contributes its detection log instead.  Each
    detection is corrected with the sync fit logged beside it
    (:meth:`~repro.sync.protocol.SyncEstimate.correct`), so later re-fits
    of a drifting clock never move it; one logged before any fit follows
    the proxy's current estimate (:meth:`~repro.core.proxy.PrestoProxy.
    corrected_time` — identity until a clock is fitted).  The window
    applies to the corrected instant.  Ties in time are broken by global
    sensor id.
    """
    merged: list[tuple[float, int, float]] = []
    for cell in cells:
        proxy = cell.proxy
        proxy.drain()
        for local in range(proxy.n_sensors):
            global_id = cell.first_sensor + local
            if not cell.sensor_stamped:
                merged.extend(
                    (entry.timestamp, global_id, entry.value)
                    for entry in proxy.cache.entries_in(local, start, end)
                    if entry.is_actual
                )
                continue
            for raw, value, estimate in proxy.detections.get(local, ()):
                if estimate is None:
                    corrected = proxy.corrected_time(local, raw)
                else:
                    corrected = estimate.correct(raw)
                if start <= corrected <= end:
                    merged.append((corrected, global_id, value))
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged
