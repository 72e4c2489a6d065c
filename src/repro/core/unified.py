"""The temporally ordered view of detections across proxies.

Section 5's data abstraction asks for "a single temporally ordered view of
detections across distributed proxies and sensors".  Query routing and
failover across proxies belong to :class:`~repro.core.federation.
FederatedSystem`; this module adds only the merge: :func:`ordered_view`
reads each proxy's cache over a window, corrects sensor timestamps with
that proxy's sync estimates and sorts the result by time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.proxy import PrestoProxy


@dataclass(frozen=True)
class ProxyCell:
    """One proxy and where its sensors start in the global numbering.

    Local sensor ``i`` of ``proxy`` is global sensor ``first_sensor + i``.
    ``sensor_stamped`` declares the time frame of the cell's cached
    timestamps.  The epoch-driven push protocol stamps entries from the
    shared epoch counter — already proxy frame, nothing to correct
    (the default).  Detection-style stores whose motes stamp
    observations with their own free-running clocks set it True, and
    :func:`ordered_view` maps those stamps through the proxy's sync
    estimates before merging.
    """

    proxy: PrestoProxy
    first_sensor: int
    sensor_stamped: bool = False


def ordered_view(
    cells: list[ProxyCell], start: float, end: float
) -> list[tuple[float, int, float]]:
    """Temporally ordered ``(corrected_time, global_sensor, value)``
    tuples of all *actual* cached data across *cells* in ``[start, end]``.

    Each proxy corrects its sensors' timestamps into the proxy frame
    before merging.  For the epoch-driven push protocol that correction
    already happened at insert time — entries are stamped from the shared
    lockstep epoch counter, so their cached timestamps *are* proxy time
    and are merged as stored.  Cells declared ``sensor_stamped`` hold raw
    mote-clock stamps instead; those are corrected *per entry*: an entry
    tagged with a clock frame (the ``(rate, offset)`` fit captured when
    it was recorded — see :meth:`~repro.core.proxy.PrestoProxy.
    record_detection`) maps through exactly that frame, so later re-fits
    of a drifting clock never retroactively move old detections; untagged
    entries fall back to the proxy's current estimate (:meth:`~repro.
    core.proxy.PrestoProxy.corrected_time` — identity until a clock is
    fitted).  The cache is scanned over the *image* of ``[start, end]``
    under the current fit in each sensor's own frame, so a detection
    whose raw stamp sits outside the window but whose corrected instant
    is inside cannot be missed (and vice versa).  Ties in time are
    broken by global sensor id.
    """
    merged: list[tuple[float, int, float]] = []
    for cell in cells:
        proxy = cell.proxy
        for local in range(proxy.n_sensors):
            global_id = cell.first_sensor + local
            if cell.sensor_stamped:
                lo = proxy.sensor_frame_time(local, start)
                hi = proxy.sensor_frame_time(local, end)
                if hi < lo:
                    lo, hi = hi, lo
                frames = proxy.cache.frames_in(local, lo, hi)
            else:
                lo, hi = start, end
                frames = None
            for position, entry in enumerate(proxy.cache.entries_in(local, lo, hi)):
                if not entry.is_actual:
                    continue
                if not cell.sensor_stamped:
                    corrected = entry.timestamp
                else:
                    frame = None if frames is None else frames[position]
                    if frame is not None and np.isfinite(frame).all():
                        corrected = (entry.timestamp - frame[1]) / frame[0]
                    else:
                        corrected = proxy.corrected_time(local, entry.timestamp)
                merged.append((corrected, global_id, entry.value))
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged
