"""The unified logical store across proxies.

Section 5's data abstraction: "a single logical view of data that
integrates archived data stored at numerous distributed remote sensors as
well as caches and prediction models at numerous proxies".  The store

* routes queries to the responsible proxy through the order-preserving
  interval index (skip-graph hops are accounted as routing latency);
* tolerates proxy failure by consulting the replicated cache directory and
  redirecting to the best live replica (wired proxies preferred);
* provides the temporally ordered cross-proxy view of detections, with
  sensor timestamps corrected by each proxy's sync estimates.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.proxy import PrestoProxy
from repro.core.queries import AnswerSource, QueryAnswer
from repro.index.directory import CacheDirectory
from repro.index.interval import IntervalIndex
from repro.traces.workload import Query

#: nominal per-hop latency in the proxy overlay (wired mesh)
HOP_LATENCY_S = 0.002


@dataclass(frozen=True)
class ProxyCell:
    """One proxy and the contiguous global sensor range it manages.

    ``sensor_stamped`` declares the time frame of the cell's cached
    timestamps.  The epoch-driven push protocol stamps entries from the
    shared epoch counter — already proxy frame, nothing to correct
    (the default).  Detection-style stores whose motes stamp
    observations with their own free-running clocks set it True, and
    :meth:`UnifiedStore.ordered_view` maps those stamps through the
    proxy's sync estimates before merging.
    """

    proxy: PrestoProxy
    first_sensor: int
    last_sensor: int
    wired: bool = True
    response_latency_s: float = 0.01
    sensor_stamped: bool = False

    def __post_init__(self) -> None:
        if self.last_sensor < self.first_sensor:
            raise ValueError("empty sensor range")

    def to_local(self, global_sensor: int) -> int:
        """Translate a global sensor id into the proxy's local numbering."""
        if not self.first_sensor <= global_sensor <= self.last_sensor:
            raise ValueError(
                f"sensor {global_sensor} outside "
                f"[{self.first_sensor}, {self.last_sensor}]"
            )
        return global_sensor - self.first_sensor


class UnifiedStore:
    """Single logical query interface over many PRESTO cells."""

    def __init__(self, replication_factor: int = 1) -> None:
        self._cells: dict[str, ProxyCell] = {}
        self.index = IntervalIndex()
        self.directory = CacheDirectory()
        self.replication_factor = replication_factor
        self.routed_queries = 0
        self.rerouted_queries = 0
        self.unroutable_queries = 0

    # -- membership -------------------------------------------------------------

    def add_cell(self, cell: ProxyCell) -> None:
        """Register a proxy and its sensor range."""
        name = cell.proxy.name
        if name in self._cells:
            raise ValueError(f"duplicate proxy {name!r}")
        self._cells[name] = cell
        self.index.assign(name, float(cell.first_sensor), float(cell.last_sensor))
        self.directory.register_proxy(
            name, wired=cell.wired, response_latency_s=cell.response_latency_s
        )
        self.directory.publish_cache(
            name, set(range(cell.first_sensor, cell.last_sensor + 1))
        )

    def plan_replication(self) -> dict[str, list[str]]:
        """Replicate wireless proxies' caches onto wired ones (whole copies)."""
        return self.directory.plan_fragment_placement(1, self.replication_factor)

    def cell(self, proxy_name: str) -> ProxyCell:
        """Lookup a registered cell."""
        return self._cells[proxy_name]

    def mark_proxy_down(self, proxy_name: str) -> None:
        """Fail a proxy (availability experiments)."""
        self.directory.mark_down(proxy_name)

    def mark_proxy_up(self, proxy_name: str) -> None:
        """Recover a proxy."""
        self.directory.mark_up(proxy_name)

    # -- querying ----------------------------------------------------------------

    def query(self, query: Query) -> QueryAnswer:
        """Route and answer one global query."""
        self.routed_queries += 1
        assignments = self.index.lookup(float(query.sensor))
        if not assignments:
            self.unroutable_queries += 1
            return QueryAnswer(
                query=query, value=None, source=AnswerSource.FAILED, latency_s=0.0
            )
        routing_latency = (1 + self.index.mean_routing_hops) * HOP_LATENCY_S

        primary_name = assignments[0].proxy
        primary = self.directory.proxy(primary_name)
        extra_latency = primary.response_latency_s
        if not primary.alive:
            best = self.directory.best_server(query.sensor)
            if best is None:
                self.unroutable_queries += 1
                return QueryAnswer(
                    query=query,
                    value=None,
                    source=AnswerSource.FAILED,
                    latency_s=routing_latency,
                )
            self.rerouted_queries += 1
            # The replica serves a copy of the failed proxy's cache and
            # models; in-simulation that state lives in the primary cell
            # object, so answer from it at the replica's latency.
            extra_latency = best.response_latency_s
        cell = self._cells[primary_name]
        local = self._rewrite(query, cell)
        answer = cell.proxy.process_query(local)
        return QueryAnswer(
            query=query,
            value=answer.value,
            source=answer.source,
            latency_s=answer.latency_s + routing_latency + extra_latency,
            believed_std=answer.believed_std,
            sensor_energy_j=answer.sensor_energy_j,
            pulled_bytes=answer.pulled_bytes,
        )

    @staticmethod
    def _rewrite(query: Query, cell: ProxyCell) -> Query:
        """Rewrite a global query into the cell's local sensor numbering."""
        return dataclasses.replace(query, sensor=cell.to_local(query.sensor))

    # -- ordered cross-proxy view ---------------------------------------------------

    def ordered_view(
        self, start: float, end: float
    ) -> list[tuple[float, int, float]]:
        """Temporally ordered ``(corrected_time, global_sensor, value)``
        tuples of all *actual* cached data across proxies in ``[start, end]``.

        This is the "single temporally ordered view of detections across
        distributed proxies" of Section 5; each proxy corrects its
        sensors' timestamps into the proxy frame before merging.  For the
        epoch-driven push protocol that correction already happened at
        insert time — entries are stamped from the shared lockstep epoch
        counter, so their cached timestamps *are* proxy time and are
        merged as stored.  Cells declared ``sensor_stamped`` hold raw
        mote-clock stamps instead; those are corrected *per entry*: an
        entry tagged with a clock frame (the ``(rate, offset)`` fit
        captured when it was recorded — see :meth:`~repro.core.proxy.
        PrestoProxy.record_detection`) maps through exactly that frame,
        so later re-fits of a drifting clock never retroactively move
        old detections; untagged entries fall back to the proxy's
        current estimate (:meth:`~repro.core.proxy.PrestoProxy.
        corrected_time` — identity until a clock is fitted).  The cache
        is scanned over the *image* of ``[start, end]`` under the
        current fit in each sensor's own frame, so a detection whose
        raw stamp sits outside the window but whose corrected instant
        is inside cannot be missed (and vice versa).
        """
        merged: list[tuple[float, int, float]] = []
        for cell in self._cells.values():
            proxy = cell.proxy
            frames_in = getattr(proxy.cache, "frames_in", None)
            for local in range(proxy.n_sensors):
                global_id = cell.first_sensor + local
                if cell.sensor_stamped:
                    lo = proxy.sensor_frame_time(local, start)
                    hi = proxy.sensor_frame_time(local, end)
                    if hi < lo:
                        lo, hi = hi, lo
                else:
                    lo, hi = start, end
                frames = (
                    frames_in(local, lo, hi)
                    if cell.sensor_stamped and frames_in is not None
                    else None
                )
                for position, entry in enumerate(
                    proxy.cache.entries_in(local, lo, hi)
                ):
                    if not entry.is_actual:
                        continue
                    if not cell.sensor_stamped:
                        corrected = entry.timestamp
                    else:
                        frame = None if frames is None else frames[position]
                        if frame is not None and np.isfinite(frame).all():
                            corrected = (entry.timestamp - frame[1]) / frame[0]
                        else:
                            corrected = proxy.corrected_time(
                                local, entry.timestamp
                            )
                    merged.append((corrected, global_id, entry.value))
        merged.sort(key=lambda item: (item[0], item[1]))
        return merged

    @property
    def n_sensors(self) -> int:
        """Total sensors across all cells."""
        return sum(
            cell.last_sensor - cell.first_sensor + 1 for cell in self._cells.values()
        )
