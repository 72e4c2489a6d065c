"""The full-scan offload planner, kept as the tests' reference.

Bit-for-bit the ``OffloadCoordinator`` planning code from before the
planner read a hop window, per-payload activity and a guest registry: every
supply scans every archive of the cell for hosts, every value recomputes
its NumPy activity term, and every ``make_room`` finds guests by scanning
every record of every archive.  The only line dropped is the write-only
``radio_j`` stats counter.  ``test_offload_equivalence.py`` drives it and
:class:`repro.storage.offload.OffloadCoordinator` over identical fleets.
"""

from __future__ import annotations

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.radio_energy import transfer_energy
from repro.signal.multires import age_once, summarize
from repro.storage.archive import ArchiveRecord, SensorArchive
from repro.storage.offload import (
    ACTIVITY_WEIGHT,
    AGE_WEIGHT,
    MAX_OFFLOAD_HOPS,
    MCF_BATCH_PER_ARCHIVE,
    REQUEST_BYTES,
    RESOLUTION_WEIGHT,
    STORAGE_POLICIES,
    OffloadMove,
    OffloadStats,
    receive_transfer_energy,
)


def segment_value(record: ArchiveRecord, now_s: float) -> float:
    """Retention priority of one archived segment, in [0, 1]."""
    age_s = max(now_s - record.end_time, 0.0)
    age_term = 1.0 / (1.0 + age_s / 3600.0)
    resolution_term = 2.0 ** (-record.level)
    if record.raw is not None:
        stored = np.asarray(record.raw, dtype=np.float64)
    else:
        assert record.summary is not None
        stored = np.asarray(record.summary.approx, dtype=np.float64)
    if stored.size:
        activity = float(np.max(np.abs(stored - float(np.mean(stored)))))
    else:
        activity = 0.0
    activity_term = activity / (1.0 + activity)
    return (
        AGE_WEIGHT * age_term
        + RESOLUTION_WEIGHT * resolution_term
        + ACTIVITY_WEIGHT * activity_term
    )


class ScanOffloadCoordinator:
    """Plans and executes segment moves between a cell's sensor archives."""

    def __init__(
        self,
        policy: str,
        radio: RadioConstants,
        now_fn=None,
        max_hops: int = MAX_OFFLOAD_HOPS,
        mcf_batch: int = MCF_BATCH_PER_ARCHIVE,
    ) -> None:
        if policy not in STORAGE_POLICIES or policy == "local_aging":
            raise ValueError(
                f"offload policy must be one of {STORAGE_POLICIES[1:]}, got {policy!r}"
            )
        self.policy = policy
        self.radio = radio
        self.now_fn = now_fn
        self.max_hops = int(max_hops)
        self.mcf_batch = int(mcf_batch)
        self.archives: list[SensorArchive] = []
        self._index_of: dict[int, int] = {}
        self.stats = OffloadStats()
        self.moves: list[OffloadMove] = []
        # one flash page over one hop, priced on first use (it needs a
        # registered archive for the page size)
        self._one_hop_page_j: float | None = None

    # -- registration ------------------------------------------------------

    def register(self, archive: SensorArchive) -> int:
        """Attach *archive* as the next node on the line; returns its index."""
        index = len(self.archives)
        self.archives.append(archive)
        self._index_of[id(archive)] = index
        archive.offload = self
        return index

    def _hops(self, a: int, b: int) -> int:
        return max(abs(a - b), 1)

    def _now(self, source: SensorArchive) -> float:
        if self.now_fn is not None:
            return float(self.now_fn())
        newest = 0.0
        for record in source.records.values():
            newest = max(newest, record.end_time)
        return newest

    # -- planners ----------------------------------------------------------

    def make_room(self, archive: SensorArchive) -> bool:
        """Free local pages on *archive* by offloading; False when stuck."""
        source = self._index_of[id(archive)]
        if self._coarsen_hosted(source):
            return True
        if self.policy == "mcf_offload":
            return self._mcf_make_room(source)
        return self._greedy_make_room(source)

    def _hosted_on(self, host: int) -> list[tuple[float, int, int, ArchiveRecord]]:
        """Guest records stored on *host*'s flash, lowest value first."""
        now = self._now(self.archives[host])
        ranked = [
            (segment_value(record, now), owner, record.record_id, record)
            for owner, archive in enumerate(self.archives)
            for record in archive.records.values()
            if record.hosted_by == host
        ]
        ranked.sort(key=lambda item: (item[0], item[1], item[2]))
        return ranked

    def _coarsen_hosted(self, host: int) -> bool:
        """Age the lowest-value guest segment on *host*'s flash in place."""
        host_archive = self.archives[host]
        flash = host_archive.flash
        max_level = host_archive.aging_policy.max_level
        for _value, _owner, _record_id, record in self._hosted_on(host):
            if record.level >= max_level or record.n_readings < 2:
                continue
            if record.raw is not None:
                summary = summarize(record.raw, level=1)
            else:
                assert record.summary is not None
                summary = age_once(record.summary)
                if summary.level == record.summary.level:
                    continue
            new_bytes = summary.size_values * 8
            new_pages = flash.pages_for(new_bytes)
            if new_pages >= record.pages:
                continue  # page rounding ate the gain; try the next guest
            record.raw = None
            record.summary = summary
            flash.free(record.pages)
            record.pages = flash.write(new_bytes)
            self.stats.hosted_coarsenings += 1
            return True
        return False

    def _local_candidates(self, index: int) -> list[tuple[float, int, ArchiveRecord]]:
        """Locally stored records of archive *index*, lowest value first."""
        archive = self.archives[index]
        now = self._now(archive)
        ranked = [
            (segment_value(record, now), record.record_id, record)
            for record in archive.records.values()
            if record.hosted_by is None
        ]
        ranked.sort(key=lambda item: (item[0], item[1]))
        return ranked

    def _host_can_take(self, host: int, pages: int) -> bool:
        """Whether *host* can store *pages* without robbing its own room."""
        flash = self.archives[host].flash
        if pages <= 0 or pages > flash.free_pages:
            return False
        own_segment_pages = flash.pages_for(
            self.archives[host].segment_readings * 8
        )
        remaining = flash.free_pages - pages
        return remaining >= own_segment_pages or flash.free_pages < own_segment_pages

    def _greedy_make_room(self, source: int) -> bool:
        for _value, _record_id, record in self._local_candidates(source):
            pages = self.archives[source].flash.pages_for(record.stored_bytes())
            host = self._best_host(source, pages)
            if host is None:
                continue
            self._move(source, record, host)
            return True
        return False

    def _best_host(self, source: int, pages: int) -> int | None:
        """Least-utilised in-range neighbour able to host *pages*."""
        best: tuple[int, int, int] | None = None
        best_host = None
        for host in range(len(self.archives)):
            if host == source or self._hops(source, host) > self.max_hops:
                continue
            if not self._host_can_take(host, pages):
                continue
            key = (-self.archives[host].flash.free_pages, self._hops(source, host), host)
            if best is None or key < best:
                best = key
                best_host = host
        return best_host

    def _page_cost_j(self, hops: int) -> float:
        """Radio joules to move one flash page of payload over *hops* hops."""
        if self._one_hop_page_j is None:
            page_bytes = self.archives[0].flash.constants.page_bytes
            self._one_hop_page_j = transfer_energy(
                self.radio, page_bytes
            ) + receive_transfer_energy(self.radio, page_bytes)
        return hops * self._one_hop_page_j

    def _mcf_make_room(self, source: int) -> bool:
        """Network-wide min-cost assignment of pressured segments to hosts."""
        supplies: list[tuple[int, ArchiveRecord, float]] = []
        for index in range(len(self.archives)):
            pressured = index == source or self.archives[index].flash.free_pages == 0
            if not pressured:
                continue
            for value, _record_id, record in self._local_candidates(index)[: self.mcf_batch]:
                supplies.append((index, record, value))
        arcs: list[tuple[float, float, int, int, int, ArchiveRecord]] = []
        for src, record, value in supplies:
            pages = self.archives[src].flash.pages_for(record.stored_bytes())
            for host in range(len(self.archives)):
                hops = self._hops(src, host)
                if host == src or hops > self.max_hops:
                    continue
                cost = self._page_cost_j(hops) * pages
                arcs.append((cost, value, src, record.record_id, host, record))
        arcs.sort(key=lambda arc: arc[:5])
        moved_from_source = False
        for _cost, _value, src, _record_id, host, record in arcs:
            if record.hosted_by is not None:
                continue  # already placed via a cheaper arc this round
            pages = self.archives[src].flash.pages_for(record.stored_bytes())
            if not self._host_can_take(host, pages):
                continue
            self._move(src, record, host)
            if src == source:
                moved_from_source = True
        return moved_from_source

    # -- execution ---------------------------------------------------------

    def _move(self, source: int, record: ArchiveRecord, host: int) -> None:
        """Ship *record* from *source* to *host*, charging both meters."""
        src_archive = self.archives[source]
        host_archive = self.archives[host]
        payload = record.stored_bytes()
        hops = self._hops(source, host)
        # Program the host copy first, then release the source pages — the
        # segment is never without a home.
        host_pages = host_archive.flash.write(payload)
        src_archive.flash.free(record.pages)
        record.pages = host_pages
        record.hosted_by = host
        # Relay costs over intermediate hops are folded into the source's
        # transmit charge; the host pays one delivery's receive cost.
        tx_j = transfer_energy(self.radio, payload) * hops
        rx_j = receive_transfer_energy(self.radio, payload)
        src_archive.flash.meter.record(
            "radio.offload_tx", transfer_energy(self.radio, payload), hops
        )
        host_archive.flash.meter.record("radio.offload_rx", rx_j)
        self.stats.segments_offloaded += 1
        self.stats.bytes_offloaded += payload
        self.stats.pages_offloaded += host_pages
        self.moves.append(
            OffloadMove(
                record_id=record.record_id,
                source=source,
                host=host,
                pages=host_pages,
                hops=hops,
                radio_j=tx_j + rx_j,
            )
        )

    # -- remote access -----------------------------------------------------

    def remote_read(self, archive: SensorArchive, record: ArchiveRecord) -> None:
        """Serve a proxy cache-miss pull of a hosted segment."""
        assert record.hosted_by is not None
        source = self._index_of[id(archive)]
        host = record.hosted_by
        host_archive = self.archives[host]
        hops = self._hops(source, host)
        payload = record.stored_bytes()
        host_archive.flash.read(payload)
        src_meter = archive.flash.meter
        host_meter = host_archive.flash.meter
        src_meter.record("radio.offload_tx", transfer_energy(self.radio, REQUEST_BYTES), hops)
        host_meter.record("radio.offload_rx", receive_transfer_energy(self.radio, REQUEST_BYTES))
        host_meter.record("radio.offload_tx", transfer_energy(self.radio, payload), hops)
        src_meter.record("radio.offload_rx", receive_transfer_energy(self.radio, payload))
        self.stats.remote_reads += 1

    def release(self, archive: SensorArchive, record: ArchiveRecord) -> None:
        """Free a hosted record's pages on its host device (eviction path)."""
        assert record.hosted_by is not None
        del archive  # the source archive keeps the index entry bookkeeping
        self.archives[record.hosted_by].flash.free(record.pages)
