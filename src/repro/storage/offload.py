"""Collaborative storage offload between neighbouring sensors.

When a sensor's flash fills, PRESTO's seed behaviour is purely local:
wavelet aging degrades old segments in place and finally evicts them.
The collaborative-storage literature (Tilak et al., *Collaborative Storage
Management in Sensor Networks*) points at the better move — ship
low-value segments to an under-utilised neighbour's flash instead of
destroying information locally.  This module implements that as a
per-cell :class:`OffloadCoordinator` with two planners:

``greedy_offload``
    Offload the lowest-value local segment to the least-utilised in-range
    neighbour that can host it without giving up room it could still use
    for a whole segment of its own.

``mcf_offload``
    Greedy cheapest-arc assignment: gather the lowest-value segments from
    every storage-pressured archive in the cell and assign them
    network-wide to storage-rich hosts, taking (segment, host) arcs
    cheapest first — radio joules per page over hop distance — and keeping
    each one that still fits.  Despite the name this is not a min-cost
    flow: with unsplittable segments and host capacities the problem is a
    generalized assignment problem, and greedy never reroutes an earlier
    choice the way successive shortest paths would (two segments and two
    one-slot hosts can cost 11 greedily against an optimum of 3.5;
    ROADMAP.md, item 7).

*In range* means inside the hop window: on the cell's line of sensors,
the hosts of sensor *i* are ``i - MAX_OFFLOAD_HOPS … i + MAX_OFFLOAD_HOPS``
(clipped to the cell, *i* itself excluded), so planning costs what the
neighbourhood holds, not what the cell holds.

Segment *value* combines age (old data is cheap), resolution (aged
summaries are cheap) and event proximity (bursty segments are precious) —
see :func:`segment_value`.  Event proximity depends on the stored payload
alone, so each :class:`~repro.storage.archive.ArchiveRecord` computes it
once per payload it stores.  All radio energy is charged to the
participating nodes' :class:`~repro.energy.meter.EnergyMeter`\\ s through
the same per-packet arithmetic the MAC uses, and hosted segments remain
indexed by their *source* archive so proxy cache-miss pulls resolve
transparently (paying the remote-read radio cost).
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.energy.constants import RadioConstants
from repro.energy.radio_energy import packets_for_payload, receive_energy, transfer_energy
from repro.signal.multires import age_once, summarize
from repro.storage.archive import ArchiveRecord, SensorArchive

#: storage policies selectable per run; index+1 is the sweep-axis code
STORAGE_POLICIES = ("local_aging", "greedy_offload", "mcf_offload")

#: bytes of an offload-pull request frame (segment id + span, like a push header)
REQUEST_BYTES = 12

#: neighbours further than this many hops are out of offload range
MAX_OFFLOAD_HOPS = 3

#: lowest-value segments each pressured archive contributes to one MCF round
MCF_BATCH_PER_ARCHIVE = 4

#: value-model weights: age decay, resolution, event proximity
AGE_WEIGHT = 0.25
RESOLUTION_WEIGHT = 0.35
ACTIVITY_WEIGHT = 0.40


def segment_value(record: ArchiveRecord, now_s: float) -> float:
    """Retention priority of one archived segment, in [0, 1].

    Three terms, per the priority-based data-preservation exemplars:

    - **age**: recent data is more likely to be queried; the term decays
      hyperbolically with hours since the segment ended.
    - **resolution**: a full-resolution segment is worth more than the
      same span already coarsened to level *k* (``2**-k``).
    - **event proximity**: segments whose readings deviate sharply from
      their own mean likely contain an event and must be kept crisp
      (``record.activity``, the peak deviation of the stored payload).

    Lowest-value segments are offloaded (or aged) first.
    """
    age_s = max(now_s - record.end_time, 0.0)
    age_term = 1.0 / (1.0 + age_s / 3600.0)
    resolution_term = 2.0 ** (-record.level)
    activity_term = record.activity / (1.0 + record.activity)
    return (
        AGE_WEIGHT * age_term
        + RESOLUTION_WEIGHT * resolution_term
        + ACTIVITY_WEIGHT * activity_term
    )


def receive_transfer_energy(radio: RadioConstants, payload_bytes: int) -> float:
    """Receiver-side joules to take delivery of *payload_bytes*.

    Mirrors :func:`~repro.energy.radio_energy.transfer_energy`'s MTU
    fragmentation so sender and receiver agree on the frame count.
    """
    count = packets_for_payload(radio, payload_bytes)
    remaining = payload_bytes
    energy = 0.0
    for _ in range(count):
        chunk = min(remaining, radio.max_payload_bytes)
        energy += receive_energy(radio, chunk)
        remaining -= chunk
    return energy


@dataclass
class OffloadStats:
    """Counters for one coordinator (folded into ``SystemReport``)."""

    segments_offloaded: int = 0
    bytes_offloaded: int = 0
    pages_offloaded: int = 0
    remote_reads: int = 0
    hosted_coarsenings: int = 0


@dataclass(frozen=True)
class OffloadMove:
    """Bookkeeping for one executed segment move (for tests/benchmarks)."""

    record_id: int
    source: int
    host: int
    pages: int
    hops: int
    radio_j: float


class OffloadCoordinator:
    """Plans and executes segment moves between a cell's sensor archives.

    Sensors register in cell-local id order; hop distance between sensors
    *i* and *j* is ``|i - j|`` (a line topology, the same neighbourhood
    abstraction the radio layer's in-cell links use), and a sensor's
    candidate hosts are its hop window, visited in ascending index order.
    Each host keeps a registry of the guests on its flash, filled by
    :meth:`_move` and emptied by :meth:`release`.  The coordinator is
    fully deterministic: candidate and host orderings are total
    (value/utilisation, then record id, then sensor index) and no clock or
    RNG is consulted.
    """

    def __init__(self, policy: str, radio: RadioConstants, now_fn=None) -> None:
        if policy not in STORAGE_POLICIES or policy == "local_aging":
            raise ValueError(
                f"offload policy must be one of {STORAGE_POLICIES[1:]}, got {policy!r}"
            )
        self.policy = policy
        self.radio = radio
        self.now_fn = now_fn
        self.archives: list[SensorArchive] = []
        self._index_of: dict[int, int] = {}
        self.stats = OffloadStats()
        self.moves: list[OffloadMove] = []
        # per host: (owner index, record id) -> guest record on its flash
        self._guests: list[dict[tuple[int, int], ArchiveRecord]] = []
        # radio joules to move one flash page over h hops, indexed by h;
        # priced at the first registration (it needs the page size)
        self._page_cost_j: tuple[float, ...] = ()

    # -- registration ------------------------------------------------------

    def register(self, archive: SensorArchive) -> int:
        """Attach *archive* as the next node on the line; returns its index."""
        index = len(self.archives)
        self.archives.append(archive)
        self._index_of[id(archive)] = index
        self._guests.append({})
        if not self._page_cost_j:
            page_bytes = archive.flash.constants.page_bytes
            one_hop_page_j = transfer_energy(
                self.radio, page_bytes
            ) + receive_transfer_energy(self.radio, page_bytes)
            self._page_cost_j = tuple(
                hops * one_hop_page_j for hops in range(MAX_OFFLOAD_HOPS + 1)
            )
        archive.offload = self
        return index

    def _hops(self, a: int, b: int) -> int:
        return max(abs(a - b), 1)

    def _window(self, index: int) -> range:
        """Sensor indices within ``MAX_OFFLOAD_HOPS`` of *index* (itself included)."""
        return range(
            max(index - MAX_OFFLOAD_HOPS, 0),
            min(index + MAX_OFFLOAD_HOPS + 1, len(self.archives)),
        )

    def _now(self, source: SensorArchive) -> float:
        if self.now_fn is not None:
            return float(self.now_fn())
        newest = 0.0
        for record in source.records.values():
            newest = max(newest, record.end_time)
        return newest

    # -- planners ----------------------------------------------------------

    def make_room(self, archive: SensorArchive) -> bool:
        """Free local pages on *archive* by offloading; False when stuck.

        Called by :meth:`SensorArchive._write_with_aging` before the aging
        policy — offload preserves full resolution, aging does not.  A
        pressured archive that is itself hosting guests first degrades
        those in place (no radio, frees its own pages) before shipping its
        own segments away.
        """
        source = self._index_of[id(archive)]
        if self._coarsen_hosted(source):
            return True
        if self.policy == "mcf_offload":
            return self._mcf_make_room(source)
        return self._greedy_make_room(source)

    def _hosted_on(self, host: int) -> list[tuple[float, int, int, ArchiveRecord]]:
        """Guest records stored on *host*'s flash, lowest value first."""
        now = self._now(self.archives[host])
        return sorted(
            (segment_value(record, now), owner, record_id, record)
            for (owner, record_id), record in self._guests[host].items()
        )

    def _coarsen_hosted(self, host: int) -> bool:
        """Age the lowest-value guest segment on *host*'s flash in place.

        Owners' aging policies skip hosted segments (coarsening one frees
        the host's pages, not the owner's) — without this, guest pages
        would stay frozen at their offload-time resolution and wedge the
        host under its own pressure.  The summary is computed where the
        bytes live, so only host flash operations are charged; no radio.
        """
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
            record.age_to(summary)
            flash.free(record.pages)
            record.pages = flash.write(new_bytes)
            self.stats.hosted_coarsenings += 1
            return True
        return False

    def _local_candidates(self, index: int) -> Iterator[tuple[float, int, ArchiveRecord]]:
        """``(value, record id, record)`` of archive *index*'s locally stored records.

        Unordered; record ids are unique, so plain tuple order ranks them
        lowest value first without ever comparing two records.
        """
        archive = self.archives[index]
        now = self._now(archive)
        return (
            (segment_value(record, now), record.record_id, record)
            for record in archive.records.values()
            if record.hosted_by is None
        )

    def _host_can_take(self, host: int, pages: int) -> bool:
        """Whether *host* can store *pages* without robbing its own room.

        A host may give up free pages only when either (a) enough room for
        one of its own full segments remains afterwards, or (b) its free
        space was already too small for a full segment — dead slack that
        local writes could never use anyway.  The guard prevents offload
        ping-pong under uniform storage pressure.
        """
        flash = self.archives[host].flash
        if pages <= 0 or pages > flash.free_pages:
            return False
        own_segment_pages = flash.pages_for(
            self.archives[host].segment_readings * 8
        )
        remaining = flash.free_pages - pages
        return remaining >= own_segment_pages or flash.free_pages < own_segment_pages

    def _greedy_make_room(self, source: int) -> bool:
        for _value, _record_id, record in sorted(self._local_candidates(source)):
            pages = self.archives[source].flash.pages_for(record.stored_bytes())
            host = self._best_host(source, pages)
            if host is None:
                continue
            self._move(source, record, host)
            return True
        return False

    def _best_host(self, source: int, pages: int) -> int | None:
        """Least-utilised neighbour in *source*'s hop window able to host *pages*."""
        best: tuple[int, int, int] | None = None
        best_host = None
        for host in self._window(source):
            if host == source or not self._host_can_take(host, pages):
                continue
            key = (-self.archives[host].flash.free_pages, abs(host - source), host)
            if best is None or key < best:
                best = key
                best_host = host
        return best_host

    def _mcf_make_room(self, source: int) -> bool:
        """Network-wide greedy cheapest-arc assignment of pressured segments.

        Supplies are the ``MCF_BATCH_PER_ARCHIVE`` lowest-value local
        segments of every archive under storage pressure (the requesting
        archive always included); sinks are the free pages of each supply's
        hop window.  Arcs carry a per-page cost of radio joules over hop
        distance and are taken greedily, cheapest feasible arc first, whole
        segments at a time — an approximation, not an optimal assignment
        (see the module docstring).  ``(cost, value, src, record id,
        host)`` is unique, so the arcs sort in plain tuple order.
        """
        arcs: list[tuple[float, float, int, int, int, int, ArchiveRecord]] = []
        for src, archive in enumerate(self.archives):
            if src != source and archive.flash.free_pages != 0:
                continue  # not pressured
            supplies = heapq.nsmallest(MCF_BATCH_PER_ARCHIVE, self._local_candidates(src))
            for value, record_id, record in supplies:
                pages = archive.flash.pages_for(record.stored_bytes())
                for host in self._window(src):
                    if host != src:
                        cost = self._page_cost_j[abs(host - src)] * pages
                        arcs.append((cost, value, src, record_id, host, pages, record))
        arcs.sort()
        moved_from_source = False
        for _cost, _value, src, _record_id, host, pages, record in arcs:
            if record.hosted_by is not None:
                continue  # already placed via a cheaper arc this round
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
        self._guests[host][(source, record.record_id)] = record
        # Relay costs over intermediate hops are folded into the source's
        # transmit charge; the host pays one delivery's receive cost.
        tx_j = transfer_energy(self.radio, payload) * hops
        rx_j = receive_transfer_energy(self.radio, payload)
        src_archive.flash.meter.charge("radio.offload_tx", tx_j)
        host_archive.flash.meter.charge("radio.offload_rx", rx_j)
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
        """Serve a proxy cache-miss pull of a hosted segment.

        The source sends a request frame to the host, the host reads its
        flash and ships the payload back; both radios are charged.
        """
        assert record.hosted_by is not None
        source = self._index_of[id(archive)]
        host = record.hosted_by
        host_archive = self.archives[host]
        hops = self._hops(source, host)
        payload = record.stored_bytes()
        host_archive.flash.read(payload)
        src_meter = archive.flash.meter
        host_meter = host_archive.flash.meter
        src_meter.charge("radio.offload_tx", transfer_energy(self.radio, REQUEST_BYTES) * hops)
        host_meter.charge("radio.offload_rx", receive_transfer_energy(self.radio, REQUEST_BYTES))
        host_meter.charge("radio.offload_tx", transfer_energy(self.radio, payload) * hops)
        src_meter.charge("radio.offload_rx", receive_transfer_energy(self.radio, payload))
        self.stats.remote_reads += 1

    def release(self, archive: SensorArchive, record: ArchiveRecord) -> None:
        """Free an evicted hosted record's pages on its host device."""
        assert record.hosted_by is not None
        del self._guests[record.hosted_by][(self._index_of[id(archive)], record.record_id)]
        self.archives[record.hosted_by].flash.free(record.pages)


def fleet_fidelity(
    archives: list[SensorArchive],
    truth_values: np.ndarray,
    epoch_s: float,
) -> float:
    """Per-reading retention score of a fleet of archives vs ground truth.

    Every reading a sensor ever took scores in [0, 1]: still buffered or
    stored raw -> 1.0; stored aged -> ``max(0, 1 - |recon - truth| /
    per-sensor scale)``; dropped or evicted -> 0 (it simply no longer
    contributes).  ``archives[i]`` is scored against ``truth_values[i]``
    (one row per sensor, one column per epoch).  Returns the fleet mean
    over all readings, 1.0 when nothing was ever read.
    """
    truth = np.asarray(truth_values, dtype=np.float64)
    n_epochs = truth.shape[1] if truth.ndim == 2 else 0
    total = 0
    score = 0.0
    for position, archive in enumerate(archives):
        row = truth[position] if n_epochs else np.zeros(0)
        scale = float(np.nanstd(row)) if row.size else 0.0
        if not np.isfinite(scale) or scale < 1e-9:
            scale = 1.0
        buffered = archive.buffered_readings
        total += archive.readings_archived + archive.readings_dropped + buffered
        score += float(buffered)
        for record in archive.records.values():
            if record.raw is not None:
                score += float(record.n_readings)
                continue
            if not n_epochs:
                score += float(record.n_readings)
                continue
            values = record.values()
            epochs = np.clip(
                np.rint(record.timestamps() / epoch_s).astype(int), 0, n_epochs - 1
            )
            sensor_truth = row[epochs]
            error = np.abs(values - sensor_truth) / scale
            per_reading = 1.0 - np.minimum(error, 1.0)
            per_reading = np.where(np.isnan(sensor_truth), 1.0, per_reading)
            score += float(per_reading.sum())
    return score / total if total else 1.0


# Re-export for callers that only need the field type.
__all__ = [
    "STORAGE_POLICIES",
    "OffloadCoordinator",
    "OffloadMove",
    "OffloadStats",
    "fleet_fidelity",
    "receive_transfer_energy",
    "segment_value",
]
