"""Fragmented replica storage: the federation's one replica representation.

The serialized hot snapshot one owner ships in one sync — one
*generation* — is padded to a multiple of k, striped into a ``(k, L)``
byte matrix and encoded into n fragments, one per planned host slot
(``CacheDirectory.plan_fragment_placement``).  Whole-copy replication
with factor r is the (k = 1, n = r) member of the family: every fragment
is the payload under an invertible byte map, and it is encoded, held,
reconstructed and counted like any other generation.  A host keeps only
its newest fragments per owner, so the store's footprint is bounded by
the host count, not the sync count.

Reconstruction for failover gathers the surviving fragments on live
hosts, decodes every generation that still has >= k distinct fragments
(memoised per generation — the MDS decode is independent of *which* k
fragments are used) and merges the decoded snapshot dicts oldest-first,
so the newest surviving state of every sensor wins.  Fragments held but
fewer than k of every generation means the owner's replicated state is
irrecoverable; live hosts that hold nothing yet (a death before the
first sync) merely have nothing to answer from.
"""

from __future__ import annotations

import pickle
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.coding.rs import rs_decode, rs_encode

#: pickle protocol pinned for deterministic payload sizing across runs
PAYLOAD_PICKLE_PROTOCOL = 4


def serialize_payload(snapshot: Any) -> bytes:
    """One sync generation's wire form (pinned pickle protocol)."""
    return pickle.dumps(snapshot, protocol=PAYLOAD_PICKLE_PROTOCOL)


def payload_matrix(payload: bytes, k: int) -> np.ndarray:
    """Stripe *payload* into a ``(k, L)`` byte matrix, zero-padded."""
    length = max(len(payload), 1)           # an empty payload still stripes
    width = -(-length // k)                 # ceil division
    buffer = np.zeros(k * width, dtype=np.uint8)
    buffer[: len(payload)] = np.frombuffer(payload, dtype=np.uint8)
    return buffer.reshape(k, width)


@dataclass
class CodingCounters:
    """Per-run replica-sync byte/decode accounting.

    ``payload_bytes`` counts each owner's serialized snapshot once per
    sync; ``shipped_bytes`` is what actually crossed the backhaul (the
    fragments of live hosts); ``full_copy_bytes`` is the whole-copy cost
    at the same survivability — the ``payload x min(n - k + 1, live
    hosts)`` a replication factor of n - k + 1 would have shipped, which
    at k = 1 is the shipped bytes themselves.  ``decodes`` counts the
    generations materialised from held fragments (decode-cache misses),
    ``irrecoverable`` the failover attempts that found fragments but
    fewer than k of every generation.
    """

    payload_bytes: int = 0
    shipped_bytes: int = 0
    full_copy_bytes: int = 0
    decodes: int = 0
    irrecoverable: int = 0


@dataclass(frozen=True)
class CodingReport:
    """Replica-coding section of a :class:`FederatedReport`.

    ``mode`` is the configured spelling, ``k``/``n`` the code it resolved
    to.  ``sync_radio_j`` / ``sync_flash_j`` charge the shipped bytes at
    the node profile's per-byte transmit and flash-write rates — with
    k > 1 fragment bytes replace whole-copy bytes in both, which is the
    whole bandwidth/flash argument for coding.
    """

    mode: str
    k: int
    n: int
    payload_bytes: int
    shipped_bytes: int
    full_copy_bytes: int
    decodes: int
    irrecoverable: int
    sync_radio_j: float
    sync_flash_j: float

    @property
    def bytes_saved_fraction(self) -> float:
        """Fraction of the survivability-equivalent full-copy bytes saved."""
        if self.full_copy_bytes == 0:
            return float("nan")
        return 1.0 - self.shipped_bytes / self.full_copy_bytes

    def summary(self) -> dict[str, float]:
        """Flat metrics for :meth:`FederatedReport.summary`."""
        return {
            "coding_shipped_bytes": float(self.shipped_bytes),
            "coding_full_copy_bytes": float(self.full_copy_bytes),
            "coding_bytes_saved_fraction": self.bytes_saved_fraction,
            "coding_decodes": float(self.decodes),
            "coding_irrecoverable": float(self.irrecoverable),
            "coding_sync_radio_j": self.sync_radio_j,
            "coding_sync_flash_j": self.sync_flash_j,
        }


@dataclass
class _HeldFragments:
    """What one host currently stores for one owner (its newest sync)."""

    generation: int
    fragments: tuple[tuple[int, bytes], ...]   # (fragment index, row bytes)


@dataclass
class FragmentStore:
    """Per-owner fragment state shared by a routing core's sync/failover.

    *assignment* maps each owner to its n fragment host slots (entry i
    hosts fragment i; hosts repeat only when the wired pool is smaller
    than n).  The store is deliberately directory-agnostic: callers pass
    a liveness predicate (a partition answers from its directory copy).
    """

    k: int
    n: int
    assignment: dict[str, list[str]]
    decodes: int = 0
    _generation: dict[str, int] = field(default_factory=dict)
    _lengths: dict[tuple[str, int], int] = field(default_factory=dict)
    _held: dict[tuple[str, str], _HeldFragments] = field(default_factory=dict)
    _decoded: dict[tuple[str, int], dict[int, Any]] = field(default_factory=dict)

    def live_slots(self, owner: str, alive: Callable[[str], bool]) -> list[str]:
        """The owner's distinct live fragment hosts, slot order."""
        live: list[str] = []
        for host in self.assignment.get(owner, []):
            if host not in live and alive(host):
                live.append(host)
        return live

    def sync(
        self, owner: str, payload: bytes, alive: Callable[[str], bool]
    ) -> tuple[int, int]:
        """Encode one generation and store fragments on live hosts.

        Returns ``(shipped_bytes, live_host_count)``; ``(0, 0)`` without
        consuming a generation when no assigned host is alive (nowhere to
        ship).
        """
        slots = self.assignment.get(owner, [])
        live = [(i, host) for i, host in enumerate(slots) if alive(host)]
        if not live:
            return 0, 0
        generation = self._generation.get(owner, 0) + 1
        self._generation[owner] = generation
        fragments = rs_encode(payload_matrix(payload, self.k), self.n)
        self._lengths[(owner, generation)] = len(payload)
        fragment_bytes = fragments.shape[1]
        by_host: dict[str, list[tuple[int, bytes]]] = {}
        for index, host in live:
            by_host.setdefault(host, []).append((index, fragments[index].tobytes()))
        shipped = 0
        for host, rows in by_host.items():
            self._held[(owner, host)] = _HeldFragments(generation, tuple(rows))
            shipped += fragment_bytes * len(rows)
        self._prune(owner)
        return shipped, len(by_host)

    def _prune(self, owner: str) -> None:
        """Drop decode caches/lengths of generations no host still holds."""
        held_generations = {
            held.generation
            for (held_owner, _), held in self._held.items()
            if held_owner == owner
        }
        for table in (self._lengths, self._decoded):
            stale = [
                key
                for key in table
                if key[0] == owner and key[1] not in held_generations
            ]
            for key in stale:
                del table[key]

    def reconstruct(
        self, owner: str, alive: Callable[[str], bool]
    ) -> dict[int, Any] | None:
        """The owner's merged replica state from surviving fragments.

        Decodable generations merge oldest-first, so a sensor's newest
        surviving state wins.  Judged by what live hosts hold: empty when
        none of them holds a fragment of the owner (nothing synced to them
        yet); ``None`` when they hold some but no generation has >= k
        distinct ones — the stripe is lost.
        """
        by_generation: dict[int, dict[int, bytes]] = {}
        for host in self.live_slots(owner, alive):
            held = self._held.get((owner, host))
            if held is None:
                continue
            rows = by_generation.setdefault(held.generation, {})
            for index, blob in held.fragments:
                rows[index] = blob
        decodable = sorted(
            generation
            for generation, rows in by_generation.items()
            if len(rows) >= self.k
        )
        if by_generation and not decodable:
            return None
        merged: dict[int, Any] = {}
        for generation in decodable:
            merged.update(self._decode(owner, generation, by_generation[generation]))
        return merged

    def _decode(
        self, owner: str, generation: int, rows: dict[int, bytes]
    ) -> dict[int, Any]:
        cached = self._decoded.get((owner, generation))
        if cached is not None:
            return cached
        indices = sorted(rows)[: self.k]
        stacked = np.stack(
            [np.frombuffer(rows[index], dtype=np.uint8) for index in indices]
        )
        data = rs_decode(stacked, self.k, indices)
        length = self._lengths[(owner, generation)]
        payload = data.reshape(-1)[:length].tobytes()
        decoded: dict[int, Any] = pickle.loads(payload)
        self._decoded[(owner, generation)] = decoded
        self.decodes += 1
        return decoded
