"""Fragmented replica storage: the federation's one replica representation.

What one owner ships in one sync — one *generation*, its per-sensor
records in the :mod:`repro.coding.wire` layout — is padded to a multiple
of k, striped into a ``(k, L)`` byte matrix and encoded into n fragments,
one per planned host slot (``CacheDirectory.plan_fragment_placement``).
Whole-copy replication with factor r is the (k = 1, n = r) member of the
family: every fragment is the payload under an invertible byte map, and
it is encoded, held, reconstructed and counted like any other generation.

A generation is a delta against the owner's previous one, so generations
form *chains*: a keyframe (a delta with no base) and the deltas after it.
The store decides which generation is a keyframe: the owner's first, any
whose live host set differs from its predecessor's, and any after the
chain's deltas have outgrown its keyframe.  So every generation of a
chain lives on the same host slots, and a host keeps exactly one chain
per owner — the one since the newest keyframe it received — which bounds
its footprint by about twice a keyframe, not by the sync count.

Reconstruction for failover gathers the chains held on live hosts, folds
each that still has >= k distinct fragments (keyframe plus deltas, the
newest fold memoised per chain — the MDS decode is independent of
*which* k fragments are used) and merges the folded states oldest-first,
so the newest surviving state of every sensor wins.  Chains held but
fewer than k fragments of every one means the owner's replicated state
is irrecoverable; live hosts that hold nothing yet (a death before the
first sync) merely have nothing to answer from.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import compress

import numpy as np

from repro.coding.rs import rs_decode, rs_encode
from repro.coding.wire import SensorRecord, apply_delta, parse_payload, serialize_payload
from repro.metrics import Metrics, merged


def payload_matrix(payload: bytes, k: int) -> np.ndarray:
    """Stripe *payload* into a ``(k, L)`` byte matrix, zero-padded (read-only).

    Row ``i`` is the payload's ``i``-th run of ``L = ceil(len / k)`` bytes.
    The payload is copied only when its length needs padding.
    """
    width = -(-len(payload) // k) or 1     # ceil division; an empty payload still stripes
    return np.ndarray((k, width), np.uint8, payload.ljust(k * width, b"\0"))


@dataclass
class CodingCounters:
    """Per-run replica-sync byte/decode accounting.

    ``payload_bytes`` counts each owner's serialized generation once per
    sync; ``shipped_bytes`` is what actually crossed the backhaul (the
    fragments of live hosts); ``full_copy_bytes`` is the whole-copy cost
    at the same survivability — the ``payload x min(n - k + 1, live
    hosts)`` a replication factor of n - k + 1 would have shipped, which
    at k = 1 is the shipped bytes themselves.  ``decodes`` counts the
    generations decoded from held fragments and folded into their chain,
    ``irrecoverable`` the failover attempts that found fragments but
    fewer than k of every chain.
    """

    payload_bytes: int = 0
    shipped_bytes: int = 0
    full_copy_bytes: int = 0
    decodes: int = 0
    irrecoverable: int = 0


@dataclass(kw_only=True)
class CodingReport(CodingCounters, Metrics):
    """Replica-coding section of a :class:`FederatedReport`: the run's counters, priced.

    ``mode`` is the configured spelling, ``k``/``n`` the code it resolved
    to.  ``sync_radio_j`` / ``sync_flash_j`` charge the shipped bytes at
    the node profile's per-byte transmit and flash-write rates — with
    k > 1 fragment bytes replace whole-copy bytes in both, which is the
    whole bandwidth/flash argument for coding.
    """

    mode: str = merged("given")
    k: int = merged("given")
    n: int = merged("given")
    sync_radio_j: float = merged("given")
    sync_flash_j: float = merged("given")

    SUMMARY = (
        "shipped_bytes",
        "full_copy_bytes",
        "bytes_saved_fraction",
        "decodes",
        "irrecoverable",
        "sync_radio_j",
        "sync_flash_j",
    )

    @property
    def bytes_saved_fraction(self) -> float:
        """Fraction of the survivability-equivalent full-copy bytes saved."""
        if self.full_copy_bytes == 0:
            return float("nan")
        return 1.0 - self.shipped_bytes / self.full_copy_bytes


@dataclass
class _Chain:
    """One owner's keyframe and the deltas since, all on the same slots.

    ``keyframe`` is the keyframe's generation number, ``slots`` the live
    fragment indices every generation was shipped to and ``hosts`` the
    number of distinct hosts holding them.  Each entry of ``generations``
    is a payload length and that generation's fragments at ``slots``, in
    slot order; ``folded`` memoises the state after the first *count*
    generations.
    """

    keyframe: int
    slots: tuple[int, ...]
    hosts: int
    keyframe_bytes: int
    delta_bytes: int = 0
    generations: list[tuple[int, np.ndarray]] = field(default_factory=list)
    folded: tuple[int, dict[int, SensorRecord]] = field(default_factory=lambda: (0, {}))


@dataclass
class FragmentStore:
    """Per-owner fragment chains shared by a routing core's sync/failover.

    *assignment* maps each owner to its n fragment host slots (entry i
    hosts fragment i; hosts repeat only when the wired pool is smaller
    than n).  The store is deliberately directory-agnostic: callers pass
    a liveness predicate (a partition answers from its directory copy).
    """

    k: int
    n: int
    assignment: dict[str, list[str]]
    decodes: int = 0
    _newest: dict[str, _Chain] = field(default_factory=dict)
    _held: dict[tuple[str, str], _Chain] = field(default_factory=dict)

    def live_slots(self, owner: str, alive: Callable[[str], bool]) -> list[str]:
        """The owner's distinct live fragment hosts, slot order."""
        live: list[str] = []
        for host in self.assignment.get(owner, []):
            if host not in live and alive(host):
                live.append(host)
        return live

    def sync(
        self,
        owner: str,
        export: Callable[[bool], Sequence[SensorRecord]],
        alive: Callable[[str], bool],
    ) -> tuple[int, int, int]:
        """Export, encode and store one generation on the live hosts.

        ``export(keyframe)`` returns the owner's records: whole tails for
        a keyframe, else the delta against its previous generation.
        Returns ``(payload_bytes, shipped_bytes, live_host_count)``;
        ``(0, 0, 0)`` without exporting or consuming a generation when no
        assigned host is alive (nowhere to ship).
        """
        slots = self.assignment.get(owner, ())
        up = [*map(alive, slots)]
        live = tuple(compress(range(len(up)), up))
        if not live:
            return 0, 0, 0
        chain = self._newest.get(owner)
        keyframe = (
            chain is None or chain.slots != live or chain.delta_bytes > chain.keyframe_bytes
        )
        payload = serialize_payload(export(keyframe))
        size = len(payload)
        if keyframe:
            # generations number 1, 2, ... per owner; a chain holds a run of them
            generation = 1 if chain is None else chain.keyframe + len(chain.generations)
            hosts = dict.fromkeys(compress(slots, up))   # distinct, slot order
            chain = self._newest[owner] = _Chain(generation, live, len(hosts), size)
            for host in hosts:
                self._held[(owner, host)] = chain
        else:
            chain.delta_bytes += size
        fragments = rs_encode(payload_matrix(payload, self.k), self.n)
        if len(live) < self.n:
            fragments = fragments[list(live)]
        chain.generations.append((size, fragments))
        return size, fragments.size, chain.hosts

    def reconstruct(
        self, owner: str, alive: Callable[[str], bool]
    ) -> dict[int, SensorRecord] | None:
        """The owner's merged replica state from surviving fragments.

        Each decodable chain folds to its newest generation, and chains
        merge oldest-first, so a sensor's newest surviving state wins.
        Judged by what live hosts hold: empty when none of them holds a
        fragment of the owner (nothing synced to them yet); ``None`` when
        they hold some but no chain has >= k distinct ones — the stripe
        is lost.
        """
        slots = self.assignment.get(owner, [])
        chains: dict[int, tuple[_Chain, set[int]]] = {}
        for host in self.live_slots(owner, alive):
            chain = self._held.get((owner, host))
            if chain is None:
                continue
            _, indices = chains.setdefault(chain.keyframe, (chain, set()))
            indices.update(index for index in chain.slots if slots[index] == host)
        decodable = sorted(
            keyframe for keyframe, (_, indices) in chains.items() if len(indices) >= self.k
        )
        if chains and not decodable:
            return None
        merged: dict[int, SensorRecord] = {}
        for keyframe in decodable:
            merged.update(self._fold(*chains[keyframe]))
        return merged

    def _fold(self, chain: _Chain, indices: set[int]) -> dict[int, SensorRecord]:
        """*chain*'s newest state, folding what the memo lacks from *indices*."""
        count, state = chain.folded
        if count == len(chain.generations):
            return state
        chosen = sorted(indices)[: self.k]
        positions = [chain.slots.index(index) for index in chosen]
        for length, rows in chain.generations[count:]:
            data = rs_decode(rows[positions], self.k, chosen)
            state = apply_delta(state, parse_payload(data.reshape(-1)[:length].tobytes()))
            self.decodes += 1
        chain.folded = (len(chain.generations), state)
        return state
