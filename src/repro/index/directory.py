"""Replicated cache directory.

Section 5's last concern: wireless (802.11 mesh) proxies have worse
bandwidth and availability than wired ones, so "caches and prediction models
at the wireless proxies may need to be further replicated at the wired
proxies to enable low-latency query responses."  The directory tracks which
proxy caches which sensors, marks proxies wired/wireless with a nominal
response latency, chooses replication targets for wireless proxies, and
answers "who should serve this query" with the lowest-latency live replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ProxyDescriptor:
    """Directory record for one proxy."""

    name: str
    wired: bool
    response_latency_s: float
    alive: bool = True
    cached_sensors: set[int] = field(default_factory=set)
    replicas_of: set[str] = field(default_factory=set)  # proxies replicated here


class CacheDirectory:
    """Cluster-wide view of cache placement and replication."""

    def __init__(self) -> None:
        self._proxies: dict[str, ProxyDescriptor] = {}

    def register_proxy(
        self, name: str, wired: bool, response_latency_s: float
    ) -> ProxyDescriptor:
        """Add a proxy to the directory.

        A *dead* proxy may re-register under its own name (a replacement node
        taking over the identity): the stale descriptor is dropped, along
        with any replica placements other proxies held for it, and a fresh
        record starts with an empty cache.  Registering a name that is still
        alive raises.
        """
        existing = self._proxies.get(name)
        if existing is not None:
            if existing.alive:
                raise ValueError(f"duplicate proxy {name!r}")
            self._forget(name)
        descriptor = ProxyDescriptor(
            name=name, wired=wired, response_latency_s=response_latency_s
        )
        self._proxies[name] = descriptor
        return descriptor

    def _forget(self, name: str) -> None:
        """Drop a descriptor and every replica placement referencing it."""
        del self._proxies[name]
        for descriptor in self._proxies.values():
            descriptor.replicas_of.discard(name)

    def publish_cache(self, proxy: str, sensors: set[int]) -> None:
        """Declare that *proxy* caches *sensors*."""
        self._proxies[proxy].cached_sensors |= set(sensors)

    @staticmethod
    def _spread_hosts(
        wired: list[ProxyDescriptor], count: int
    ) -> list[ProxyDescriptor]:
        """Pick up to *count* DISTINCT wired hosts by (load, latency).

        One host at a time, never the same host twice: a host that already
        carries one of an owner's slots must not be chosen again before
        every other host holds one (stacking slots on one host collapses
        their failure-independence).  Runs out of hosts early when the
        wired pool is smaller than *count* (scarce-wired deployments)
        instead of padding with duplicates.
        """
        chosen: list[ProxyDescriptor] = []
        taken: set[str] = set()
        for _ in range(count):
            remaining = [w for w in wired if w.name not in taken]
            if not remaining:
                break
            best = min(
                remaining,
                key=lambda w: (len(w.replicas_of), w.response_latency_s),
            )
            chosen.append(best)
            taken.add(best.name)
        return chosen

    def plan_fragment_placement(self, k: int, n: int) -> dict[str, list[str]]:
        """Place each wireless owner's replica slots on live wired hosts.

        Every sync generation of an owner is a k-of-n erasure-coded stripe;
        the plan is ``{wireless_proxy: [host_of_fragment_0, ...]}`` — entry
        i is the wired host storing fragment i.  Whole-copy replication
        with factor r is the ``(1, r)`` code, and ``n = 0`` replicates
        nothing (every owner gets an empty slot list).

        Hosts are the lowest-latency live wired proxies, spreading load by
        current placement count, and stay distinct while the pool allows
        (see :meth:`_spread_hosts`).  With fewer than n hosts a k > 1
        stripe wraps round-robin, so no host takes a second fragment
        before every host holds one; a k = 1 stripe stops at one slot per
        host instead — each fragment already is the whole payload, so a
        second one on the same host buys no survivability.  Placements are
        recorded in ``replicas_of``, which is what
        :meth:`serving_candidates` / :meth:`best_server` resolve failover
        against.
        """
        if k < 1 or (n != 0 and n < k):
            raise ValueError(
                f"need 1 <= k <= n, or n = 0 for no replication; got k={k}, n={n}"
            )
        wired = [p for p in self._proxies.values() if p.wired and p.alive]
        plan: dict[str, list[str]] = {}
        for proxy in self._proxies.values():
            if proxy.wired or not proxy.alive:
                continue
            hosts = self._spread_hosts(wired, n)
            for target in hosts:
                target.replicas_of.add(proxy.name)
            if k > 1 and hosts:
                hosts = [hosts[i % len(hosts)] for i in range(n)]
            plan[proxy.name] = [target.name for target in hosts]
        return plan

    def serving_candidates(self, sensor: int) -> list[ProxyDescriptor]:
        """Live proxies able to answer for *sensor*, best latency first.

        A proxy qualifies if it caches the sensor directly or replicates a
        proxy that does.
        """
        owners = {
            p.name for p in self._proxies.values() if sensor in p.cached_sensors
        }
        candidates = []
        for proxy in self._proxies.values():
            if not proxy.alive:
                continue
            if proxy.name in owners or proxy.replicas_of & owners:
                candidates.append(proxy)
        candidates.sort(key=lambda p: p.response_latency_s)
        return candidates

    def best_server(self, sensor: int) -> ProxyDescriptor | None:
        """Lowest-latency live server for *sensor*, or None."""
        candidates = self.serving_candidates(sensor)
        return candidates[0] if candidates else None

    def mark_down(self, proxy: str) -> None:
        """Take a proxy offline (availability experiments)."""
        self._proxies[proxy].alive = False

    def mark_up(self, proxy: str) -> None:
        """Bring a proxy back."""
        self._proxies[proxy].alive = True

    def proxy(self, name: str) -> ProxyDescriptor:
        """Lookup by name."""
        return self._proxies[name]

    @property
    def proxies(self) -> list[ProxyDescriptor]:
        """All descriptors, registration order."""
        return list(self._proxies.values())
