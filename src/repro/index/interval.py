"""Interval → proxy routing index.

An interval index maps a key to the proxy responsible for the queried
sensor (or spatial region).  Responsibilities are contiguous key intervals
(sensor-id ranges here; the scheme is agnostic), stored in a skip graph so
routing inherits its O(log n) hop bound and order preservation.  Overlapping
assignments are allowed — Section 5 explicitly wants "multiple proxies ...
responsible for a group of sensor nodes for redundancy" — and lookups return
every responsible proxy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.index.skipgraph import SkipGraph


@dataclass(frozen=True)
class IntervalAssignment:
    """One proxy's responsibility interval ``[low, high]`` (inclusive)."""

    proxy: str
    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise ValueError(f"invalid interval [{self.low}, {self.high}]")

    def contains(self, key: float) -> bool:
        """Whether *key* falls in the interval."""
        return self.low <= key <= self.high


class IntervalIndex:
    """Skip-graph-backed mapping from keys to responsible proxies."""

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        self._graph = SkipGraph(rng=rng)
        self._assignments: list[IntervalAssignment] = []

    def assign(self, proxy: str, low: float, high: float) -> IntervalAssignment:
        """Declare *proxy* responsible for ``[low, high]``."""
        assignment = IntervalAssignment(proxy=proxy, low=low, high=high)
        self._graph.insert(low, assignment)
        self._assignments.append(assignment)
        return assignment

    def lookup(self, key: float) -> list[IntervalAssignment]:
        """Every assignment covering *key* (redundant proxies included).

        Routes through the skip graph to the floor of *key*, then walks left
        while intervals could still cover it.
        """
        result = self._graph.search(key)
        node = result.node
        found: list[IntervalAssignment] = []
        while node is not None:
            assignment: IntervalAssignment = node.value
            if assignment.contains(key):
                found.append(assignment)
            node = node.neighbors[0][0]
        # Preserve registration order for deterministic primary selection.
        found.sort(key=lambda a: self._assignments.index(a))
        return found

    def primary(self, key: float) -> IntervalAssignment | None:
        """First responsible proxy (registration order), or None."""
        covering = self.lookup(key)
        return covering[0] if covering else None

    @property
    def mean_routing_hops(self) -> float:
        """Average skip-graph hops per lookup so far."""
        return self._graph.mean_search_hops
