"""Per-node energy accounting.

Every sensor and proxy in the simulation owns an :class:`EnergyMeter`;
substrates charge it under named categories (``radio.tx``, ``flash.write``,
``cpu.model_check``...).  Benchmarks then read category breakdowns to produce
the paper's plots, and tests assert invariants such as "radio dominates" or
"batching reduces per-packet overhead".

A category charged every epoch by the sensor fleet is *bound* to one of
the fleet's columns instead: the fleet adds to the column, and the meter
reads it whenever anything reads the meter.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class EnergyBreakdown:
    """Immutable snapshot of a meter, by category and by top-level group."""

    total_j: float
    by_category: dict[str, float]

    def group(self, prefix: str) -> float:
        """Sum of all categories whose name starts with ``prefix``.

        ``group("radio")`` matches ``radio.tx``, ``radio.rx``, ``radio.lpl``…
        """
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sum(
            joules
            for name, joules in self.by_category.items()
            if name == prefix or name.startswith(dotted)
        )


@dataclass
class EnergyMeter:
    """Accumulates joules under hierarchical category names."""

    name: str = "node"
    _categories: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    #: ``(category, column, row)``: categories whose joules live in a column
    _bound: list[tuple[str, np.ndarray, int]] = field(
        default_factory=list, repr=False, compare=False
    )

    def charge(self, category: str, joules: float) -> None:
        """Add *joules* under *category*.  Negative, NaN and infinite
        charges are rejected."""
        if not 0.0 <= joules < math.inf:
            raise ValueError(f"invalid energy charge {joules!r} for {category!r}")
        self._categories[category] += joules

    def bind(self, category: str, column: np.ndarray, row: int) -> None:
        """Read *category* from ``column[row]`` from now on.

        Call it at the category's first charge: the category takes its
        place in the charge order there, which :attr:`total_j` sums in.
        """
        self._categories.setdefault(category, 0.0)
        self._bound.append((category, column, row))

    def _read_bound(self) -> dict[str, float]:
        """The categories, bound ones read from their columns."""
        for category, column, row in self._bound:
            self._categories[category] = float(column[row])
        return self._categories

    @property
    def total_j(self) -> float:
        """Total joules charged so far."""
        return sum(self._read_bound().values())

    def category_j(self, category: str) -> float:
        """Joules charged under exactly *category* (0.0 if never charged)."""
        return self._read_bound().get(category, 0.0)

    def group_j(self, prefix: str) -> float:
        """Joules charged under *prefix* and any dotted subcategory of it."""
        return self.snapshot().group(prefix)

    def snapshot(self) -> EnergyBreakdown:
        """Copy out the current breakdown."""
        return EnergyBreakdown(total_j=self.total_j, by_category=dict(self._read_bound()))

    def merge(self, other: "EnergyMeter") -> None:
        """Fold *other*'s charges into this meter (fleet-level totals)."""
        categories = self._read_bound()
        for category, joules in other._read_bound().items():
            categories[category] += joules
