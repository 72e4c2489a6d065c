"""Per-node energy accounting.

Every sensor and proxy in the simulation owns an :class:`EnergyMeter`;
substrates charge it under named categories (``radio.tx``, ``flash.write``,
``cpu.model_check``...).  Benchmarks then read category breakdowns to produce
the paper's plots, and tests assert invariants such as "radio dominates" or
"batching reduces per-packet overhead".
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


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

    def charge(self, category: str, joules: float) -> None:
        """Add *joules* under *category*.  Negative charges are rejected."""
        if joules < 0:
            raise ValueError(f"negative energy charge {joules!r} for {category!r}")
        self._categories[category] += joules

    @property
    def total_j(self) -> float:
        """Total joules charged so far."""
        return sum(self._categories.values())

    def category_j(self, category: str) -> float:
        """Joules charged under exactly *category* (0.0 if never charged)."""
        return self._categories.get(category, 0.0)

    def group_j(self, prefix: str) -> float:
        """Joules charged under *prefix* and any dotted subcategory of it."""
        return self.snapshot().group(prefix)

    def snapshot(self) -> EnergyBreakdown:
        """Copy out the current breakdown."""
        return EnergyBreakdown(total_j=self.total_j, by_category=dict(self._categories))

    def merge(self, other: "EnergyMeter") -> None:
        """Fold *other*'s charges into this meter (fleet-level totals)."""
        for category, joules in other._categories.items():
            self._categories[category] += joules
