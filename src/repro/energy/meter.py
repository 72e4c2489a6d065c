"""Per-node energy accounting as counts × constants.

Every sensor and proxy in the simulation owns an :class:`EnergyMeter`.
Almost every cost on a node is a count times a per-unit constant — frames
× joules per frame, pages × joules per page, readings or checks × joules
per CPU job — so substrates :meth:`~EnergyMeter.record` quantities under a
named category (``radio.tx``, ``flash.write``, ``cpu.model_check``...) and
the unit constant they are counted against.  Low-power-listening idle time
is the one continuous quantity: seconds against an average power.

A substrate that keeps its counts anyway is a *counted source* instead: a
function listed in :attr:`EnergyMeter.counted` that yields ``(category,
joules per unit, units)`` whenever the meter is read.  The sensor fleet's
readings and checks are one per sensor; every radio link
(:class:`~repro.radio.link.LossyLink`) is one on each of its two endpoints'
meters — its attempts, ACKs and receptions per frame shape — so a frame
sent costs the link two counter bumps and no write here.  Every read sees
the meter's own quantities and every source's, :meth:`~EnergyMeter.since`
included (a pull's energy is mostly link frames).

Joules are worked out only when the meter is read, summed in one fixed
order — category name, then unit — so no caller's charge order, and no
split between recorded and counted quantities, can change a total.
Benchmarks read category breakdowns to produce the paper's plots, and
tests assert invariants such as "radio dominates" or "batching reduces
per-packet overhead".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Callable, Iterable

#: one counted quantity: ``(category, joules per unit, units)``
Count = tuple[str, float, float]


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
    """Quantities per category and unit joules; joules derived when read."""

    name: str = "node"
    #: category -> {joules per unit: units}
    _quantities: dict[str, dict[float, float]] = field(default_factory=dict)
    #: counted sources: counts kept outside the meter, read with its own
    #: at every read
    counted: list[Callable[[], Iterable[Count]]] = field(
        default_factory=list, repr=False, compare=False
    )

    def record(self, category: str, unit_j: float, quantity: float = 1) -> None:
        """Add *quantity* units of *unit_j* joules each under *category*.
        Negative, NaN and infinite units or quantities are rejected."""
        if not (0.0 <= unit_j < inf and 0 <= quantity < inf):
            raise ValueError(
                f"invalid energy record {quantity!r} × {unit_j!r} J for {category!r}"
            )
        units = self._quantities.get(category)
        if units is None:
            units = self._quantities[category] = {}
        units[unit_j] = units.get(unit_j, 0) + quantity

    def since(self) -> Callable[[], float]:
        """A function giving the joules of the quantities recorded or
        counted after this call, summed in the meter's order.

        Each side reads the meter's own quantities and every counted
        source once, as lists of counts; a list that reads the same on both
        sides moved nothing and is skipped whole.  Only the terms that
        moved are summed: one that did not adds 0.0, which leaves the
        ordered sum bit-identical.  (Sources count whole units, so a
        quantity's moves add up exactly across the lists that hold it.)"""
        before = self._reads()

        def spent() -> float:
            moved: dict[tuple[str, float], float] = {}
            for then, now in zip(before, self._reads()):
                if now == then:
                    continue
                for sign, counts in ((1, now), (-1, then)):
                    for category, unit_j, quantity in counts:
                        key = (category, unit_j)
                        moved[key] = moved.get(key, 0) + sign * quantity
            by_category: dict[str, dict[float, float]] = {}
            for (category, unit_j), difference in moved.items():
                if difference:
                    by_category.setdefault(category, {})[unit_j] = difference
            return sum(
                (
                    sum((units[unit_j] * unit_j for unit_j in sorted(units)), 0.0)
                    for _, units in sorted(by_category.items())
                ),
                0.0,
            )

        return spent

    def _reads(self) -> list[list[Count]]:
        """The meter's own quantities, then each counted source's counts."""
        own = [
            (category, unit_j, quantity)
            for category, units in self._quantities.items()
            for unit_j, quantity in units.items()
        ]
        return [own, *(list(source()) for source in self.counted)]

    def _all_quantities(self) -> dict[str, dict[float, float]]:
        """The meter's quantities with every counted source's added."""
        if not self.counted:
            return self._quantities
        combined = {category: dict(units) for category, units in self._quantities.items()}
        for source in self.counted:
            for category, unit_j, quantity in source():
                units = combined.setdefault(category, {})
                units[unit_j] = units.get(unit_j, 0) + quantity
        return combined

    def _joules(self) -> dict[str, float]:
        """Joules per category, in category-name order; each category sums
        its units in ascending order."""
        quantities = self._all_quantities()
        joules: dict[str, float] = {}
        for category in sorted(quantities):
            units, total = quantities[category], 0.0
            for unit_j in sorted(units):
                total += units[unit_j] * unit_j
            joules[category] = total
        return joules

    @property
    def total_j(self) -> float:
        """Total joules recorded so far."""
        return sum(self._joules().values())

    def category_j(self, category: str) -> float:
        """Joules recorded under exactly *category* (0.0 if never recorded)."""
        return self._joules().get(category, 0.0)

    def group_j(self, prefix: str) -> float:
        """Joules recorded under *prefix* and any dotted subcategory of it."""
        return self.snapshot().group(prefix)

    def snapshot(self) -> EnergyBreakdown:
        """Copy out the current breakdown."""
        joules = self._joules()
        return EnergyBreakdown(total_j=sum(joules.values()), by_category=joules)

    def merge(self, other: "EnergyMeter") -> None:
        """Fold *other*'s quantities into this meter (fleet-level totals)."""
        for category, units in other._all_quantities().items():
            for unit_j, quantity in units.items():
                self.record(category, unit_j, quantity)
