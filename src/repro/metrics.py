"""Report metrics, each declared once: merge rules on the fields, one summary.

A report dataclass states everything about a metric where the field is
declared.  A field whose records do not simply add carries its merge rule
in ``dataclasses.field`` metadata (:func:`merged`); an ``int`` counter
adds by default.  :func:`fold` merges partition or cell records by those
rules, and :meth:`Metrics.summary` flattens a report by its class's
``SUMMARY`` declaration.  Nothing else states how a metric merges or
which summary key it has.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import Field, field, fields
from typing import Any, TypeVar

T = TypeVar("T")

#: how a field's records combine: ``sum`` adds (in record order: the float
#: addition order is part of the seed-pinned output), ``max`` keeps the
#: largest, ``sensor_mean`` weights each record by its ``n_sensors``,
#: ``dict_sum`` adds dicts key by key, and ``given`` is never derived from
#: the records — the caller of :func:`fold` passes it
MERGE_RULES = ("sum", "max", "sensor_mean", "dict_sum", "given")


def merged(rule: str, **kwargs: Any) -> Any:
    """A dataclass field whose records combine by *rule* (see :data:`MERGE_RULES`)."""
    if rule not in MERGE_RULES:
        raise ValueError(f"unknown merge rule {rule!r}; have {MERGE_RULES}")
    return field(metadata={"merge": rule}, **kwargs)


def merge_rule(f: Field) -> str:
    """*f*'s declared rule; an undeclared ``int`` counter adds."""
    if "merge" in f.metadata:
        return f.metadata["merge"]
    if f.type in (int, "int"):
        return "sum"
    raise TypeError(f"field {f.name!r} ({f.type}) declares no merge rule")


def fold(cls: type[T], records: Sequence[Any], **given: Any) -> T:
    """Merge same-class dataclass *records* into one *cls* by its fields' rules.

    *given* supplies every ``given`` field and may override any other;
    whatever *cls* has beyond the records' fields must be given too.
    """
    values = dict(given)
    for f in fields(cls):
        if f.name in given:
            continue
        rule = merge_rule(f)
        if rule == "given" or not hasattr(records[0], f.name):
            raise TypeError(f"{cls.__name__}.{f.name} is not derived from records; pass it")
        column = [getattr(record, f.name) for record in records]
        if rule == "sum":
            values[f.name] = sum(column)
        elif rule == "max":
            values[f.name] = max(column)
        elif rule == "sensor_mean":
            weights = [record.n_sensors for record in records]
            values[f.name] = sum(v * w for v, w in zip(column, weights)) / sum(weights)
        else:  # dict_sum: keys in first-seen order
            total: dict = {}
            for entry in column:
                for key, value in entry.items():
                    total[key] = total.get(key, 0.0) + value
            values[f.name] = total
    return cls(**values)


class Metrics:
    """A report flattened by its ``SUMMARY`` declaration.

    ``SUMMARY`` lists the summary's entries in order, and a subclass
    extends its parent's tuple.  An entry is ``(key, attribute)`` or just
    an attribute name, which is then its own key.  An attribute is a field
    or a property, read as a float — except where *key* ends in ``_``: that
    attribute holds a nested :class:`Metrics` report (or ``None``, which
    contributes nothing) flattened under *key* as its prefix.
    """

    SUMMARY: tuple[str | tuple[str, str], ...] = ()

    def summary(self) -> dict[str, float]:
        """Flat ``{key: value}`` of every declared metric, in declaration order."""
        flat: dict[str, float] = {}
        for entry in self.SUMMARY:
            key, attribute = (entry, entry) if isinstance(entry, str) else entry
            value = getattr(self, attribute)
            if not key.endswith("_"):
                flat[key] = float(value)
            elif value is not None:
                flat.update((key + name, metric) for name, metric in value.summary().items())
        return flat
