"""Query answers and their provenance.

Queries themselves are defined in :mod:`repro.traces.workload` (they are
workload artefacts); this module defines what comes back — the answer, the
error bound the proxy believed, where the data came from, and what the
answer cost in latency and sensor energy.  Provenance is central to the
paper's evaluation story: the architecture wins when most answers come from
``CACHE`` or ``PREDICTION`` instead of ``SENSOR_PULL``.

It is also the one place an answer log is scored: :func:`ground_truths` is
what every architecture's answers are compared against, and
:class:`ScoredAnswers` — the base of PRESTO's ``SystemReport`` and the
baselines' ``BaselineReport`` — holds the one definition of "answered
within precision and latency", so Table 1's rows share their columns.
"""

from __future__ import annotations

import enum
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from repro.core.cache import aggregate
from repro.metrics import merged
from repro.traces.intel_lab import TraceSet
from repro.traces.workload import Query, QueryKind

#: the PAST column of Table 1 (its NOW column is ``QueryKind.NOW`` alone)
PAST_KINDS = (QueryKind.PAST_POINT, QueryKind.PAST_RANGE, QueryKind.PAST_AGG)


class AnswerSource(enum.Enum):
    """Where a query answer was produced."""

    CACHE = "cache"                    # cached actual data (pushed or pulled)
    PREDICTION = "prediction"          # temporal model extrapolation
    SPATIAL = "spatial"                # conditioned on neighbouring sensors
    SENSOR_PULL = "sensor_pull"        # fetched from the sensor archive
    FAILED = "failed"                  # could not answer within bounds


class QueryAnswer(NamedTuple):
    """Outcome of one query against a PRESTO cell or baseline.

    Immutable and built once per query: a named tuple, which constructs
    several times faster than a frozen dataclass and reads the same.
    """

    query: Query
    value: float | None
    source: AnswerSource
    latency_s: float
    believed_std: float = 0.0      # proxy's own error estimate
    sensor_energy_j: float = 0.0   # marginal sensor-side energy this query caused
    pulled_bytes: int = 0

    @property
    def answered(self) -> bool:
        """Whether any value was produced."""
        return self.value is not None and self.source is not AnswerSource.FAILED

    @property
    def met_latency(self) -> bool:
        """Whether the latency bound was met."""
        return self.latency_s <= self.query.latency_bound_s

    def error_against(self, truth: float) -> float | None:
        """Absolute error against ground truth (None if unanswered)."""
        if self.value is None:
            return None
        return abs(self.value - truth)

    def succeeded_against(self, truth: float | None) -> bool:
        """Answered within both the latency and the precision bound.

        An answer with no ground truth to compare against (*truth* is
        ``None``: the trace dropped that reading) is judged on latency alone.
        """
        if not self.answered or not self.met_latency:
            return False
        return truth is None or not self.error_against(truth) > self.query.precision


def ground_truth(trace: TraceSet, query: Query) -> float | None:
    """Ground-truth answer for one *query* against *trace* (see :func:`ground_truths`)."""
    return ground_truths(trace, [query])[0]


def ground_truths(trace: TraceSet, queries: Sequence[Query]) -> list[float | None]:
    """Ground-truth answers for a whole log of *queries* against *trace*.

    A point query (NOW at its arrival, PAST_POINT at its target, clipped to
    the trace's last timestamp) reads the epoch containing that instant; all
    of them are located by one ``searchsorted`` and read by one fancy index.
    A window query aggregates the readings with ``target <= t <= target +
    window`` that the trace did not drop; all window bounds are located by
    one ``searchsorted`` per side.  ``None`` where there is nothing to
    compare against: a dropped reading, an empty window, or a sensor the
    trace does not have.  The log is classified as columns, not query by
    query.
    """
    n = len(queries)
    truths: list[float | None] = [None] * n
    if not queries:
        return truths

    def column(name: str, dtype: type) -> np.ndarray:
        return np.fromiter(map(operator.attrgetter(name), queries), dtype, n)

    kinds = list(map(operator.attrgetter("kind"), queries))
    now = np.fromiter(map(operator.is_, kinds, repeat(QueryKind.NOW)), bool, n)
    point = now | np.fromiter(map(operator.is_, kinds, repeat(QueryKind.PAST_POINT)), bool, n)
    sensors = column("sensor", np.int64)
    known = (sensors >= 0) & (sensors < trace.n_sensors)
    targets = column("target_time", np.float64)
    timestamps = trace.timestamps
    points = np.flatnonzero(known & point)
    if points.size:
        instants = np.where(now, column("arrival_time", np.float64), targets)[points]
        clipped = np.minimum(instants, timestamps[-1])
        epochs = np.searchsorted(timestamps, clipped, side="right") - 1
        np.clip(epochs, 0, trace.n_epochs - 1, out=epochs)
        for i, value in zip(points.tolist(), trace.values[sensors[points], epochs].tolist()):
            truths[i] = None if value != value else value  # NaN: a dropped reading
    windows = np.flatnonzero(known & ~point).tolist()
    if windows:
        starts = targets[windows]
        ends = starts + np.array([queries[i].window_s for i in windows])
        lows = np.searchsorted(timestamps, starts, side="left").tolist()
        highs = np.searchsorted(timestamps, ends, side="right").tolist()
        for i, low, high in zip(windows, lows, highs):
            query = queries[i]
            window = trace.values[query.sensor, low:high]
            window = window[~np.isnan(window)]
            if window.size == 0:
                continue
            truths[i] = aggregate(window, query.aggregate)
    return truths


@dataclass
class ScoredAnswers:
    """One run's answer log beside its ground truth, and how it is scored.

    ``truths[i]`` is the ground truth of ``answers[i].query`` (``None``
    where the trace has nothing to compare against).  An empty selection is
    no evidence, and must not read as a perfect score in a table: the
    fractions are NaN on it, the means 0.0.
    """

    duration_s: float = merged("given")
    n_sensors: int
    answers: list[QueryAnswer] = merged("given")
    truths: list[float | None] = merged("given")
    sensor_energy_j: float = merged("sum")

    @property
    def mean_latency_s(self) -> float:
        """Mean answer latency."""
        if not self.answers:
            return 0.0
        return float(np.mean([a.latency_s for a in self.answers]))

    @property
    def p95_latency_s(self) -> float:
        """95th-percentile answer latency."""
        if not self.answers:
            return 0.0
        return float(np.percentile([a.latency_s for a in self.answers], 95))

    @property
    def answered_fraction(self) -> float:
        """Fraction of queries that produced a value (NaN: no queries ran)."""
        if not self.answers:
            return float("nan")
        return float(np.mean([a.answered for a in self.answers]))

    def errors(self) -> list[float]:
        """Absolute errors for answers with known ground truth."""
        return [
            error
            for answer, truth in zip(self.answers, self.truths)
            if truth is not None
            and (error := answer.error_against(truth)) is not None
        ]

    @property
    def mean_error(self) -> float:
        """Mean absolute answer error vs ground truth."""
        errors = self.errors()
        return float(np.mean(errors)) if errors else 0.0

    def success_rate_kind(self, *kinds: QueryKind) -> float:
        """Success over the queries of *kinds* (NaN: the run had none).

        The NOW vs PAST split of Table 1; see
        :meth:`QueryAnswer.succeeded_against` for the rule.
        """
        scored = [
            answer.succeeded_against(truth)
            for answer, truth in zip(self.answers, self.truths)
            if answer.query.kind in kinds
        ]
        return sum(scored) / len(scored) if scored else float("nan")

    @property
    def success_rate(self) -> float:
        """Answered within both precision and latency bounds, all kinds."""
        return self.success_rate_kind(*QueryKind)

    def answer_mix(self) -> dict[str, int]:
        """Histogram of answer sources."""
        mix: dict[str, int] = {}
        for answer in self.answers:
            mix[answer.source.value] = mix.get(answer.source.value, 0) + 1
        return mix

    @property
    def sensor_energy_per_day_j(self) -> float:
        """Fleet-average sensor energy per node-day (lifetime proxy)."""
        days = self.duration_s / 86_400.0
        if days <= 0 or self.n_sensors == 0:
            return 0.0
        return self.sensor_energy_j / self.n_sensors / days
