"""Query–sensor matching.

Section 3: "The query type, frequency, latency and precision requirements
are translated into the appropriate parameters for the remote sensors, such
that they can minimize energy while achieving query requirements.  For
instance, if it is known that the worst case notification latency for
typical queries is 10 minutes, the proxy can instruct remote sensors to set
its radio duty-cycling parameters accordingly."

The matcher observes the query stream, summarises it into a
:class:`QueryProfile`, and derives a :class:`SensorOperatingPoint`: the LPL
check interval (bounded by the latency headroom), the push delta and batch
quantisation (bounded by the precision queries actually ask for), and the
batching interval (bounded by how stale a NOW answer may be).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import PrestoConfig
from repro.traces.workload import Query, QueryKind

#: coarsest quantisation step of a batched push (signal units); a tight
#: query precision narrows it
BATCH_QUANT_STEP = 0.05


@dataclass
class QueryProfile:
    """Running summary of observed query characteristics."""

    count: int = 0
    now_count: int = 0
    min_precision: float = float("inf")
    min_latency_bound_s: float = float("inf")
    arrival_rate_per_s: float = 0.0
    _first_arrival: float | None = None
    _last_arrival: float | None = None

    def observe(self, query: Query) -> None:
        """Fold one query into the profile."""
        self.count += 1
        if query.kind is QueryKind.NOW:
            self.now_count += 1
        self.min_precision = min(self.min_precision, query.precision)
        self.min_latency_bound_s = min(self.min_latency_bound_s, query.latency_bound_s)
        if self._first_arrival is None:
            self._first_arrival = query.arrival_time
        self._last_arrival = query.arrival_time
        span = (self._last_arrival - self._first_arrival) or 1.0
        if self.count > 1:
            self.arrival_rate_per_s = (self.count - 1) / span

    @property
    def now_fraction(self) -> float:
        """Fraction of queries about the current state."""
        if self.count == 0:
            return 0.0
        return self.now_count / self.count


@dataclass(frozen=True)
class SensorOperatingPoint:
    """Proxy-chosen parameters shipped to a sensor.

    ``wire_bytes`` is the cost of transmitting the operating point.
    """

    check_interval_s: float
    push_delta: float
    batch_interval_s: float
    quant_step: float

    @property
    def wire_bytes(self) -> int:
        """Four floats + a flags byte + header."""
        return 4 * 4 + 1 + 2


class QuerySensorMatcher:
    """Derives sensor operating points from query characteristics."""

    #: never let the radio sleep longer than this between checks
    MAX_CHECK_INTERVAL_S = 600.0
    #: nor wake it more often than this
    MIN_CHECK_INTERVAL_S = 0.125

    def __init__(self, config: PrestoConfig) -> None:
        self.config = config
        self.profile = QueryProfile()
        self.retunes = 0

    def observe_query(self, query: Query) -> None:
        """Feed one arriving query into the matcher's profile."""
        self.profile.observe(query)

    def derive_operating_point(self) -> SensorOperatingPoint:
        """Best operating point for the current profile.

        Rules (all directly from the paper's examples):

        * *duty cycle from latency*: a pull must round-trip within the
          tightest latency bound; the downlink wait is ~half the check
          interval, so ``check_interval <= latency_bound``.  With no queries
          observed yet, fall back to the configured default.
        * *delta and quantisation from precision*: pushes must keep the
          proxy within the tightest precision queries ask for; batched data
          may be quantised to half that precision ("if the queries only
          require 75% precision ... lossy compression ... can be used").
        * *batching from interactivity*: when no NOW queries are arriving,
          readings can be batched up to the latency bound (or the configured
          batch interval if one is forced).
        """
        cfg = self.config
        profile = self.profile

        if profile.count == 0:
            check_interval = cfg.default_check_interval_s
            delta = cfg.push_delta
            quant = BATCH_QUANT_STEP
            batch = cfg.batch_interval_s
        else:
            headroom = max(profile.min_latency_bound_s * 0.5, 0.25)
            check_interval = min(
                max(headroom, self.MIN_CHECK_INTERVAL_S), self.MAX_CHECK_INTERVAL_S
            )
            # Most of the tightest precision, with headroom for sensing
            # noise between the model check and the ground truth a user
            # compares against.
            delta = min(cfg.push_delta, max(profile.min_precision * 0.75, 1e-3))
            quant = max(min(BATCH_QUANT_STEP, profile.min_precision / 2.0), 1e-4)
            if profile.now_fraction == 0.0 and profile.count >= 5:
                batch = max(cfg.batch_interval_s, profile.min_latency_bound_s)
            else:
                batch = cfg.batch_interval_s
        self.retunes += 1
        return SensorOperatingPoint(
            check_interval_s=check_interval,
            push_delta=delta,
            batch_interval_s=batch,
            quant_step=quant,
        )

    @staticmethod
    def check_interval_for_latency(latency_bound_s: float) -> float:
        """Standalone rule used by the duty-cycle ablation benchmark."""
        if latency_bound_s <= 0:
            raise ValueError(f"latency bound must be positive, got {latency_bound_s}")
        headroom = max(latency_bound_s * 0.5, 0.25)
        return min(
            max(headroom, QuerySensorMatcher.MIN_CHECK_INTERVAL_S),
            QuerySensorMatcher.MAX_CHECK_INTERVAL_S,
        )
