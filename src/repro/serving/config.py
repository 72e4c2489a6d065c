"""Configuration and report types for the query-serving front-end tier."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the production-traffic front-end layered over a federation.

    The front-end draws ``offered_qps`` queries per second over a
    ``duration_s`` serving window placed mid-run, skews sensor popularity
    by a Zipf law with exponent ``zipf_s``, admits traffic in fixed batches
    against the federated directory, and memoizes answers for
    ``memo_ttl_s`` so overlapping windows are served from the front-end
    instead of the backend.  ``offered_qps``, ``zipf_s``, ``memo_ttl_s``
    and the federation's partition count are sweepable scenario parameters
    — the offered-load-vs-p99 grid charts the saturation knee.  The user
    population, value/window query mix, admission batch and memo-key
    quantization are constants of :mod:`repro.serving.traffic` and
    :mod:`repro.serving.frontend`.
    """

    offered_qps: float = 200.0
    zipf_s: float = 0.9
    memo_ttl_s: float = 30.0
    service_time_s: float = 0.004        # backend CPU per admitted miss
    duration_s: float = 600.0            # serving window length (mid-run)

    def __post_init__(self) -> None:
        if self.offered_qps <= 0:
            raise ValueError("offered qps must be positive")
        if self.zipf_s < 0:
            raise ValueError("zipf exponent must be >= 0")
        if self.memo_ttl_s < 0:
            raise ValueError("memo ttl must be >= 0")
        if self.service_time_s <= 0:
            raise ValueError("service time must be positive")
        if self.duration_s <= 0:
            raise ValueError("serving window must be positive")


@dataclass
class ServingReport:
    """What the front-end measured over its serving window."""

    offered_qps: float
    achieved_qps: float                  # served (non-failed) completions / window
    n_queries: int
    distinct_users: int
    memo_hit_rate: float                 # fraction answered from the memo
    p50_latency_s: float
    p95_latency_s: float
    p99_latency_s: float
    mean_latency_s: float
    utilization: float                   # backend busy time / capacity
    unserved: int                        # no live server for the sensor
    n_partitions: int
    zipf_s: float
    memo_ttl_s: float

    def summary(self) -> dict[str, float]:
        """Flat dict of the serving metrics (keys prefixed ``serving_``)."""
        return {
            "serving_offered_qps": float(self.offered_qps),
            "serving_achieved_qps": float(self.achieved_qps),
            "serving_queries": float(self.n_queries),
            "serving_distinct_users": float(self.distinct_users),
            "serving_memo_hit_rate": float(self.memo_hit_rate),
            "serving_p50_s": float(self.p50_latency_s),
            "serving_p95_s": float(self.p95_latency_s),
            "serving_p99_s": float(self.p99_latency_s),
            "serving_utilization": float(self.utilization),
            "serving_unserved": float(self.unserved),
        }
