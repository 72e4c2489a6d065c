"""End-to-end metrics: what a user of the system (or of the simulator) sees.

The first four are host time and memory of the simulator.  The last four
are simulated statistics of a seeded deterministic simulator: at a fixed
seed they repeat exactly, so a pure speed-up must leave them bit-identical;
their bounds only have to cover how much they differ from seed to seed.

Simulated per-query latency is reported as the share of queries answered
within :data:`FAST_LIMIT_S`: the mean and p95 are exact at one seed but
swing by tens of percent between seeds at a few hundred queries (p95 flips
between "cache" and "pull" as the pull rate crosses 5 %), so they are
listed with the per-layer metrics instead, where no bound applies.
"""

from __future__ import annotations

from dataclasses import dataclass

#: simulated latency limit of a "fast" answer: anything served from the
#: proxy (cache, model, replica) makes it, a sensor pull over LPL does not
FAST_LIMIT_S = 1.0


@dataclass(frozen=True)
class EndToEnd:
    """Declaration of one end-to-end metric."""

    name: str
    unit: str
    better: str
    bound: float
    host: bool      # host time/memory (noisy) vs simulated statistic (exact per seed)


END_TO_END: list[EndToEnd] = [
    # import + trace/query generation + system construction
    EndToEnd("setup_s", "s", "lower", 0.25, True),
    # host wall seconds of run()
    EndToEnd("wall_s", "s", "lower", 0.25, True),
    # simulated horizon / wall_s
    EndToEnd("sim_s_per_wall_s", "sim-s/s", "higher", 0.25, True),
    # child ru_maxrss
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.10, True),
    # sensor_energy_per_day_j, the paper's cost axis
    EndToEnd("energy_j_per_sensor_day", "J", "lower", 0.02, False),
    # queries answered within FAST_LIMIT_S simulated seconds / queries issued
    EndToEnd("query_fast_fraction", "fraction", "higher", 0.10, False),
    # answers within requested precision and latency bound
    EndToEnd("query_success_rate", "fraction", "higher", 0.06, False),
]


def simulated_metrics(report, issued: int) -> dict[str, float]:
    """The simulated end-to-end statistics of one run's report."""
    fast = sum(
        1 for answer in report.answers
        if answer.answered and answer.latency_s <= FAST_LIMIT_S
    )
    return {
        "energy_j_per_sensor_day": report.sensor_energy_per_day_j,
        "query_fast_fraction": fast / issued,
        "query_success_rate": report.success_rate,
    }


def operations(report, issued: int) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one run.

    An operation is a query put to the system — federation queries plus the
    serving tier's.  It fails when it gets no value back (unanswered, which
    includes unroutable) or no live server (serving's ``unserved``); a query
    that never reached the log at all also counts as failed.
    """
    serving = getattr(report, "serving", None)
    unanswered = sum(1 for answer in report.answers if not answer.answered)
    lost = issued - len(report.answers)
    attempted = issued + (serving.n_queries if serving else 0)
    failed = unanswered + abs(lost) + (serving.unserved if serving else 0)
    return attempted, failed
