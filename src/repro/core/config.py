"""Deployment-wide configuration for a PRESTO cell and proxy federation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.energy.constants import MICA2_PROFILE, NodeEnergyProfile
from repro.radio.link import LinkConfig
from repro.simulation.pool import resolve_workers
from repro.storage.offload import STORAGE_POLICIES
from repro.timeseries.sarima import daily_season, two_season_minimum

#: PrestoConfig's float knobs: a NaN or infinity slips past every range
#: check below (a NaN compares false) and silently stops the protocol
FINITE_PRESTO_FIELDS = (
    "sample_period_s",
    "push_delta",
    "batch_interval_s",
    "refit_interval_s",
    "retune_interval_s",
    "default_check_interval_s",
)


def sarima_training_epochs(sample_period_s: float) -> int:
    """The fit window ``model_kind="sarima"`` needs: two daily seasons and 16."""
    return two_season_minimum(daily_season(sample_period_s))


@dataclass(frozen=True)
class PrestoConfig:
    """All tunables of one proxy + sensors cell.

    Defaults are sized for the Intel-Lab-style temperature workload: 31 s
    sampling, half-hourly seasonal bins, 1 °C push tolerance (the paper's
    Figure 2 sweeps Δ=1 and Δ=2).
    """

    # sampling & modelling
    sample_period_s: float = 31.0
    push_delta: float = 1.0              # model-failure threshold (signal units)
    model_kind: str = "arima"            # seasonal | ar | arima | markov | sarima
    seasonal_bins: int = 48
    training_epochs: int = 2_880         # fit window (~1 day at 30 s)
    refit_interval_s: float = 86_400.0   # ship a fresh model daily
    min_training_epochs: int = 256       # before this, everything is pushed
    retune_interval_s: float = 3_600.0   # query-sensor matching cadence

    # radio / MAC
    node_profile: NodeEnergyProfile = field(default_factory=lambda: MICA2_PROFILE)
    link: LinkConfig = field(default_factory=LinkConfig)
    default_check_interval_s: float = 1.0

    # archive
    flash_capacity_bytes: int | None = None   # None = device default
    flash_capacity_skew: float = 0.0          # +-fraction, alternating per sensor
    segment_readings: int = 128
    aging_max_level: int = 4
    storage_policy: str = "local_aging"       # local_aging | greedy_offload | mcf_offload

    # proxy cache & extrapolation
    cache_entries_per_sensor: int = 20_000
    spatial_extrapolation: bool = True

    # batching (0 = push immediately on model failure)
    batch_interval_s: float = 0.0

    @classmethod
    def for_model(cls, model_kind: str, **fields: Any) -> "PrestoConfig":
        """A config running *model_kind*; for ``sarima`` the fit window
        (unless *fields* set it) widens to the two daily seasons it needs."""
        if model_kind == "sarima" and "training_epochs" not in fields:
            period = fields.get("sample_period_s", cls.sample_period_s)
            fields["training_epochs"] = max(
                cls.training_epochs, sarima_training_epochs(period)
            )
        return cls(model_kind=model_kind, **fields)

    def __post_init__(self) -> None:
        for name in FINITE_PRESTO_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.sample_period_s <= 0:
            raise ValueError("sample period must be positive")
        if self.push_delta <= 0:
            raise ValueError("push delta must be positive")
        if self.model_kind not in ("seasonal", "ar", "arima", "markov", "sarima"):
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.training_epochs < 32:
            raise ValueError("training window unreasonably small")
        if self.model_kind == "sarima":
            needed = sarima_training_epochs(self.sample_period_s)
            if self.training_epochs < needed:
                raise ValueError(
                    f"sarima at {self.sample_period_s:g} s sampling fits on two daily "
                    f"seasons: needs training_epochs >= {needed}, "
                    f"got {self.training_epochs}"
                )
        if self.min_training_epochs < 2:
            raise ValueError("min training epochs must be >= 2")
        if self.batch_interval_s < 0:
            raise ValueError("batch interval must be >= 0")
        if self.storage_policy not in STORAGE_POLICIES:
            raise ValueError(
                f"unknown storage policy {self.storage_policy!r}; "
                f"expected one of {STORAGE_POLICIES}"
            )
        if not 0.0 <= self.flash_capacity_skew < 1.0:
            raise ValueError("flash capacity skew must be in [0, 1)")


#: recognised sensor-to-proxy sharding policies
SHARD_POLICIES = ("contiguous", "round_robin", "balanced")

#: recognised partition execution backends
PARTITION_BACKENDS = ("inline", "process")

#: recognised replica-coding spellings: whole-copy replication (the k = 1
#: code) vs k-of-n Reed-Solomon fragments (order matters — sweep codes are
#: 1-based)
REPLICA_CODINGS = ("full", "rs")


@dataclass(frozen=True)
class FederationConfig:
    """Knobs of a multi-proxy federation (Section 5 deployment).

    A federation partitions one deployment's sensors across ``n_proxies``
    cells.  The first ``max(1, round(wired_fraction * n_proxies))`` proxies
    are wired (low-latency, reliable backhaul); the rest sit on an 802.11
    mesh, and their summary caches and model parameters are replicated onto
    ``replication_factor`` wired proxies every ``replica_sync_interval_s``.

    ``replica_sync_interval_s`` is the staleness/cost dial: replicas answer
    failover queries from state frozen at the last completed sync, so a
    longer interval trades replication traffic for staler failover answers.
    It is also a sweepable scenario parameter — a
    :class:`~repro.scenarios.spec.SweepAxis` over
    ``replica_sync_interval_s`` (see the ``staleness_vs_sync`` built-in)
    charts replica staleness and failover fidelity against that cost.
    """

    n_proxies: int = 1
    shard_policy: str = "contiguous"     # contiguous | round_robin | balanced
    replication_factor: int = 1
    wired_fraction: float = 0.5
    replica_sync_interval_s: float = 3_600.0
    hot_entries_per_sensor: int = 64     # cache tail replicated per sensor

    # Replica coding: every sync payload is striped into a k-of-n
    # Reed-Solomon generation, one fragment per planned wired host slot —
    # any k surviving fragments reconstruct the snapshot, so n - k host
    # losses are survived at n / k times the payload.  ``replica_coding``
    # only names which fields give the pair (see :attr:`replica_code`):
    # ``rs`` reads ``(coding_k, coding_n)``; ``full`` is the k = 1 code,
    # ``(1, replication_factor)``, whose every fragment is a whole copy —
    # there ``coding_k``/``coding_n`` are ignored, as ``replication_factor``
    # is under ``rs``.  Placement is ``CacheDirectory.plan_fragment_placement``.
    replica_coding: str = "full"
    coding_k: int = 4
    coding_n: int = 6

    # Partitioned execution: the cells are split across ``partitions``
    # independent simulation partitions, each running its block of cells
    # for the whole horizon on a private kernel; ``0`` means one partition
    # per CPU core (capped at ``n_proxies``).  Reports are identical at
    # every count.  ``partition_backend`` picks how partitions execute:
    # ``process`` (one task per partition on a process pool of up to one
    # worker per core, :func:`repro.simulation.pool.map_tasks`; a single
    # partition or core runs in-process) or ``inline`` (always in-process,
    # one after another).  Both run the same task function, so a failing
    # partition fails the run the same way on either; a pool that cannot
    # start fails it too, with no serial fallback.
    partitions: int = 1
    partition_backend: str = "process"

    def __post_init__(self) -> None:
        if self.n_proxies < 1:
            raise ValueError(f"need >= 1 proxy, got {self.n_proxies}")
        if self.shard_policy not in SHARD_POLICIES:
            raise ValueError(
                f"unknown shard policy {self.shard_policy!r}; "
                f"expected one of {SHARD_POLICIES}"
            )
        if self.replication_factor < 0:
            raise ValueError("replication factor must be >= 0")
        if not 0.0 <= self.wired_fraction <= 1.0:
            raise ValueError("wired fraction must be in [0, 1]")
        if not 0 < self.replica_sync_interval_s < math.inf:
            raise ValueError(
                "replica sync interval must be positive and finite, got "
                f"{self.replica_sync_interval_s}"
            )
        if self.hot_entries_per_sensor < 1:
            raise ValueError("must replicate at least one entry per sensor")
        if self.replica_coding not in REPLICA_CODINGS:
            raise ValueError(
                f"unknown replica coding {self.replica_coding!r}; "
                f"expected one of {REPLICA_CODINGS}"
            )
        if not 1 <= self.coding_k <= self.coding_n:
            raise ValueError(
                f"need 1 <= coding_k <= coding_n, got "
                f"k={self.coding_k}, n={self.coding_n}"
            )
        if self.replica_code[1] > 255:
            raise ValueError(
                f"{self.replica_code[1]} fragments per generation exceed "
                "the GF(256) codec's capacity (255)"
            )
        if self.partitions is None or self.partitions < 0:
            raise ValueError(
                f"partitions must be 0 (per-core) or >= 1, got {self.partitions}"
            )
        if self.partition_backend not in PARTITION_BACKENDS:
            raise ValueError(
                f"unknown partition backend {self.partition_backend!r}; "
                f"expected one of {PARTITION_BACKENDS}"
            )

    @property
    def replica_code(self) -> tuple[int, int]:
        """The ``(k, n)`` erasure code replica sync runs.

        The one place ``replica_coding`` is read: whole-copy replication
        with factor r is the degenerate (k = 1, n = r) member of the
        k-of-n family, so ``full`` and ``rs`` differ only in which fields
        supply the pair.
        """
        return {
            "full": (1, self.replication_factor),
            "rs": (self.coding_k, self.coding_n),
        }[self.replica_coding]

    @property
    def n_wired(self) -> int:
        """How many proxies get wired backhaul (always at least one)."""
        return max(1, int(round(self.wired_fraction * self.n_proxies)))

    def resolve_partitions(self) -> int:
        """Concrete partition count (>= 1).

        ``partitions=0`` resolves to one partition per CPU core; either way
        the count is capped at ``n_proxies`` so no partition is ever empty.
        """
        return min(resolve_workers(self.partitions), self.n_proxies)
