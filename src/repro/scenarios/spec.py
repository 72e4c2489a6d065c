"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one adverse regime and composes every
hostile-condition knob the platform already has — trace perturbations
(:mod:`repro.traces.events` injection, sensing dropout), radio regimes
(:class:`~repro.radio.link.LinkConfig` loss with interference bursts,
LPL duty-cycle points), storage pressure (small flash + aggressive
:class:`~repro.storage.aging.AgingPolicy`), clock-drift storms, standing
continuous queries, and proxy/federation fault schedules — into one
value object the :class:`~repro.scenarios.runner.CampaignRunner` can
execute over both the single-cell and federated harnesses.

Every sub-spec defaults to "benign": a default-constructed
``ScenarioSpec`` is the nominal regime, and each field turns exactly one
screw.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.core.config import REPLICA_CODINGS
from repro.core.continuous import TriggerKind
from repro.storage.offload import STORAGE_POLICIES


@dataclass(frozen=True)
class TracePerturbation:
    """What happens to the signal before the sensors ever see it."""

    dropout_rate: float = 0.0            # fraction of epochs lost to NaN
    event_rate_per_sensor_day: float = 0.0
    event_magnitude: float = 8.0         # injected anomaly size (signal units)
    event_duration_epochs: int = 20
    #: adversarial timing: place one event per sensor at the onset of every
    #: interference burst instead of drawing Poisson times — the anomaly
    #: arrives exactly when the channel is at its worst, so notification
    #: latency is measured at its bound, not its average.
    align_to_bursts: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")
        if self.event_rate_per_sensor_day < 0:
            raise ValueError("event rate must be >= 0")
        if self.event_duration_epochs < 1:
            raise ValueError("event duration must be >= 1 epoch")
        if self.align_to_bursts and self.event_rate_per_sensor_day > 0:
            raise ValueError(
                "align_to_bursts replaces the Poisson draw; leave "
                "event_rate_per_sensor_day at 0"
            )


@dataclass(frozen=True)
class RadioRegime:
    """Channel conditions and the LPL operating points to visit."""

    loss_probability: float = 0.1        # steady-state per-attempt loss
    burst_loss_probability: float | None = None   # elevated loss during bursts
    burst_period_s: float = 4 * 3600.0   # one burst starts every period
    burst_duration_s: float = 1800.0
    #: which cells the bursts hit (python indexing into the cell list,
    #: negatives from the end).  Empty = every cell — the legacy
    #: fleet-wide regime.  A non-empty tuple is correlated *regional*
    #: loss: the addressed cells' links flip while siblings stay clean.
    cell_indices: tuple[int, ...] = ()
    #: LPL check intervals to sweep (one run per point); empty = cell default.
    duty_cycle_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                f"loss probability must be in [0,1), got {self.loss_probability}"
            )
        if self.burst_loss_probability is not None:
            if not 0.0 <= self.burst_loss_probability < 1.0:
                raise ValueError("burst loss probability must be in [0,1)")
            if self.burst_period_s <= 0 or self.burst_duration_s <= 0:
                raise ValueError("burst period and duration must be positive")
            if self.burst_duration_s >= self.burst_period_s:
                raise ValueError(
                    "bursts must end before the next one starts "
                    f"(duration {self.burst_duration_s} >= period "
                    f"{self.burst_period_s}); raise loss_probability instead "
                    "for continuous interference"
                )
        if any(point <= 0 for point in self.duty_cycle_points):
            raise ValueError("duty-cycle points must be positive seconds")
        if self.cell_indices and self.burst_loss_probability is None:
            raise ValueError(
                "cell_indices target interference bursts; set "
                "burst_loss_probability"
            )
        if len(set(self.cell_indices)) != len(self.cell_indices):
            raise ValueError(f"duplicate cell indices {self.cell_indices}")


@dataclass(frozen=True)
class StoragePressure:
    """Sensor-side flash sizing, aging aggressiveness and offload policy."""

    flash_capacity_bytes: int | None = None   # None = device default (ample)
    capacity_skew: float = 0.0                # +-fraction, alternating per sensor
    segment_readings: int = 128
    aging_max_level: int = 4
    storage_policy: str = "local_aging"       # local_aging | greedy_offload | mcf_offload

    def __post_init__(self) -> None:
        if self.flash_capacity_bytes is not None and self.flash_capacity_bytes <= 0:
            raise ValueError("flash capacity must be positive")
        if not 0.0 <= self.capacity_skew < 1.0:
            raise ValueError("capacity skew must be in [0, 1)")
        if self.segment_readings < 1:
            raise ValueError("segment readings must be >= 1")
        if self.aging_max_level < 1:
            raise ValueError("aging max level must be >= 1")
        if self.storage_policy not in STORAGE_POLICIES:
            raise ValueError(
                f"unknown storage policy {self.storage_policy!r}; "
                f"expected one of {STORAGE_POLICIES}"
            )


@dataclass(frozen=True)
class ClockRegime:
    """Clock modelling for the sensor fleet."""

    model_clocks: bool = False
    offset_std_s: float = 0.5
    skew_ppm_std: float = 40.0

    def __post_init__(self) -> None:
        if self.offset_std_s < 0 or self.skew_ppm_std < 0:
            raise ValueError("clock spreads must be >= 0")


@dataclass(frozen=True)
class StandingQuerySpec:
    """One standing predicate armed on every sensor of the deployment.

    ``threshold_offset`` is relative to each sensor's clean baseline for
    level triggers (ABOVE/BELOW) and absolute for DELTA triggers.
    """

    kind: TriggerKind = TriggerKind.ABOVE
    threshold_offset: float = 4.0
    min_interval_s: float = 600.0

    def __post_init__(self) -> None:
        if self.min_interval_s < 0:
            raise ValueError("min interval must be >= 0")
        if self.kind is TriggerKind.DELTA and self.threshold_offset <= 0:
            raise ValueError("delta triggers need a positive threshold")


#: recognised surge-shaping profiles (see :class:`WorkloadSpec`)
SURGE_PROFILES = ("flat", "ramp", "decay")


@dataclass(frozen=True)
class WorkloadSpec:
    """The query arrival process, per scenario.

    ``arrival_rate_per_s=None`` inherits the campaign default, so benign
    scenarios still share one workload sizing; a surge multiplies the rate
    inside a window of the run — the stadium-event spike the ROADMAP's
    workload-surge backlog item asks for.

    ``surge_profile`` shapes the extra traffic inside the window:
    ``"flat"`` holds ``surge_multiplier`` x rate throughout, ``"ramp"``
    climbs linearly from the base rate to the peak at the window's end
    (a crowd building up), ``"decay"`` starts at the peak and drains
    back to the base rate (everyone asks at once, then loses interest).
    ``surge_hotspot_zipf`` re-skews the Zipf sensor-popularity law for
    surge traffic only — a larger exponent than the workload default
    (1.1) concentrates the stampede on a few hot sensors, the correlated
    hotspot the ROADMAP's surge-shaping item asks for.
    """

    arrival_rate_per_s: float | None = None   # None = campaign default
    surge_multiplier: float = 1.0             # peak x rate inside the window
    surge_start_fraction: float = 0.5         # of the run duration
    surge_duration_fraction: float = 0.2
    surge_profile: str = "flat"               # flat | ramp | decay
    surge_hotspot_zipf: float | None = None   # None = workload default skew

    def __post_init__(self) -> None:
        if self.arrival_rate_per_s is not None and self.arrival_rate_per_s <= 0:
            raise ValueError("arrival rate must be positive")
        if self.surge_multiplier < 1.0:
            raise ValueError(
                f"surge multiplier must be >= 1, got {self.surge_multiplier}"
            )
        if not 0.0 <= self.surge_start_fraction < 1.0:
            raise ValueError("surge start must be in [0,1) of the run")
        if not 0.0 < self.surge_duration_fraction <= 1.0:
            raise ValueError("surge duration must be in (0,1] of the run")
        if self.surge_start_fraction + self.surge_duration_fraction > 1.0:
            raise ValueError("surge window must end within the run")
        if self.surge_profile not in SURGE_PROFILES:
            raise ValueError(
                f"unknown surge profile {self.surge_profile!r}; "
                f"expected one of {SURGE_PROFILES}"
            )
        if self.surge_hotspot_zipf is not None and self.surge_hotspot_zipf <= 0:
            raise ValueError("surge hotspot Zipf exponent must be positive")
        if not self.surges and (
            self.surge_profile != "flat" or self.surge_hotspot_zipf is not None
        ):
            raise ValueError(
                "surge shaping (profile/hotspot) needs surge_multiplier > 1"
            )

    @property
    def surges(self) -> bool:
        """Whether this workload has a surge window at all."""
        return self.surge_multiplier > 1.0


@dataclass(frozen=True)
class FederationRegime:
    """Federation knobs a scenario may pin (federated harness only).

    ``replica_sync_interval_s=None`` inherits the
    :class:`~repro.core.config.FederationConfig` default; a value pins the
    replica-sync cadence for this scenario — and because it is a
    :data:`SWEEP_PARAMETERS` member, a :class:`SweepAxis` can chart
    replica staleness and failover fidelity against replication cost.

    ``partitions`` sets how many simulation partitions execute the cells:

    * ``None`` — the campaign default of one partition;
    * ``0`` — one partition per CPU core (capped at the cell count);
    * ``k >= 1`` — exactly ``k`` partitions.

    Reports are identical at every partition count (see
    ``tests/test_partition.py``), so sweeping ``partitions`` charts pure
    execution cost.
    """

    replica_sync_interval_s: float | None = None
    partitions: int | None = None
    #: replica coding knobs; ``None`` inherits the FederationConfig default.
    #: ``replica_coding`` is sweepable via 1-based numeric codes
    #: (1=full, 2=rs), and ``coding_n`` sweeps the stripe width at a
    #: pinned ``coding_k`` — charting survivability vs sync bytes.
    replica_coding: str | None = None
    coding_k: int | None = None
    coding_n: int | None = None

    def __post_init__(self) -> None:
        if (
            self.replica_sync_interval_s is not None
            and self.replica_sync_interval_s <= 0
        ):
            raise ValueError("replica sync interval must be positive")
        if self.partitions is not None and self.partitions < 0:
            raise ValueError(
                "partitions must be None (campaign default), 0 (one per "
                f"core) or a positive count, got {self.partitions}"
            )
        if (
            self.replica_coding is not None
            and self.replica_coding not in REPLICA_CODINGS
        ):
            raise ValueError(
                f"unknown replica coding {self.replica_coding!r}; "
                f"expected one of {REPLICA_CODINGS}"
            )
        for name in ("coding_k", "coding_n"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if (
            self.coding_k is not None
            and self.coding_n is not None
            and self.coding_k > self.coding_n
        ):
            raise ValueError(
                f"need coding_k <= coding_n, got "
                f"k={self.coding_k}, n={self.coding_n}"
            )


@dataclass(frozen=True)
class ServingRegime:
    """The query-serving front-end layered over a federated run.

    ``offered_qps=None`` (the default) disables the front-end; a rate
    turns it on — the federation then replays a Zipf-skewed serving
    window of traffic through batched admission and a TTL'd answer memo,
    and reports p50/p95/p99 latency, memo hit rate, utilization and
    saturation metrics alongside the routing numbers.  ``offered_qps``,
    ``zipf_s`` and ``memo_ttl_s`` are :data:`SWEEP_PARAMETERS` members, so
    a grid charts the saturation knee.  The single-cell harness has no
    serving tier; the regime only applies to federated runs.
    """

    offered_qps: float | None = None
    zipf_s: float = 0.9
    memo_ttl_s: float = 30.0

    def __post_init__(self) -> None:
        if self.offered_qps is not None and self.offered_qps <= 0:
            raise ValueError("offered qps must be positive (None disables)")
        if self.zipf_s < 0:
            raise ValueError("zipf exponent must be >= 0")
        if self.memo_ttl_s < 0:
            raise ValueError("memo ttl must be >= 0")

    @property
    def enabled(self) -> bool:
        """Whether this scenario runs the serving front-end at all."""
        return self.offered_qps is not None


@dataclass(frozen=True)
class SweepParameter:
    """One sweepable scenario knob — the only place it is declared.

    ``name`` is both the axis name and the field the value pins on the
    ``section`` sub-spec of a :class:`ScenarioSpec`.  Names are hashed
    into variant seeds and ``label`` builds the ``variant`` strings of
    committed BENCH rows, so renaming either silently moves seeds or
    breaks drift matching.  Sweep values are numbers: ``cast`` turns one
    into the field's type, and a parameter with ``choices`` reads it as a
    1-based code into that tuple (the CLI also accepts the choice's name).
    Values must be positive and lie in ``[low, below)``.
    """

    name: str
    label: str                       # variant-label shorthand ("flash=5280")
    section: str
    cast: type = float
    choices: tuple[str, ...] = ()
    whole: bool = False              # reject fractional values
    low: float = 0.0
    below: float = math.inf

    def __post_init__(self) -> None:
        if self.choices:
            object.__setattr__(self, "whole", True)
            object.__setattr__(self, "low", 1.0)
            object.__setattr__(self, "below", len(self.choices) + 1.0)

    @property
    def domain(self) -> str:
        """The accepted values in words (error messages, docs table)."""
        if self.choices:
            codes = ", ".join(
                f"{code}={name}" for code, name in enumerate(self.choices, 1)
            )
            return f"one of the codes {codes} (the CLI also takes the names)"
        low = f">= {self.low:g}" if self.low > 0 else "> 0"
        high = "" if self.below == math.inf else f", < {self.below:g}"
        return ("whole, " if self.whole else "") + low + high

    def check(self, values: tuple[float, ...]) -> None:
        """Raise :class:`ValueError` unless every value is in the domain."""
        if any(
            not (value > 0 and self.low <= value < self.below)
            or (self.whole and float(value) != int(value))
            for value in values
        ):
            raise ValueError(
                f"{self.name} sweep values must be {self.domain}; got {values}"
            )

    def parse(self, text: str) -> float:
        """One sweep value from CLI text: a number, or a choice's name."""
        text = text.strip()
        if text in self.choices:
            return float(self.choices.index(text) + 1)
        return float(text)

    def field_value(self, value: float) -> int | float | str:
        """The typed sub-spec field value a valid sweep value stands for."""
        if self.choices:
            return self.choices[int(value) - 1]
        return self.cast(value)

    def apply(self, spec: "ScenarioSpec", value: float) -> "ScenarioSpec":
        """*spec* with this parameter pinned at *value*."""
        self.check((value,))
        section = dataclasses.replace(
            getattr(spec, self.section), **{self.name: self.field_value(value)}
        )
        return dataclasses.replace(spec, **{self.section: section})


#: every parameter a :class:`SweepAxis` may vary — one row each; validation,
#: application, variant labels, CLI parsing and the docs table read this
SWEEP_TABLE: dict[str, SweepParameter] = {
    row.name: row
    for row in (
        SweepParameter("flash_capacity_bytes", "flash", "storage", cast=int),
        SweepParameter("arrival_rate_per_s", "rate", "workload"),
        SweepParameter("loss_probability", "loss", "radio", below=1.0),
        SweepParameter("replica_sync_interval_s", "sync", "federation"),
        SweepParameter("surge_multiplier", "surge", "workload", low=1.0),
        SweepParameter("offered_qps", "qps", "serving"),
        SweepParameter("zipf_s", "zipf", "serving"),
        SweepParameter("memo_ttl_s", "memo", "serving"),
        SweepParameter(
            "partitions", "parts", "federation", cast=int, whole=True, low=1.0
        ),
        SweepParameter(
            "storage_policy", "policy", "storage", choices=STORAGE_POLICIES
        ),
        SweepParameter(
            "replica_coding", "coding", "federation", choices=REPLICA_CODINGS
        ),
        SweepParameter(
            "coding_n", "n", "federation", cast=int, whole=True, low=1.0, below=256.0
        ),
    )
}

SWEEP_PARAMETERS = tuple(SWEEP_TABLE)


def sweep_parameter(name: str) -> SweepParameter:
    """The :data:`SWEEP_TABLE` row called *name* (``ValueError`` if none)."""
    if name not in SWEEP_TABLE:
        raise ValueError(
            f"unknown sweep parameter {name!r}; supported: {SWEEP_PARAMETERS}"
        )
    return SWEEP_TABLE[name]


@dataclass(frozen=True)
class SweepAxis:
    """A first-class parameter sweep: one scenario, one run per point.

    Where ``duty_cycle_points`` sweeps the radio operating point, a
    ``SweepAxis`` sweeps any supported scenario knob — descending
    ``flash_capacity_bytes`` traces the wear-out knee, ascending
    ``arrival_rate_per_s`` traces saturation — and every point lands as a
    variant row of the *same* scenario in the campaign report.

    :class:`ScenarioSpec` takes a *list* of axes whose cross product the
    :class:`~repro.scenarios.runner.CampaignRunner` expands — two axes
    chart a 2-D trade-off knee:

    >>> spec = ScenarioSpec(
    ...     name="grid",
    ...     sweep=[
    ...         SweepAxis("flash_capacity_bytes", (84480, 21120)),
    ...         SweepAxis("loss_probability", (0.05, 0.45)),
    ...     ],
    ... )
    >>> [axis.parameter for axis in spec.sweep]
    ['flash_capacity_bytes', 'loss_probability']
    >>> len(spec.sweep_points())  # the runner expands the cross product
    4

    A single axis still works everywhere a list does (the pre-grid form):

    >>> single = ScenarioSpec(
    ...     name="knee",
    ...     sweep=SweepAxis("flash_capacity_bytes", (84480, 21120, 5280)),
    ... )
    >>> len(single.sweep), single.sweep_points()[0]
    (1, {'flash_capacity_bytes': 84480})
    """

    parameter: str
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        row = sweep_parameter(self.parameter)
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"duplicate sweep values {self.values}")
        row.check(self.values)


@dataclass(frozen=True)
class ProxyFault:
    """One scheduled proxy failure or recovery (federated harness only)."""

    proxy_index: int = -1        # index into the cell list; negative = from end
    at_fraction: float = 0.5     # of the run duration
    action: str = "fail"         # fail | recover

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ValueError(
                f"fault fraction must be in (0,1), got {self.at_fraction}"
            )
        if self.action not in ("fail", "recover"):
            raise ValueError(f"unknown fault action {self.action!r}")


@dataclass(frozen=True, eq=False)
class FaultSchedule:
    """A proxy fault cascade, optionally phase-locked to interference bursts.

    With ``align_to_bursts`` the runner ignores each fault's
    ``at_fraction`` and fires fault ``i`` exactly at the onset of burst
    ``i`` — the proxy dies the instant the channel is at its worst, the
    fault-schedule mirror of
    :attr:`TracePerturbation.align_to_bursts` (the run must schedule at
    least as many bursts as there are faults).

    The schedule quacks like the plain fault tuple it replaces: it
    iterates, indexes, measures and compares equal against tuples/lists
    of :class:`ProxyFault`, so ``spec.faults == ()`` and
    ``for fault in spec.faults`` read unchanged.
    """

    faults: tuple[ProxyFault, ...] = ()
    align_to_bursts: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        if any(not isinstance(fault, ProxyFault) for fault in self.faults):
            raise ValueError("fault schedules hold ProxyFault instances")
        if self.align_to_bursts:
            if not self.faults:
                raise ValueError("align_to_bursts needs at least one fault")
        else:
            fractions = [fault.at_fraction for fault in self.faults]
            if fractions != sorted(fractions):
                raise ValueError(
                    "fault schedules must be ordered by at_fraction (a "
                    f"cascade reads in time order); got {fractions}"
                )

    def __iter__(self):
        return iter(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __getitem__(self, index):
        return self.faults[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, FaultSchedule):
            return (self.faults, self.align_to_bursts) == (
                other.faults,
                other.align_to_bursts,
            )
        if isinstance(other, (tuple, list)):
            return not self.align_to_bursts and self.faults == tuple(other)
        return NotImplemented


@dataclass(frozen=True)
class ScenarioSpec:
    """One named adverse regime, composed from the parts above.

    ``sweep`` is a sequence of :class:`SweepAxis` whose cross product the
    runner expands into one variant row per grid point; a bare
    :class:`SweepAxis` (the pre-grid single-axis form) and ``None`` are
    accepted and normalised to a one-element and empty tuple respectively.
    """

    name: str
    description: str = ""
    trace: TracePerturbation = field(default_factory=TracePerturbation)
    radio: RadioRegime = field(default_factory=RadioRegime)
    storage: StoragePressure = field(default_factory=StoragePressure)
    clocks: ClockRegime = field(default_factory=ClockRegime)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    federation: FederationRegime = field(default_factory=FederationRegime)
    serving: ServingRegime = field(default_factory=ServingRegime)
    standing: StandingQuerySpec | None = None
    #: fault cascade; accepts FaultSchedule | Sequence[ProxyFault]
    faults: FaultSchedule = field(default_factory=FaultSchedule)
    #: sweep grid; accepts SweepAxis | Sequence[SweepAxis] | None
    sweep: tuple[SweepAxis, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenarios need a name")
        # Back-compat shim: a single axis (or None) normalises to a tuple,
        # so `for axis in spec.sweep` is the one reading everywhere.
        if self.sweep is None:
            object.__setattr__(self, "sweep", ())
        elif isinstance(self.sweep, SweepAxis):
            object.__setattr__(self, "sweep", (self.sweep,))
        elif not isinstance(self.sweep, tuple):
            object.__setattr__(self, "sweep", tuple(self.sweep))
        if any(not isinstance(axis, SweepAxis) for axis in self.sweep):
            raise ValueError("sweep must contain SweepAxis instances")
        parameters = [axis.parameter for axis in self.sweep]
        if len(set(parameters)) != len(parameters):
            raise ValueError(
                f"sweep axes must vary distinct parameters, got {parameters}"
            )
        # Back-compat shim: a bare ProxyFault sequence normalises to a
        # FaultSchedule, which carries the ordered-fractions validation.
        if not isinstance(self.faults, FaultSchedule):
            object.__setattr__(self, "faults", FaultSchedule(tuple(self.faults)))
        if self.trace.align_to_bursts and self.radio.burst_loss_probability is None:
            raise ValueError(
                "align_to_bursts phase-locks events to interference bursts; "
                "the radio regime has none (set burst_loss_probability)"
            )
        if self.faults.align_to_bursts and self.radio.burst_loss_probability is None:
            raise ValueError(
                "the fault schedule phase-locks deaths to interference "
                "bursts; the radio regime has none (set "
                "burst_loss_probability)"
            )

    @property
    def injects_events(self) -> bool:
        """Whether the scenario perturbs the trace with ground-truth events."""
        return self.trace.event_rate_per_sensor_day > 0 or self.trace.align_to_bursts

    def sweep_points(self) -> list[dict[str, float]]:
        """The sweep grid's coordinates: one ``{parameter: value}`` dict per
        cross-product point, axes varying rightmost-fastest (itertools
        order).  ``[{}]`` when the scenario sweeps nothing, so callers can
        always iterate."""
        points: list[dict[str, float]] = [{}]
        for axis in self.sweep:
            points = [
                {**point, axis.parameter: value}
                for point in points
                for value in axis.values
            ]
        return points
