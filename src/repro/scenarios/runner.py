"""Campaign execution: a matrix of scenarios over both harnesses.

The :class:`CampaignRunner` turns each :class:`~repro.scenarios.spec.
ScenarioSpec` into concrete runs — one per harness (single-cell
:class:`~repro.core.system.PrestoSystem`, federated
:class:`~repro.core.federation.FederatedSystem`, both built from
:class:`~repro.core.system.PrestoCell`) and per duty-cycle point — and
collects every run's :class:`~repro.core.system.SystemReport` /
:class:`~repro.core.federation.FederatedReport` into one consolidated
:class:`CampaignReport` with per-scenario success rate, mean error,
energy per sensor-day, answer mix and notification recall against the
injected ground truth.

A scenario's sweep is a *grid*: the cross product of its
:class:`~repro.scenarios.spec.SweepAxis` list expands into one variant
row per point, each row carrying its axis-coordinate dict
(``ScenarioResult.sweep_point``), and :meth:`CampaignReport.grid`
re-assembles any two axes into the 2-D trade-off table — flash capacity
x loss probability is the wear-out knee, replica sync interval x
arrival rate the staleness/cost knee.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    FederatedReport,
    FederatedSystem,
    FederationConfig,
    PrestoConfig,
    PrestoSystem,
)
from repro.core.continuous import ContinuousQuery, Notification, TriggerKind
from repro.core.system import SystemReport
from repro.radio.link import LinkConfig
from repro.scenarios.spec import SWEEP_TABLE, ScenarioSpec, StandingQuerySpec
from repro.serving import ServingConfig
from repro.simulation.pool import map_tasks, resolve_workers
from repro.simulation.randomness import seeded_rng
from repro.sync.clock import ClockModel
from repro.traces.events import (
    EventKind,
    InjectedEvent,
    inject_events,
    inject_events_at,
)
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator, TraceSet
from repro.traces.workload import (
    Query,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    ShardedWorkloadGenerator,
)

#: the two harness flavours a scenario can run over
HARNESSES = ("single", "federated")

#: epochs of slack around an injected event inside which a notification counts
RECALL_ONSET_SLACK_EPOCHS = 2
RECALL_TAIL_SLACK_EPOCHS = 4

#: every campaign samples the Intel-Lab trace at its native epoch
EPOCH_S = 31.0

#: campaign runs are short: refit every three hours from a one-hour cold start
REFIT_INTERVAL_S = 3 * 3600.0
MIN_TRAINING_EPOCHS = 128


@dataclass(frozen=True)
class CampaignConfig:
    """Deployment sizing shared by every run of one campaign."""

    n_sensors: int = 6
    duration_days: float = 0.75
    seed: int = 7
    #: default query arrival rate; a scenario's :class:`WorkloadSpec` can
    #: override it (and add surge windows) per regime
    arrival_rate_per_s: float = 1 / 240.0
    harnesses: tuple[str, ...] = HARNESSES
    n_proxies: int = 3
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.n_sensors < 1:
            raise ValueError("need >= 1 sensor")
        if self.duration_days <= 0:
            raise ValueError("duration must be positive")
        if not self.harnesses or any(h not in HARNESSES for h in self.harnesses):
            raise ValueError(f"harnesses must be drawn from {HARNESSES}")
        if self.n_proxies < 1:
            raise ValueError("need >= 1 proxy")
        # n_proxies only matters when the federated harness actually runs;
        # a single-cell campaign on a tiny fleet must not be rejected for
        # an unused default.
        if "federated" in self.harnesses and self.n_proxies > self.n_sensors:
            raise ValueError("proxies must be in [1, n_sensors]")

    @property
    def duration_s(self) -> float:
        """Run horizon in seconds."""
        return self.duration_days * 86_400.0

    @classmethod
    def smoke(cls) -> "CampaignConfig":
        """CI-sized campaign: small fleet, short horizon, 2 proxies.

        The seed is chosen so the event-storm scenario draws positive
        injected events even at this tiny scale — the notification-recall
        path must be exercised by CI, not just at full scale.
        """
        return cls(
            n_sensors=4,
            duration_days=0.3,
            seed=3,
            n_proxies=2,
            arrival_rate_per_s=1 / 300.0,
        )


#: the report summary keys a campaign row carries, every run and federated
#: runs only; three take a shorter name in the row
ROW_METRICS = (
    "success_rate",
    "mean_error",
    "sensor_energy_per_day_j",
    "answered_fraction",
    "mean_latency_s",
    "delivery_ratio",
    "archive_aged_segments",
    "segments_offloaded",
    "remote_reads",
    "archive_fidelity_retained",
)
FEDERATED_ROW_METRICS = (
    "failovers",
    "unroutable",
    "max_replica_staleness_s",
    "failover_mean_error",
    "n_partitions",
)
ROW_RENAMES = {
    "sensor_energy_per_day_j": "energy_per_day_j",
    "archive_aged_segments": "aged_segments",
    "archive_fidelity_retained": "fidelity_retained",
}
#: nested report sections a row carries whole, by summary key prefix
ROW_SECTIONS = ("serving_", "coding_")


@dataclass
class ScenarioResult:
    """One (scenario, harness, variant) run's outcome."""

    scenario: str
    harness: str
    variant: str                 # e.g. "lpl=2s" / "flash=5280,loss=0.4"
    report: SystemReport         # FederatedReport for the federated harness
    #: this run's sweep-grid coordinates ({parameter: value}, axis order);
    #: empty for unswept scenarios.  This — not the variant label — is the
    #: identity drift tracking matches rows by.
    sweep_point: dict[str, float] = field(default_factory=dict)
    events_injected: int = 0
    qualifying_events: int = 0   # positive injected events a trigger should catch
    notifications: int = 0
    notification_recall: float = float("nan")
    #: slowest notification of a caught qualifying event, from event onset
    worst_notification_latency_s: float = float("nan")
    bursts_scheduled: int = 0
    faults_applied: int = 0
    #: per-death replica staleness at failover (federated runs with faults)
    replica_staleness_s: tuple[float, ...] = ()
    #: wall-clock cost of this variant's simulation (the only row field
    #: allowed to differ between serial and parallel executions of the
    #: same campaign — everything else is seed-pinned byte-identical)
    wall_clock_s: float = 0.0

    @property
    def label(self) -> str:
        """Human-readable run id."""
        suffix = f" [{self.variant}]" if self.variant else ""
        return f"{self.scenario}/{self.harness}{suffix}"

    def _fidelity_efficiency(self, summary: dict[str, float]) -> float:
        """Fidelity retained per sensor joule per byte of fleet flash.

        The ``offload_vs_aging`` grid metric: how much recoverable history
        each unit of energy and flash bought.  NaN when the run recorded no
        energy or no flash sizing (nothing meaningful to normalise by).
        """
        denominator = summary["sensor_energy_j"] * self.report.flash_capacity_bytes
        if denominator <= 0:
            return float("nan")
        return summary["archive_fidelity_retained"] / denominator

    def row(self) -> dict[str, float | str | dict[str, float]]:
        """Flat metrics row for tables and JSON.

        The report's metrics are taken from its summary by key
        (:data:`ROW_METRICS`, renamed by :data:`ROW_RENAMES`), federated
        runs adding :data:`FEDERATED_ROW_METRICS` and every key of their
        serving / coding sections.
        """
        summary = self.report.summary()
        keys = ROW_METRICS
        if isinstance(self.report, FederatedReport):
            keys += FEDERATED_ROW_METRICS
        return {
            "scenario": self.scenario,
            "harness": self.harness,
            "variant": self.variant,
            "sweep": dict(self.sweep_point),
            **{ROW_RENAMES.get(key, key): summary[key] for key in keys},
            "notification_recall": self.notification_recall,
            "notifications": float(self.notifications),
            "events_injected": float(self.events_injected),
            "worst_notification_latency_s": self.worst_notification_latency_s,
            "fidelity_per_joule_per_flash_byte": self._fidelity_efficiency(summary),
            "wall_clock_s": self.wall_clock_s,
            **{key: value for key, value in summary.items() if key.startswith(ROW_SECTIONS)},
        }


@dataclass(frozen=True)
class SweepGrid:
    """One metric of one scenario re-assembled over two sweep axes.

    ``cells[iy][ix]`` is the metric at ``(y_values[iy], x_values[ix])``;
    ``None`` marks a grid point the campaign never ran (possible when
    variant rows were filtered before assembly).  Axis values keep the
    spec's declaration order — a descending wear-out axis renders as the
    knee it is, not re-sorted.
    """

    scenario: str
    harness: str
    metric: str
    x_parameter: str
    y_parameter: str
    x_values: tuple[float, ...]
    y_values: tuple[float, ...]
    cells: tuple[tuple[float | None, ...], ...]

    #: heatmap shades, low to high, over the grid's finite value range
    HEAT_GLYPHS = "·░▒▓█"

    def _heat_glyph(self, cell: float | None, lo: float, hi: float) -> str:
        """The shade for one cell (``-`` for missing/non-finite cells)."""
        if cell is None or not math.isfinite(cell):
            return "-"
        if hi <= lo:
            return self.HEAT_GLYPHS[-1]
        position = (cell - lo) / (hi - lo)
        index = min(int(position * len(self.HEAT_GLYPHS)), len(self.HEAT_GLYPHS) - 1)
        return self.HEAT_GLYPHS[index]

    def to_table(self) -> str:
        """Aligned fixed-width text rendering of the 2-D table.

        Below the numeric rows, a unicode heatmap repeats the grid with
        each cell shaded by its position in the grid's value range
        (``·░▒▓█``, low to high) — the knee is visible at a glance in the
        same column alignment as the numbers.
        """
        title = (
            f"{self.scenario}/{self.harness} — {self.metric} "
            f"(rows: {self.y_parameter}, columns: {self.x_parameter})"
        )
        stub = self.y_parameter
        columns = [f"{value:g}" for value in self.x_values]
        finite = [
            cell
            for row in self.cells
            for cell in row
            if cell is not None and math.isfinite(cell) and cell != 0.0
        ]
        # Metrics living below the fixed-point resolution (e.g. fidelity
        # per joule per flash byte, ~1e-6) render in scientific notation.
        tiny = bool(finite) and max(abs(cell) for cell in finite) < 1e-3
        fmt = "{:.3e}" if tiny else "{:.3f}"
        width = max(8, *(len(label) for label in columns), 9 if tiny else 0) + 2
        stub_width = max(len(stub), *(len(f"{v:g}") for v in self.y_values))
        lines = [
            title,
            f"{stub:<{stub_width}}"
            + "".join(f"{label:>{width}}" for label in columns),
        ]
        for y_value, row in zip(self.y_values, self.cells):
            rendered = [
                "-" if cell is None else fmt.format(cell) for cell in row
            ]
            lines.append(
                f"{y_value:<{stub_width}g}"
                + "".join(f"{cell:>{width}}" for cell in rendered)
            )
        finite = [
            cell
            for row in self.cells
            for cell in row
            if cell is not None and math.isfinite(cell)
        ]
        if finite:
            lo, hi = min(finite), max(finite)
            lines.append(
                f"heatmap ({self.HEAT_GLYPHS} = {lo:g}→{hi:g})"
            )
            for y_value, row in zip(self.y_values, self.cells):
                lines.append(
                    f"{y_value:<{stub_width}g}"
                    + "".join(
                        f"{self._heat_glyph(cell, lo, hi):>{width}}"
                        for cell in row
                    )
                )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The grid as CSV: first column is the y axis, one column per
        x value, full-precision cell values (empty cell = never ran)."""
        header = [f"{self.y_parameter}/{self.x_parameter}"] + [
            f"{value:g}" for value in self.x_values
        ]
        lines = [",".join(header)]
        for y_value, row in zip(self.y_values, self.cells):
            lines.append(
                ",".join(
                    [f"{y_value:g}"]
                    + ["" if cell is None else repr(float(cell)) for cell in row]
                )
            )
        return "\n".join(lines) + "\n"


@dataclass
class CampaignReport:
    """Consolidated outcome of one campaign."""

    config: CampaignConfig
    results: list[ScenarioResult] = field(default_factory=list)
    #: resolved worker count the campaign executed with (1 = serial)
    jobs: int = 1
    #: end-to-end campaign wall clock (set by :meth:`CampaignRunner.run`)
    wall_clock_s: float = 0.0

    @property
    def variant_wall_clock_s(self) -> float:
        """Sum of per-variant wall clocks — the serial-equivalent cost.

        With ``jobs > 1`` this exceeds :attr:`wall_clock_s`; the ratio is
        the campaign's parallel :attr:`speedup`.
        """
        return float(sum(result.wall_clock_s for result in self.results))

    @property
    def speedup(self) -> float:
        """Serial-equivalent cost over actual wall clock (NaN untimed)."""
        if self.wall_clock_s <= 0:
            return float("nan")
        return self.variant_wall_clock_s / self.wall_clock_s

    def rows(self) -> list[dict[str, float | str | dict[str, float]]]:
        """One flat metrics dict per run."""
        return [result.row() for result in self.results]

    def scenarios(self) -> list[str]:
        """Distinct scenario names, campaign order."""
        seen: list[str] = []
        for result in self.results:
            if result.scenario not in seen:
                seen.append(result.scenario)
        return seen

    def for_scenario(self, name: str) -> list[ScenarioResult]:
        """All runs of one scenario."""
        return [r for r in self.results if r.scenario == name]

    def grid(
        self,
        metric: str,
        x_axis: str,
        y_axis: str,
        scenario: str | None = None,
        harness: str | None = None,
        fix: dict[str, float] | None = None,
    ) -> SweepGrid:
        """Re-assemble *metric* over two sweep axes as a :class:`SweepGrid`.

        Selects the runs whose :attr:`~ScenarioResult.sweep_point` carries
        both *x_axis* and *y_axis* coordinates; *scenario* / *harness* may
        be omitted when the campaign leaves only one candidate (a campaign
        with one grid scenario run over one harness needs neither).
        *fix* slices a 3+-axis grid: ``fix={"loss_probability": 0.05}``
        keeps only the runs pinning that coordinate, so the remaining two
        axes chart cleanly (chart a cube two axes at a time).
        Raises :class:`ValueError` on an ambiguous selection or when two
        runs land on the same grid point (e.g. a grid combined with
        duty-cycle points — filter with *harness* and assemble per point).
        """
        overlap = set(fix or ()) & {x_axis, y_axis}
        if overlap:
            raise ValueError(
                f"fix pins {sorted(overlap)} which are chart axes; "
                "fix only the axes the chart leaves out"
            )
        candidates = [
            r
            for r in self.results
            if x_axis in r.sweep_point and y_axis in r.sweep_point
        ]
        for parameter, value in (fix or {}).items():
            candidates = [
                r
                for r in candidates
                if parameter in r.sweep_point
                and r.sweep_point[parameter] == float(value)
            ]
        if scenario is not None:
            candidates = [r for r in candidates if r.scenario == scenario]
        if harness is not None:
            candidates = [r for r in candidates if r.harness == harness]
        if not candidates:
            raise ValueError(
                f"no runs sweep both {x_axis!r} and {y_axis!r}"
                + (f" for scenario {scenario!r}" if scenario else "")
                + (f" on harness {harness!r}" if harness else "")
                + (f" at fix={fix}" if fix else "")
            )
        scenarios = {r.scenario for r in candidates}
        if len(scenarios) > 1:
            raise ValueError(
                f"grid is ambiguous across scenarios {sorted(scenarios)}; "
                "pass scenario="
            )
        harnesses = {r.harness for r in candidates}
        if len(harnesses) > 1:
            raise ValueError(
                f"grid is ambiguous across harnesses {sorted(harnesses)}; "
                "pass harness="
            )
        x_values: list[float] = []
        y_values: list[float] = []
        cells: dict[tuple[float, float], float] = {}
        for result in candidates:
            x = result.sweep_point[x_axis]
            y = result.sweep_point[y_axis]
            if x not in x_values:
                x_values.append(x)
            if y not in y_values:
                y_values.append(y)
            if (x, y) in cells:
                raise ValueError(
                    f"duplicate grid point ({x_axis}={x:g}, {y_axis}={y:g}) "
                    f"in {result.label}; filter before assembling the grid"
                )
            row = result.row()
            if metric not in row:
                raise ValueError(
                    f"unknown grid metric {metric!r}; row has {sorted(row)}"
                )
            cells[(x, y)] = float(row[metric])  # type: ignore[arg-type]
        return SweepGrid(
            scenario=candidates[0].scenario,
            harness=candidates[0].harness,
            metric=metric,
            x_parameter=x_axis,
            y_parameter=y_axis,
            x_values=tuple(x_values),
            y_values=tuple(y_values),
            cells=tuple(
                tuple(cells.get((x, y)) for x in x_values) for y in y_values
            ),
        )

    def grids(self, metric: str = "success_rate") -> list[SweepGrid]:
        """Assembled 2-D grids for every (grid scenario, harness) run.

        Scenarios whose runs carry two or more sweep coordinates are
        assembled with their first declared axis as rows and their last
        as columns; combinations :meth:`grid` rejects (e.g. a grid
        crossed with duty-cycle points) are skipped.
        """
        grids: list[SweepGrid] = []
        for name in self.scenarios():
            gridded = [
                r for r in self.for_scenario(name) if len(r.sweep_point) >= 2
            ]
            if not gridded:
                continue
            parameters = list(gridded[0].sweep_point)
            for harness in self.config.harnesses:
                try:
                    grid = self.grid(
                        metric,
                        parameters[-1],
                        parameters[0],
                        scenario=name,
                        harness=harness,
                    )
                except ValueError:
                    continue
                grids.append(grid)
        return grids

    def grid_tables(self, metric: str = "success_rate") -> list[str]:
        """Rendered 2-D tables (with heatmaps) for every assembled grid.

        This is the shared rendering the CLI and the campaign benchmark
        both append after the main table.
        """
        return [grid.to_table() for grid in self.grids(metric)]

    def to_table(self) -> str:
        """Fixed-width summary table of every run."""
        variant_width = max(
            [12] + [len(result.variant) for result in self.results]
        )
        header = (
            f"{'scenario':<20} {'harness':<9} {'variant':<{variant_width}} "
            f"{'success':>7} "
            f"{'err':>6} {'E/day J':>8} {'answered':>8} {'recall':>6} "
            f"{'notif':>5}  notes"
        )
        lines = [header, "-" * len(header)]
        for result in self.results:
            report = result.report
            notes = []
            if result.bursts_scheduled:
                notes.append(f"bursts={result.bursts_scheduled}")
            if result.faults_applied:
                notes.append(f"faults={result.faults_applied}")
            if isinstance(report, FederatedReport):
                if report.failovers:
                    notes.append(f"failovers={report.failovers}")
                if report.unroutable:
                    notes.append(f"unroutable={report.unroutable}")
            finite_staleness = [
                age for age in result.replica_staleness_s if np.isfinite(age)
            ]
            if finite_staleness:
                notes.append(f"stale<={max(finite_staleness):.0f}s")
            if np.isfinite(result.worst_notification_latency_s):
                notes.append(
                    f"notif_lat<={result.worst_notification_latency_s:.0f}s"
                )
            lines.append(
                f"{result.scenario:<20} {result.harness:<9} "
                f"{result.variant or '-':<{variant_width}} "
                f"{report.success_rate:>7.3f} "
                f"{report.mean_error:>6.3f} "
                f"{report.sensor_energy_per_day_j:>8.2f} "
                f"{report.answered_fraction:>8.3f} "
                f"{result.notification_recall:>6.2f} "
                f"{result.notifications:>5d}  {' '.join(notes)}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class _WorkItem:
    """One variant of the flattened campaign cross product.

    Items are picklable (frozen dataclass over a frozen spec and plain
    values), so the pool can ship them to workers; the prepared trace is
    *not* carried here — workers resolve it from their per-process
    scenario table via ``scenario_index``, so each worker receives every
    trace at most once instead of once per variant.
    """

    scenario_index: int           # into the runner's prepared-trace table
    spec: ScenarioSpec
    harness: str
    sweep_point: dict[str, float] | None
    duty_cycle_point: float | None

    @property
    def label(self) -> str:
        """Human-readable id for progress and error lines."""
        variant = CampaignRunner._variant_label(
            self.duty_cycle_point, self.sweep_point
        )
        suffix = f" [{variant}]" if variant else ""
        return f"{self.spec.name}/{self.harness}{suffix}"


def _run_variant(
    shared: tuple[CampaignRunner, list], item: _WorkItem
) -> ScenarioResult:
    """One variant of a campaign — the function every ``--jobs`` executes.

    *shared* is the runner and its prepared-trace table (one entry per
    scenario).  A failure names the variant and keeps its meaning at every
    worker count: a ``ValueError`` (an invalid spec) stays one, so the CLI
    reports it as bad input, and anything else is a ``RuntimeError``.
    """
    runner, prepared = shared
    try:
        return runner.run_one(
            item.spec,
            item.harness,
            item.duty_cycle_point,
            sweep_point=item.sweep_point,
            _prepared=prepared[item.scenario_index],
        )
    except ValueError as error:
        raise ValueError(f"campaign variant {item.label}: {error}") from error
    except Exception as error:
        raise RuntimeError(
            f"campaign variant {item.label} failed: {error!r}"
        ) from error


class CampaignRunner:
    """Executes scenario specs over the single-cell and federated harnesses.

    Campaigns are embarrassingly parallel: every variant row is an
    independent deterministic simulation, so ``run(jobs=N)`` fans the
    flattened ``(scenario, harness, sweep point, duty-cycle point)`` cross
    product over a process pool (:func:`~repro.simulation.pool.map_tasks`).
    Each variant seeds its RNGs from :meth:`variant_seed` — a stable hash
    of the campaign seed and the variant's coordinates — so serial and
    parallel runs produce byte-identical rows, in the same deterministic
    order.
    """

    def __init__(self, config: CampaignConfig | None = None) -> None:
        self.config = config or CampaignConfig()

    # -- campaign entry ----------------------------------------------------------

    @staticmethod
    def resolve_jobs(jobs: int | None = None) -> int:
        """The worker count to run with: *jobs*, default 1.

        ``0`` means one worker per CPU core.
        """
        if jobs is None:
            return 1
        if jobs < 0:
            raise ValueError(f"jobs must be >= 0 (0 = all cores), got {jobs}")
        return resolve_workers(jobs)

    def variant_seed(
        self,
        scenario: str,
        harness: str,
        sweep_point: dict[str, float] | None = None,
        duty_cycle_point: float | None = None,
    ) -> int:
        """Deterministic per-variant RNG seed.

        Derived by hashing ``(campaign seed, scenario name, harness,
        canonicalised sweep coordinates, duty-cycle point)`` — a pure
        function of the variant's identity, never of execution order — so
        a variant draws the same randomness whether it runs serially, in
        any worker of any pool size, or alone through :meth:`run_one`.
        Coordinates are canonicalised (sorted by parameter, values as
        float ``repr``) so axis declaration order cannot change the seed.
        """
        coordinates = ",".join(
            f"{parameter}={float(value)!r}"
            for parameter, value in sorted((sweep_point or {}).items())
        )
        duty = "-" if duty_cycle_point is None else repr(float(duty_cycle_point))
        key = f"{self.config.seed}|{scenario}|{harness}|{coordinates}|{duty}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") % (2**31)

    def work_items(
        self, scenarios: list[ScenarioSpec] | tuple[ScenarioSpec, ...]
    ) -> list[_WorkItem]:
        """Flatten the campaign cross product into independent work items.

        One item per ``(scenario, harness, sweep point, duty-cycle
        point)``; item order is the campaign's deterministic result order
        regardless of how (or where) the items execute.
        """
        items: list[_WorkItem] = []
        for scenario_index, spec in enumerate(scenarios):
            points: tuple[float | None, ...] = (
                spec.radio.duty_cycle_points or (None,)
            )
            sweep_points = spec.sweep_points()
            for harness in self.config.harnesses:
                for sweep_point in sweep_points:
                    for point in points:
                        items.append(
                            _WorkItem(
                                scenario_index=scenario_index,
                                spec=spec,
                                harness=harness,
                                sweep_point=sweep_point or None,
                                duty_cycle_point=point,
                            )
                        )
        return items

    def run(
        self,
        scenarios: list[ScenarioSpec] | tuple[ScenarioSpec, ...],
        jobs: int | None = None,
    ) -> CampaignReport:
        """Run every scenario over every configured harness and grid point.

        A scenario's sweep axes expand as their cross product
        (:meth:`~repro.scenarios.spec.ScenarioSpec.sweep_points`): two
        3-value axes produce nine variant rows per harness, each tagged
        with its ``{parameter: value}`` coordinates.

        *jobs* (default 1) fans the variants over a process pool; ``0``
        means one worker per core.  Whatever the worker count, the report's
        rows are byte-identical and in the same order — only the
        per-variant ``wall_clock_s`` timing fields differ — and each
        completed variant streams a progress line to stderr.  Every count
        runs the variants through one task function, so a variant that
        raises fails the campaign the same way at every count (see
        :func:`_run_variant`), and a pool that cannot start raises too:
        nothing falls back to serial execution.
        """
        resolved = self.resolve_jobs(jobs)
        started = time.perf_counter()
        # One trace per scenario: every harness and grid point replays the
        # identical perturbed signal (and saves the regeneration).  No
        # supported sweep parameter touches trace generation, so the share
        # is exact across the whole grid too.  The shared arrays are
        # frozen read-only: serial variants must not mutate what their
        # siblings will replay (workers operate on copies regardless).
        prepared = [self._build_trace(spec) for spec in scenarios]
        items = self.work_items(scenarios)
        finished = itertools.count(1)

        def progress(index: int, result: ScenarioResult) -> None:
            self._progress(
                f"[{next(finished)}/{len(items)}] {items[index].label} "
                f"{result.wall_clock_s:.1f}s"
            )

        results = map_tasks(
            _run_variant, (self, prepared), items, resolved, on_result=progress
        )
        return CampaignReport(
            config=self.config,
            results=results,
            jobs=resolved,
            wall_clock_s=time.perf_counter() - started,
        )

    @staticmethod
    def _progress(message: str) -> None:
        """Streamed per-variant progress — stderr, so stdout stays a report."""
        print(message, file=sys.stderr, flush=True)

    @staticmethod
    def _apply_sweep(
        spec: ScenarioSpec, point: dict[str, float] | None
    ) -> ScenarioSpec:
        """The spec with every axis pinned to *point*'s coordinates."""
        if not point:
            return spec
        axes = {axis.parameter for axis in spec.sweep}
        unknown = set(point) - axes
        if unknown:
            raise ValueError(
                f"sweep point pins {sorted(unknown)} but the scenario has "
                f"no such axis (axes: {sorted(axes) or 'none'})"
            )
        for parameter, value in point.items():
            spec = SWEEP_TABLE[parameter].apply(spec, value)
        if not spec.serving.enabled and (
            "zipf_s" in point or "memo_ttl_s" in point
        ):
            raise ValueError(
                "sweeping zipf_s/memo_ttl_s does nothing with the serving "
                "front-end off; set serving.offered_qps (or sweep "
                "offered_qps on the same grid)"
            )
        return spec

    def run_one(
        self,
        spec: ScenarioSpec,
        harness: str,
        duty_cycle_point: float | None = None,
        sweep_point: dict[str, float] | None = None,
        _prepared: tuple[TraceSet, TraceSet, list[InjectedEvent]] | None = None,
    ) -> ScenarioResult:
        """Run one scenario on one harness (optionally at one grid point).

        *sweep_point* maps axis parameters to the values this run pins
        them at — one coordinate per :class:`SweepAxis` of the spec.

        Every RNG in the run seeds off :meth:`variant_seed` (the trace is
        the exception: it is shared across the scenario's whole grid and
        keeps the campaign seed), so this method returns byte-identical
        results wherever and whenever the variant executes.
        """
        if harness not in HARNESSES:
            raise ValueError(f"unknown harness {harness!r}; expected {HARNESSES}")
        started = time.perf_counter()
        cfg = self.config
        seed = self.variant_seed(spec.name, harness, sweep_point, duty_cycle_point)
        base, trace, events = (
            _prepared if _prepared is not None else self._build_trace(spec)
        )
        spec = self._apply_sweep(spec, sweep_point)
        presto = self._presto_config(spec, duty_cycle_point)
        clock_model = ClockModel(
            offset_std_s=spec.clocks.offset_std_s,
            skew_ppm_std=spec.clocks.skew_ppm_std,
        )
        faults_applied = 0
        if harness == "single":
            system = PrestoSystem(
                trace,
                presto,
                seed=seed + 1,
                model_clocks=spec.clocks.model_clocks,
                clock_model=clock_model,
            )
            shards = None
            n_cells = 1
        else:
            system = FederatedSystem(
                trace,
                presto,
                federation=self._federation_config(spec),
                seed=seed + 1,
                model_clocks=spec.clocks.model_clocks,
                clock_model=clock_model,
                serving=self._serving_config(spec),
            )
            shards = system.shards
            n_cells = len(shards)
            faults_applied = self._schedule_faults(spec, system)
        self._arm_standing_queries(spec, base, system)
        bursts = self._schedule_bursts(spec, system, n_cells)
        queries = self._generate_queries(spec, trace, shards, seed)
        report = system.run(queries=queries, duration_s=cfg.duration_s)
        notifications = system.continuous.notifications
        recall, qualifying, worst_latency = self._notification_recall(
            spec, events, notifications
        )
        return ScenarioResult(
            scenario=spec.name,
            harness=harness,
            variant=self._variant_label(duty_cycle_point, sweep_point),
            sweep_point=dict(sweep_point or {}),
            report=report,
            events_injected=len(events),
            qualifying_events=qualifying,
            notifications=len(notifications),
            notification_recall=recall,
            worst_notification_latency_s=worst_latency,
            bursts_scheduled=bursts,
            faults_applied=faults_applied,
            replica_staleness_s=(
                report.fault_staleness_s if isinstance(report, FederatedReport) else ()
            ),
            wall_clock_s=time.perf_counter() - started,
        )

    @staticmethod
    def _variant_label(
        duty_cycle_point: float | None,
        sweep_point: dict[str, float] | None,
    ) -> str:
        """Label distinguishing this run among the scenario's grid points.

        Labels are for humans; the coordinate dict itself travels in
        :attr:`ScenarioResult.sweep_point` and is what row matching uses.
        """
        parts = [
            f"{SWEEP_TABLE[parameter].label}={value:g}"
            for parameter, value in (sweep_point or {}).items()
        ]
        if duty_cycle_point is not None:
            parts.append(f"lpl={duty_cycle_point:g}s")
        return ",".join(parts)

    def _federation_config(self, spec: ScenarioSpec) -> FederationConfig:
        """The federated harness's config: campaign sizing + spec overrides."""
        cfg = self.config
        kwargs: dict[str, float | int | str] = dict(
            n_proxies=cfg.n_proxies,
            replication_factor=cfg.replication_factor,
        )
        if spec.federation.replica_sync_interval_s is not None:
            kwargs["replica_sync_interval_s"] = (
                spec.federation.replica_sync_interval_s
            )
        if spec.federation.partitions is not None:
            kwargs["partitions"] = spec.federation.partitions
        if spec.federation.replica_coding is not None:
            kwargs["replica_coding"] = spec.federation.replica_coding
        if spec.federation.coding_k is not None:
            kwargs["coding_k"] = spec.federation.coding_k
        if spec.federation.coding_n is not None:
            kwargs["coding_n"] = spec.federation.coding_n
        return FederationConfig(**kwargs)  # type: ignore[arg-type]

    @staticmethod
    def _serving_config(spec: ScenarioSpec) -> ServingConfig | None:
        """The spec's serving front-end config (None when disabled)."""
        if not spec.serving.enabled:
            return None
        return ServingConfig(
            offered_qps=spec.serving.offered_qps,
            zipf_s=spec.serving.zipf_s,
            memo_ttl_s=spec.serving.memo_ttl_s,
        )

    def _generate_queries(
        self,
        spec: ScenarioSpec,
        trace: TraceSet,
        shards: list[list[int]] | None,
        seed: int,
    ) -> list[Query]:
        """The scenario's query stream, including any surge window.

        *seed* is the run's :meth:`variant_seed`; the arrival, surge and
        thinning streams draw from fixed offsets of it.

        Queries start after a warm-up — an hour, clamped for horizons so
        short that a fixed hour would leave an empty arrival interval.  A
        surge is a second, independent Poisson stream at ``(multiplier - 1)
        x rate`` merged over the surge window: the superposition of the
        two is exactly a Poisson process at ``multiplier x rate`` there.

        Surge shaping refines that extra stream.  ``ramp`` / ``decay``
        profiles thin it against a linear envelope (Lewis–Shedler): each
        arrival at position ``p`` in the window survives with probability
        ``p`` (ramp) or ``1 - p`` (decay), yielding an inhomogeneous
        Poisson stream that climbs to — or drains from — the peak rate.
        A ``surge_hotspot_zipf`` exponent re-skews the surge traffic's
        sensor-popularity law, concentrating the stampede on hot sensors
        while background traffic keeps the workload default.
        """
        cfg = self.config
        workload = spec.workload
        rate = (
            workload.arrival_rate_per_s
            if workload.arrival_rate_per_s is not None
            else cfg.arrival_rate_per_s
        )

        def make_generator(
            rate_per_s: float, seed: int, zipf_exponent: float | None = None
        ) -> QueryWorkloadGenerator:
            kwargs: dict[str, float] = {"arrival_rate_per_s": rate_per_s}
            if zipf_exponent is not None:
                kwargs["zipf_exponent"] = zipf_exponent
            config = QueryWorkloadConfig(**kwargs)
            rng = seeded_rng(seed)
            if shards is None:
                return QueryWorkloadGenerator(trace.n_sensors, config, rng)
            return ShardedWorkloadGenerator(shards, config, rng)

        warmup_s = min(3600.0, 0.1 * cfg.duration_s)
        queries = make_generator(rate, seed + 2).generate(
            warmup_s, cfg.duration_s
        )
        if workload.surges:
            start = max(workload.surge_start_fraction * cfg.duration_s, warmup_s)
            end = min(
                (workload.surge_start_fraction + workload.surge_duration_fraction)
                * cfg.duration_s,
                cfg.duration_s,
            )
            if end > start:
                extra = make_generator(
                    rate * (workload.surge_multiplier - 1.0),
                    seed + 23,
                    zipf_exponent=workload.surge_hotspot_zipf,
                ).generate(start, end)
                if workload.surge_profile != "flat":
                    thinning = seeded_rng(seed + 29)
                    span = end - start
                    extra = [
                        query
                        for query in extra
                        if thinning.random()
                        < (
                            (query.arrival_time - start) / span
                            if workload.surge_profile == "ramp"
                            else (end - query.arrival_time) / span
                        )
                    ]
                merged = sorted(
                    queries + extra, key=lambda query: query.arrival_time
                )
                queries = [
                    dataclasses.replace(query, query_id=index)
                    for index, query in enumerate(merged)
                ]
        return queries

    # -- run assembly ------------------------------------------------------------

    @staticmethod
    def _freeze_trace(trace: TraceSet) -> TraceSet:
        """Mark a prepared trace's arrays read-only.

        One prepared trace is shared by every variant of a scenario (and,
        serially, every variant runs against the *same* object — workers
        at least get pickled copies).  Nothing in the simulation stack
        writes to trace arrays, but that used to be incidental; freezing
        turns an accidental in-place perturbation into an immediate
        ``ValueError`` instead of silent cross-variant contamination.
        """
        for array in (trace.timestamps, trace.values, trace.clean_values):
            if array is not None:
                array.setflags(write=False)
        return trace

    def _build_trace(
        self, spec: ScenarioSpec
    ) -> tuple[TraceSet, TraceSet, list[InjectedEvent]]:
        """Generate the base trace and apply the spec's perturbations.

        The returned traces are frozen read-only — they are shared by
        every variant of the scenario's grid and must not be mutated.
        """
        cfg = self.config
        trace_config = IntelLabConfig(
            n_sensors=cfg.n_sensors,
            duration_s=cfg.duration_s,
            epoch_s=EPOCH_S,
            dropout_rate=spec.trace.dropout_rate,
        )
        base = self._freeze_trace(
            IntelLabGenerator(trace_config, seed=cfg.seed).generate()
        )
        if not spec.injects_events:
            return base, base, []
        if spec.trace.align_to_bursts:
            # Adversarial timing: one event per sensor at every burst onset,
            # exactly when the channel is at its worst.  Positive STEP
            # events, so ABOVE standing queries always qualify.
            placements = [
                (sensor, int(round(start_s / EPOCH_S)))
                for start_s in self._burst_starts(spec)
                for sensor in range(cfg.n_sensors)
            ]
            trace, events = inject_events_at(
                base,
                placements,
                magnitude=abs(spec.trace.event_magnitude),
                duration_epochs=spec.trace.event_duration_epochs,
                kind=EventKind.STEP,
            )
            return base, self._freeze_trace(trace), events
        trace, events = inject_events(
            base,
            seeded_rng(cfg.seed + 13),
            rate_per_sensor_day=spec.trace.event_rate_per_sensor_day,
            magnitude=spec.trace.event_magnitude,
            duration_epochs=spec.trace.event_duration_epochs,
        )
        return base, self._freeze_trace(trace), events

    def _burst_starts(self, spec: ScenarioSpec) -> list[float]:
        """Virtual start times of every interference burst in the run."""
        if spec.radio.burst_loss_probability is None:
            return []
        starts = []
        start = spec.radio.burst_period_s
        while start < self.config.duration_s:
            starts.append(start)
            start += spec.radio.burst_period_s
        return starts

    def _presto_config(
        self, spec: ScenarioSpec, duty_cycle_point: float | None
    ) -> PrestoConfig:
        return PrestoConfig(
            sample_period_s=EPOCH_S,
            refit_interval_s=REFIT_INTERVAL_S,
            min_training_epochs=MIN_TRAINING_EPOCHS,
            link=LinkConfig(loss_probability=spec.radio.loss_probability),
            default_check_interval_s=(
                duty_cycle_point if duty_cycle_point is not None else 1.0
            ),
            # An explicit duty-cycle point is the experiment variable: hold
            # it fixed by disabling query-driven retuning for that run.
            retune_interval_s=(
                1e12 if duty_cycle_point is not None else 3_600.0
            ),
            flash_capacity_bytes=spec.storage.flash_capacity_bytes,
            flash_capacity_skew=spec.storage.capacity_skew,
            segment_readings=spec.storage.segment_readings,
            aging_max_level=spec.storage.aging_max_level,
            storage_policy=spec.storage.storage_policy,
        )

    def _schedule_faults(self, spec: ScenarioSpec, system: FederatedSystem) -> int:
        """Arm the spec's proxy fault schedule on the federated harness.

        An ``align_to_bursts`` schedule ignores each fault's
        ``at_fraction`` and fires fault ``i`` at the onset of
        interference burst ``i`` — the proxy dies exactly when the
        channel turns hostile.
        """
        n_proxies = len(system.proxy_names)
        onsets = None
        if spec.faults.align_to_bursts:
            onsets = self._burst_starts(spec)
            if len(onsets) < len(spec.faults):
                raise ValueError(
                    f"the fault schedule phase-locks {len(spec.faults)} "
                    f"faults to bursts but the run only schedules "
                    f"{len(onsets)}; shorten the cascade or the burst period"
                )
        for index, fault in enumerate(spec.faults):
            if not -n_proxies <= fault.proxy_index < n_proxies:
                raise ValueError(
                    f"fault proxy_index {fault.proxy_index} out of range "
                    f"for {n_proxies} proxies"
                )
            name = system.proxy_names[fault.proxy_index]
            at_s = (
                onsets[index]
                if onsets is not None
                else fault.at_fraction * self.config.duration_s
            )
            if fault.action == "fail":
                system.schedule_failure(name, at_s)
            else:
                system.schedule_recovery(name, at_s)
        return len(spec.faults)

    def _schedule_bursts(
        self,
        spec: ScenarioSpec,
        system: PrestoSystem | FederatedSystem,
        n_cells: int,
    ) -> int:
        """Schedule interference bursts: elevated loss for burst_duration_s.

        With ``cell_indices`` set, only the addressed cells' networks flip
        — correlated regional loss, the siblings keeping their regime.
        Indices must resolve on every harness the campaign runs; negative
        indices address the wireless tail of the cell list and resolve
        portably (``-1`` is the whole deployment on the single-cell
        harness, the last wireless cell on the federated one).
        """
        radio = spec.radio
        if radio.burst_loss_probability is None:
            return 0
        targets: list[int] | None = None
        if radio.cell_indices:
            for index in radio.cell_indices:
                if not -n_cells <= index < n_cells:
                    raise ValueError(
                        f"burst cell index {index} out of range for "
                        f"{n_cells} cells"
                    )
            targets = [index % n_cells for index in radio.cell_indices]
        normal = LinkConfig(loss_probability=radio.loss_probability)
        burst = LinkConfig(loss_probability=radio.burst_loss_probability)
        count = 0
        start = radio.burst_period_s
        while start < self.config.duration_s:
            end = min(start + radio.burst_duration_s, self.config.duration_s)
            system.schedule_link_change(start, burst, targets)
            system.schedule_link_change(end, normal, targets)
            count += 1
            start += radio.burst_period_s
        return count

    def _arm_standing_queries(
        self,
        spec: ScenarioSpec,
        base: TraceSet,
        system: PrestoSystem | FederatedSystem,
    ) -> None:
        """Register the spec's standing query on every (global) sensor."""
        standing = spec.standing
        if standing is None:
            return
        for sensor in range(base.n_sensors):
            system.continuous.register(
                ContinuousQuery(
                    sensor=sensor,
                    kind=standing.kind,
                    threshold=self._threshold_for(standing, base, sensor),
                    min_interval_s=standing.min_interval_s,
                )
            )

    @staticmethod
    def _threshold_for(
        standing: StandingQuerySpec, base: TraceSet, global_sensor: int
    ) -> float:
        """Armed threshold for one sensor (baseline-relative for levels)."""
        if standing.kind is TriggerKind.DELTA:
            return standing.threshold_offset
        baseline = float(np.nanmean(base.values[global_sensor]))
        if standing.kind is TriggerKind.ABOVE:
            return baseline + standing.threshold_offset
        return baseline - standing.threshold_offset

    def _notification_recall(
        self,
        spec: ScenarioSpec,
        events: list[InjectedEvent],
        notifications: list[Notification],
    ) -> tuple[float, int, float]:
        """(recall, qualifying count, worst latency) against injected truth.

        Qualifying events push the signal *toward* the armed trigger:
        positive-magnitude events for ABOVE, negative for BELOW, any for
        DELTA.  Recall is NaN when the scenario armed no standing query or
        injected no qualifying event — no evidence, not a perfect score.
        Worst latency is the slowest first-notification among *caught*
        events, measured from the event's onset epoch (NaN with no
        catches): the bound adversarial-timing scenarios exist to measure.
        """
        standing = spec.standing
        if standing is None or not events:
            return float("nan"), 0, float("nan")
        if standing.kind is TriggerKind.ABOVE:
            qualifying = [e for e in events if e.magnitude > 0]
        elif standing.kind is TriggerKind.BELOW:
            qualifying = [e for e in events if e.magnitude < 0]
        else:
            qualifying = list(events)
        if not qualifying:
            return float("nan"), 0, float("nan")
        times_by_sensor: dict[int, list[float]] = {}
        for notification in notifications:
            times_by_sensor.setdefault(notification.sensor, []).append(
                notification.timestamp
            )
        hits = 0
        worst_latency = float("nan")
        for event in qualifying:
            event_start = event.start_epoch * EPOCH_S
            onset = event_start - RECALL_ONSET_SLACK_EPOCHS * EPOCH_S
            stop = event.end_epoch * EPOCH_S + RECALL_TAIL_SLACK_EPOCHS * EPOCH_S
            in_window = [
                timestamp
                for timestamp in times_by_sensor.get(event.sensor, [])
                if onset <= timestamp <= stop
            ]
            if in_window:
                hits += 1
                # Early (pre-onset slack) notifications count as latency 0.
                latency = max(min(in_window) - event_start, 0.0)
                if not latency <= worst_latency:  # NaN-safe running max
                    worst_latency = latency
        return hits / len(qualifying), len(qualifying), worst_latency
