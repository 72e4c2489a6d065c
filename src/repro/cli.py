"""Command-line entry points: regenerate any paper artefact from a shell.

Usage::

    python -m repro figure2    [--sensors N] [--days D]
    python -m repro table1     [--sensors N] [--days D]
    python -m repro run        [--sensors N] [--days D] [--model KIND]
    python -m repro models     [--days D]
    python -m repro federation [--proxies P] [--shard-policy POLICY]
                               [--replication-factor R] [--kill-proxy NAME]
                               [--replica-coding full|rs] [--coding-k K]
                               [--coding-n N]
    python -m repro scenarios  [--campaign default|smoke] [--scenario NAME]
                               [--harness both|single|federated] [--list]
                               [--sweep PARAM=START:STOP:STEPS ...]
                               [--storage-policy POLICY]
                               [--jobs N] [--grid-csv DIR]
    python -m repro lint       [PATH ...] [--format text|json] [--runtime]
                               [--rule ID ...] [--list-rules]

``figure2`` and ``table1`` mirror the benchmark harnesses; ``run`` executes
one PRESTO cell and prints its report; ``models`` compares push suppression
across every model family on one trace; ``federation`` shards the
deployment across a directory-routed proxy cluster (optionally killing a
proxy mid-run to exercise replica failover); ``scenarios`` executes the
built-in adverse-regime campaign — including regional loss, failure
cascades, wear-out and workload sweeps, and adversarially timed anomalies
— over both harnesses and prints one consolidated report with per-fault
replica staleness.  ``--jobs N`` fans the campaign's variant cross
product over a process pool (``0`` = one worker per core) with identical
results; per-variant completion streams to stderr.  ``--storage-policy``
pins every chosen scenario's archive response to flash exhaustion
(``local_aging``, ``greedy_offload`` or ``mcf_offload``), and the
``storage_policy`` and ``replica_coding`` sweep axes accept names as
well as their numeric codes.  ``lint`` runs the
determinism analyzer (see :mod:`repro.analysis` and ``docs/analysis.md``)
over the given paths, and with ``--runtime`` additionally replays a
pinned scenario under different hash seeds and serial-vs-parallel jobs,
failing unless the reports are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
from pathlib import Path

import numpy as np

from repro.analysis import RULES, lint_paths, render_json, render_text
from repro.baselines import (
    BbqArchitecture,
    DirectQueryingArchitecture,
    StreamingArchitecture,
    ValuePushArchitecture,
)
from repro.baselines.strategies import (
    FIGURE2_BATCH_MINUTES,
    figure2_sweep,
    figure2_trace_config,
)
from repro.core import FederatedSystem, FederationConfig, PrestoConfig, PrestoSystem
from repro.core.config import REPLICA_CODINGS, SHARD_POLICIES
from repro.core.queries import PAST_KINDS
from repro.scenarios import (
    HARNESSES,
    CampaignConfig,
    CampaignRunner,
    SweepAxis,
    all_scenarios,
    builtin_scenarios,
)
from repro.scenarios.spec import sweep_parameter
from repro.serving import ServingConfig
from repro.storage.offload import STORAGE_POLICIES
from repro.traces.intel_lab import IntelLabConfig, IntelLabGenerator
from repro.traces.workload import (
    QueryKind,
    QueryWorkloadConfig,
    QueryWorkloadGenerator,
    ShardedWorkloadGenerator,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sensors", type=int, default=8, help="mote count")
    parser.add_argument("--days", type=float, default=2.0, help="trace length")
    parser.add_argument("--seed", type=int, default=42, help="experiment seed")


def cmd_figure2(args: argparse.Namespace) -> int:
    """Regenerate Figure 2 (batching-interval energy sweep)."""
    config = figure2_trace_config(n_sensors=args.sensors, duration_days=args.days)
    trace = IntelLabGenerator(config, seed=args.seed).generate()
    series = figure2_sweep(trace)
    names = list(series)
    print(f"{'batch(min)':>12}" + "".join(f"{name:>22}" for name in names))
    for i, minutes in enumerate(FIGURE2_BATCH_MINUTES):
        row = f"{minutes:>12.4g}"
        for name in names:
            row += f"{series[name][i][1]:>22.1f}"
        print(row)
    return 0


def _workload(trace, seed):
    generator = QueryWorkloadGenerator(
        trace.n_sensors,
        QueryWorkloadConfig(arrival_rate_per_s=1 / 180.0),
        np.random.default_rng(seed + 1),
    )
    return generator.generate(3600.0, trace.config.duration_s)


def cmd_table1(args: argparse.Namespace) -> int:
    """Regenerate the quantified Table 1 architecture comparison."""
    trace_config = IntelLabConfig(
        n_sensors=args.sensors, duration_s=args.days * 86_400.0, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=args.seed).generate()
    queries = _workload(trace, args.seed)
    duration = trace_config.duration_s
    print(f"{'architecture':>14} {'E/day(J)':>9} {'lat(ms)':>8} "
          f"{'NOW':>5} {'PAST':>5} {'err':>6}")
    reports = [
        (arch.name, arch.run(queries, duration))
        for arch in (
            DirectQueryingArchitecture(trace, flood=True),
            DirectQueryingArchitecture(trace, flood=False),
            BbqArchitecture(trace),
            StreamingArchitecture(trace),
            ValuePushArchitecture(trace, delta=1.0),
        )
    ]
    presto = PrestoSystem(
        trace,
        PrestoConfig(sample_period_s=31.0, refit_interval_s=6 * 3600.0),
        seed=args.seed,
    ).run(queries=queries)
    # Every row reads the same ScoredAnswers methods; NaN = no such queries.
    for name, report in [*reports, ("presto", presto)]:
        print(f"{name:>14} {report.sensor_energy_per_day_j:>9.2f} "
              f"{report.mean_latency_s * 1000:>8.1f} "
              f"{report.success_rate_kind(QueryKind.NOW):>5.2f} "
              f"{report.success_rate_kind(*PAST_KINDS):>5.2f} "
              f"{report.mean_error:>6.3f}")
    print(f"overall presto success {presto.success_rate:.2f}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """Run one PRESTO cell and print the full report."""
    trace_config = IntelLabConfig(
        n_sensors=args.sensors, duration_s=args.days * 86_400.0, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=args.seed).generate()
    queries = _workload(trace, args.seed)
    config = PrestoConfig.for_model(
        args.model, sample_period_s=31.0, refit_interval_s=6 * 3600.0
    )
    report = PrestoSystem(trace, config, seed=args.seed).run(queries=queries)
    for key, value in report.summary().items():
        print(f"{key:26s} {value:.4f}")
    print(f"{'answer_mix':26s} {report.answer_mix()}")
    print(f"{'energy_by_category':26s}")
    for category, joules in sorted(report.sensor_energy_by_category.items()):
        print(f"  {category:24s} {joules:.3f} J")
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    """Compare push suppression across model families."""
    trace_config = IntelLabConfig(
        n_sensors=4, duration_s=args.days * 86_400.0, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=args.seed).generate()
    print(f"{'model':>10} {'push fraction':>14} {'E/day (J)':>10}")
    kinds = ["arima", "ar", "seasonal", "markov"]
    if args.days >= 3:
        kinds.append("sarima")  # needs two full seasons of training
    for kind in kinds:
        config = PrestoConfig.for_model(
            kind, sample_period_s=31.0, refit_interval_s=6 * 3600.0, retune_interval_s=1e12
        )
        report = PrestoSystem(trace, config, seed=args.seed).run()
        total = report.n_sensors * trace.n_epochs
        fraction = (report.pushes + report.cold_pushes) / total
        print(f"{kind:>10} {100 * fraction:>13.1f}% "
              f"{report.sensor_energy_per_day_j:>10.2f}")
    return 0


def cmd_federation(args: argparse.Namespace) -> int:
    """Run a sharded multi-proxy federation and print its report."""
    trace_config = IntelLabConfig(
        n_sensors=args.sensors, duration_s=args.days * 86_400.0, epoch_s=31.0
    )
    trace = IntelLabGenerator(trace_config, seed=args.seed).generate()
    try:
        federation = FederationConfig(
            n_proxies=args.proxies,
            shard_policy=args.shard_policy,
            replication_factor=args.replication_factor,
            replica_coding=args.replica_coding,
            coding_k=args.coding_k,
            coding_n=args.coding_n,
            partitions=args.partitions,
        )
        serving = None
        if args.serve_qps is not None:
            serving = ServingConfig(
                offered_qps=args.serve_qps,
                zipf_s=args.zipf_s,
                memo_ttl_s=args.memo_ttl,
            )
        system = FederatedSystem(
            trace,
            PrestoConfig(sample_period_s=31.0, refit_interval_s=6 * 3600.0),
            federation=federation,
            seed=args.seed,
            serving=serving,
        )
        if args.kill_proxy:
            system.schedule_failure(
                args.kill_proxy, trace_config.duration_s / 2.0
            )
    except ValueError as error:
        print(f"error: {error}")
        return 2
    workload = ShardedWorkloadGenerator(
        system.shards,
        QueryWorkloadConfig(arrival_rate_per_s=1 / 180.0),
        np.random.default_rng(args.seed + 1),
    )
    queries = workload.generate(3600.0, trace_config.duration_s)
    report = system.run(queries=queries)
    print(f"shards ({federation.shard_policy}):")
    for fc in system.cells:
        tier = "wired" if fc.wired else "wireless"
        print(f"  {fc.name:8s} [{tier:8s}] sensors {fc.sensor_ids}")
    print(f"replication plan: {system.replication_plan}")
    for key, value in report.summary().items():
        print(f"{key:26s} {value:.4f}")
    print(f"{'answer_mix':26s} {report.answer_mix()}")
    print(f"{'per-cell energy (J)':26s} "
          + " ".join(f"{r.sensor_energy_j:.1f}" for r in report.cell_reports))
    return 0


def _parse_sweep_axis(text: str) -> SweepAxis:
    """One ``--sweep`` flag: ``PARAM=START:STOP:STEPS`` or ``PARAM=V1,V2,...``."""
    parameter, _, values_text = text.partition("=")
    if not parameter or not values_text:
        raise ValueError(
            f"--sweep expects PARAM=START:STOP:STEPS or PARAM=V1,V2,..., "
            f"got {text!r}"
        )
    if ":" in values_text:
        fields = values_text.split(":")
        if len(fields) != 3:
            raise ValueError(
                f"--sweep range needs START:STOP:STEPS, got {values_text!r}"
            )
        start, stop = float(fields[0]), float(fields[1])
        steps = int(fields[2])
        if steps < 1:
            raise ValueError(f"--sweep needs >= 1 step, got {steps}")
        values = tuple(float(v) for v in np.linspace(start, stop, steps))
    else:
        row = sweep_parameter(parameter)
        values = tuple(row.parse(item) for item in values_text.split(","))
    return SweepAxis(parameter=parameter, values=values)


def cmd_scenarios(args: argparse.Namespace) -> int:
    """Run a scenario campaign over both harnesses and print its report."""
    builtin = builtin_scenarios()
    specs = all_scenarios()
    if args.list:
        for name, spec in specs.items():
            extras = []
            if name not in builtin:
                extras.append("extended")
            if spec.sweep:
                grid = " x ".join(
                    f"{axis.parameter}[{len(axis.values)}]"
                    for axis in spec.sweep
                )
                extras.append(f"sweep {grid}")
            if spec.faults:
                extras.append(f"{len(spec.faults)} faults")
            if spec.serving.enabled:
                extras.append(f"serving {spec.serving.offered_qps:g} qps")
            suffix = f"  [{', '.join(extras)}]" if extras else ""
            print(f"{name:20s} {spec.description}{suffix}")
        return 0
    if args.scenario:
        unknown = [name for name in args.scenario if name not in specs]
        if unknown:
            print(f"error: unknown scenarios {unknown}; have {list(specs)}")
            return 2
        chosen = [specs[name] for name in args.scenario]
    else:
        # The default campaign is the pinned built-in set; extended
        # scenarios run only when named explicitly.
        chosen = list(builtin.values())
    if args.sweep:
        # A CLI-composed grid replaces each chosen scenario's own sweep:
        # the cross product of every --sweep flag, in flag order.
        try:
            axes = tuple(_parse_sweep_axis(text) for text in args.sweep)
            chosen = [
                dataclasses.replace(spec, sweep=axes) for spec in chosen
            ]
        except ValueError as error:
            print(f"error: {error}")
            return 2
    if args.storage_policy is not None:
        row = sweep_parameter("storage_policy")
        code = row.parse(args.storage_policy)
        chosen = [row.apply(spec, code) for spec in chosen]
    harnesses = HARNESSES if args.harness == "both" else (args.harness,)
    try:
        if args.campaign == "smoke":
            overrides: dict = {"harnesses": harnesses}
            if args.proxies is not None:
                overrides["n_proxies"] = args.proxies
            config = dataclasses.replace(CampaignConfig.smoke(), **overrides)
        else:
            config = CampaignConfig(
                n_sensors=args.sensors,
                duration_days=args.days,
                seed=args.seed,
                harnesses=harnesses,
                n_proxies=args.proxies if args.proxies is not None else 3,
            )
        runner = CampaignRunner(config)
        report = runner.run(chosen, jobs=args.jobs)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    print(
        f"campaign '{args.campaign}': {len(chosen)} scenarios x "
        f"{'+'.join(config.harnesses)} — {config.n_sensors} sensors, "
        f"{config.duration_days:g} days, {config.n_proxies} federated proxies"
    )
    print(
        f"{len(report.results)} runs in {report.wall_clock_s:.1f}s wall clock "
        f"(jobs={report.jobs}, serial-equivalent "
        f"{report.variant_wall_clock_s:.1f}s, speedup {report.speedup:.2f}x)"
    )
    print(report.to_table())
    grids = report.grids()
    for grid in grids:
        print(f"\n{grid.to_table()}")
    if args.grid_csv is not None:
        args.grid_csv.mkdir(parents=True, exist_ok=True)
        for grid in grids:
            slug = re.sub(
                r"[^A-Za-z0-9_.-]+",
                "_",
                f"{grid.scenario}_{grid.harness}_{grid.metric}",
            )
            path = args.grid_csv / f"{slug}.csv"
            path.write_text(grid.to_csv())
            print(f"grid csv -> {path}")
    staleness_lines = [
        f"  {result.label}: "
        + ", ".join(
            "unreplicated" if not np.isfinite(age) else f"{age:.0f}s"
            for age in result.replica_staleness_s
        )
        for result in report.results
        if result.replica_staleness_s
    ]
    if staleness_lines:
        print("replica staleness at each proxy death:")
        for line in staleness_lines:
            print(line)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism analyzer (and optionally the double-run audit)."""
    if args.list_rules:
        width = max(len(rule_id) for rule_id in RULES)
        for rule_id, rule in RULES.items():
            print(f"{rule_id:<{width}}  {rule.summary}")
        return 0
    if args.rule:
        unknown = [rule_id for rule_id in args.rule if rule_id not in RULES]
        if unknown:
            print(f"error: unknown rules {unknown}; have {list(RULES)}")
            return 2
        rules = [RULES[rule_id] for rule_id in args.rule]
    else:
        rules = None
    try:
        result = lint_paths(args.paths, rules=rules)
    except FileNotFoundError as error:
        print(f"error: {error}")
        return 2
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    status = 0 if result.clean else 1
    if args.runtime:
        # imported lazily: the audit drags in the whole simulation stack
        from repro.analysis.runtime import run_audit

        audit = run_audit()
        print(audit.describe())
        if not audit.identical:
            status = 1
    return status


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate PRESTO (HotOS 2005) experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, handler, extra in (
        ("figure2", cmd_figure2, None),
        ("table1", cmd_table1, None),
        ("run", cmd_run, "model"),
        ("models", cmd_models, None),
        ("federation", cmd_federation, "federation"),
        ("scenarios", cmd_scenarios, "scenarios"),
        ("lint", cmd_lint, "lint"),
    ):
        sub = subparsers.add_parser(name, help=handler.__doc__)
        if extra != "lint":
            _add_common(sub)
        if extra == "lint":
            sub.add_argument(
                "paths",
                nargs="*",
                default=["src"],
                metavar="PATH",
                help="files or directories to analyze (default: src)",
            )
            sub.add_argument(
                "--format",
                default="text",
                choices=("text", "json"),
                help="report format",
            )
            sub.add_argument(
                "--rule",
                action="append",
                metavar="ID",
                help="run only this rule (repeatable; default: all rules)",
            )
            sub.add_argument(
                "--runtime",
                action="store_true",
                help="also run the double-run determinism audit "
                "(PYTHONHASHSEED x serial/parallel byte-identity)",
            )
            sub.add_argument(
                "--list-rules",
                action="store_true",
                help="list rule ids and summaries, then exit",
            )
        elif extra == "scenarios":
            sub.set_defaults(sensors=6, days=0.75, seed=7)
            sub.add_argument(
                "--campaign",
                default="default",
                choices=("default", "smoke"),
                help="campaign sizing (smoke ignores --sensors/--days/--seed)",
            )
            sub.add_argument(
                "--scenario",
                action="append",
                metavar="NAME",
                help="run only this built-in scenario (repeatable)",
            )
            sub.add_argument(
                "--harness",
                default="both",
                choices=("both", "single", "federated"),
                help="which harness(es) each scenario runs over",
            )
            sub.add_argument(
                "--proxies",
                type=int,
                default=None,
                help="federated proxy count (default 3; smoke default 2)",
            )
            sub.add_argument(
                "--sweep",
                action="append",
                metavar="PARAM=START:STOP:STEPS",
                help="replace the chosen scenarios' sweep with this axis "
                "(repeatable; the flags' cross product becomes the grid; "
                "also accepts PARAM=V1,V2,... — storage_policy and "
                "replica_coding values may be names)",
            )
            sub.add_argument(
                "--storage-policy",
                default=None,
                choices=STORAGE_POLICIES,
                help="pin every chosen scenario's response to full flash "
                "(default: each spec's own storage policy)",
            )
            sub.add_argument(
                "--jobs",
                type=int,
                default=None,
                metavar="N",
                help="worker processes for the campaign's variant fan-out "
                "(default 1 = serial; 0 = one worker per CPU core; "
                "results are identical at any value)",
            )
            sub.add_argument(
                "--grid-csv",
                type=Path,
                default=None,
                metavar="DIR",
                help="also write each assembled sweep grid as CSV into DIR",
            )
            sub.add_argument(
                "--list", action="store_true", help="list built-in scenarios"
            )
        elif extra == "model":
            sub.add_argument(
                "--model",
                default="arima",
                choices=("arima", "ar", "seasonal", "markov", "sarima"),
            )
        elif extra == "federation":
            sub.add_argument(
                "--proxies", type=int, default=4, help="proxy cell count"
            )
            sub.add_argument(
                "--shard-policy",
                default="contiguous",
                choices=SHARD_POLICIES,
                help="sensor-to-proxy sharding policy",
            )
            sub.add_argument(
                "--replication-factor",
                type=int,
                default=1,
                help="wired replicas per wireless proxy",
            )
            sub.add_argument(
                "--replica-coding",
                default="full",
                choices=REPLICA_CODINGS,
                help="replica sync mode: whole copies or k-of-n "
                "Reed-Solomon fragments",
            )
            sub.add_argument(
                "--coding-k",
                type=int,
                default=4,
                metavar="K",
                help="data fragments per coded sync (rs mode)",
            )
            sub.add_argument(
                "--coding-n",
                type=int,
                default=6,
                metavar="N",
                help="total fragments per coded sync (rs mode); any K "
                "of N reconstruct",
            )
            sub.add_argument(
                "--kill-proxy",
                default=None,
                metavar="NAME",
                help="mark this proxy dead at half the run (e.g. proxy2)",
            )
            sub.add_argument(
                "--partitions",
                type=int,
                default=1,
                metavar="K",
                help="simulation partitions the cells execute on "
                "(0 = one per CPU core; default: 1)",
            )
            sub.add_argument(
                "--serve-qps",
                type=float,
                default=None,
                metavar="QPS",
                help="enable the query-serving front-end at this offered load",
            )
            sub.add_argument(
                "--zipf-s",
                type=float,
                default=0.9,
                help="serving traffic's Zipf popularity exponent",
            )
            sub.add_argument(
                "--memo-ttl",
                type=float,
                default=30.0,
                metavar="S",
                help="serving front-end answer-memo TTL in seconds",
            )
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - thin __main__ shim
    raise SystemExit(main())
