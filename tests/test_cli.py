"""Unit tests for the command-line interface."""

import pytest

from repro.cli import _parse_sweep_axis, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure2_defaults(self):
        args = build_parser().parse_args(["figure2"])
        assert args.sensors == 8 and args.days == 2.0

    def test_run_model_choices(self):
        args = build_parser().parse_args(["run", "--model", "sarima"])
        assert args.model == "sarima"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "lstm"])

    def test_scenarios_flags(self):
        args = build_parser().parse_args(
            ["scenarios", "--campaign", "smoke", "--scenario", "nominal",
             "--harness", "single", "--storage-policy", "mcf_offload"]
        )
        assert args.campaign == "smoke"
        assert args.scenario == ["nominal"]
        assert args.harness == "single"
        assert args.storage_policy == "mcf_offload"
        assert args.sensors == 6 and args.days == 0.75  # scenarios defaults
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--campaign", "huge"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--harness", "cloud"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--storage-policy", "teleport"])

    def test_scenarios_sweep_flag_repeatable(self):
        args = build_parser().parse_args(
            ["scenarios", "--sweep", "loss_probability=0.1:0.4:3",
             "--sweep", "flash_capacity_bytes=84480,5280"]
        )
        assert args.sweep == [
            "loss_probability=0.1:0.4:3",
            "flash_capacity_bytes=84480,5280",
        ]

    def test_scenarios_jobs_flag(self):
        args = build_parser().parse_args(["scenarios"])
        assert args.jobs is None and args.grid_csv is None
        args = build_parser().parse_args(["scenarios", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["scenarios", "--jobs", "0"])
        assert args.jobs == 0
        args = build_parser().parse_args(["scenarios", "--grid-csv", "out"])
        assert str(args.grid_csv) == "out"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scenarios", "--jobs", "two"])

    def test_federation_flags(self):
        args = build_parser().parse_args(
            ["federation", "--proxies", "3", "--shard-policy", "round_robin",
             "--replication-factor", "2"]
        )
        assert args.proxies == 3
        assert args.shard_policy == "round_robin"
        assert args.replication_factor == 2
        assert args.kill_proxy is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["federation", "--shard-policy", "hash"])


class TestSweepParsing:
    def test_range_form_expands_linspace(self):
        axis = _parse_sweep_axis("loss_probability=0.1:0.4:3")
        assert axis.parameter == "loss_probability"
        assert axis.values == (0.1, 0.25, 0.4)

    def test_list_form(self):
        axis = _parse_sweep_axis("flash_capacity_bytes=84480,5280")
        assert axis.values == (84480.0, 5280.0)
        # every choice parameter takes names as well as 1-based codes
        for text, values in (
            ("storage_policy=local_aging,mcf_offload", (1.0, 3.0)),
            ("replica_coding=full,rs", (1.0, 2.0)),
            ("replica_coding=1,rs", (1.0, 2.0)),
        ):
            assert _parse_sweep_axis(text).values == values

    def test_malformed_flags_rejected(self):
        for text in (
            "loss_probability",
            "loss_probability=",
            "=0.1,0.2",
            "loss_probability=0.1:0.4",
            "loss_probability=0.1:0.4:0",
        ):
            with pytest.raises(ValueError):
                _parse_sweep_axis(text)


class TestCommands:
    def test_figure2_prints_series(self, capsys):
        assert main(["figure2", "--sensors", "2", "--days", "1"]) == 0
        output = capsys.readouterr().out
        assert "batched_wavelet" in output
        assert "2116" in output

    def test_run_prints_report(self, capsys):
        assert main(
            ["run", "--sensors", "2", "--days", "0.5", "--model", "ar"]
        ) == 0
        output = capsys.readouterr().out
        assert "sensor_energy_j" in output
        assert "answer_mix" in output

    def test_table1_fills_prestos_now_and_past(self, capsys):
        assert main(["table1", "--sensors", "4", "--days", "1"]) == 0
        rows = {
            cells[0]: cells[1:]
            for cells in map(str.split, capsys.readouterr().out.splitlines())
        }
        header = rows["architecture"]
        for name in ("streaming", "presto"):
            now, past = (float(rows[name][header.index(col)]) for col in ("NOW", "PAST"))
            assert 0.8 < now <= 1.0 and 0.8 < past <= 1.0

    def test_models_prints_all_families(self, capsys):
        assert main(["models", "--days", "0.5"]) == 0
        output = capsys.readouterr().out
        for kind in ("arima", "ar", "seasonal", "markov"):
            assert kind in output

    def test_scenarios_lists_builtins(self, capsys):
        assert main(["scenarios", "--list"]) == 0
        output = capsys.readouterr().out
        for name in ("lossy uplink", "proxy blackout", "duty-cycle sweep"):
            assert name in output

    def test_scenarios_runs_campaign(self, capsys):
        assert main(
            ["scenarios", "--campaign", "smoke", "--scenario", "proxy blackout",
             "--harness", "federated", "--storage-policy", "greedy_offload"]
        ) == 0
        output = capsys.readouterr().out
        assert "campaign 'smoke'" in output
        assert "proxy blackout" in output
        assert "failovers=" in output

    def test_scenarios_cli_sweep_grid(self, capsys):
        assert main(
            ["scenarios", "--campaign", "smoke", "--scenario", "nominal",
             "--harness", "single",
             "--sweep", "loss_probability=0.05,0.3",
             "--sweep", "flash_capacity_bytes=84480,5280"]
        ) == 0
        output = capsys.readouterr().out
        # 2x2 cross product, every coordinate pair present
        for variant in (
            "loss=0.05,flash=84480",
            "loss=0.05,flash=5280",
            "loss=0.3,flash=84480",
            "loss=0.3,flash=5280",
        ):
            assert variant in output
        # the 2-D knee chart is printed after the campaign table
        assert "nominal/single — success_rate" in output

    def test_scenarios_parallel_with_grid_csv(self, capsys, tmp_path):
        assert main(
            ["scenarios", "--campaign", "smoke", "--scenario", "nominal",
             "--harness", "single", "--jobs", "2",
             "--sweep", "loss_probability=0.05,0.3",
             "--sweep", "flash_capacity_bytes=84480,5280",
             "--grid-csv", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "jobs=2" in output
        assert "wall clock" in output and "speedup" in output
        # the knee chart carries its unicode heatmap legend
        assert "heatmap (·░▒▓█" in output
        csv_path = tmp_path / "nominal_single_success_rate.csv"
        assert csv_path.exists()
        csv = csv_path.read_text()
        assert csv.splitlines()[0] == (
            "loss_probability/flash_capacity_bytes,84480,5280"
        )
        assert len(csv.splitlines()) == 3  # header + one row per loss value

    def test_scenarios_rejects_bad_sweep(self, capsys):
        assert main(["scenarios", "--sweep", "loss_probability=0.1:0.4"]) == 2
        assert "START:STOP:STEPS" in capsys.readouterr().out
        assert main(["scenarios", "--sweep", "volume=1,2"]) == 2
        assert "unknown sweep parameter" in capsys.readouterr().out
        assert main(
            ["scenarios", "--sweep", "loss_probability=0.1,0.2",
             "--sweep", "loss_probability=0.3,0.4"]
        ) == 2
        assert "distinct parameters" in capsys.readouterr().out

    def test_scenarios_invalid_variant_fails_alike_at_every_jobs(self, capsys):
        """An invalid variant is bad input (exit 2, one error line) whether
        it ran in process or in a worker."""
        outputs = []
        for jobs in ("1", "2"):
            assert main(
                ["scenarios", "--campaign", "smoke", "--scenario", "nominal",
                 "--sweep", "zipf_s=0.5,0.9", "--jobs", jobs]
            ) == 2
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].startswith("error: ")
        assert "sweeping zipf_s/memo_ttl_s does nothing" in outputs[0]

    def test_scenarios_rejects_unknown_scenario(self, capsys):
        assert main(["scenarios", "--scenario", "volcano"]) == 2
        assert "unknown scenarios" in capsys.readouterr().out

    def test_scenarios_rejects_bad_sizing(self, capsys):
        # default 3 proxies cannot shard 2 sensors: error, not a traceback
        assert main(["scenarios", "--sensors", "2"]) == 2
        assert "error:" in capsys.readouterr().out

    def test_federation_prints_cluster_report(self, capsys):
        assert main(
            ["federation", "--sensors", "4", "--days", "0.5", "--proxies", "2",
             "--kill-proxy", "proxy1", "--serve-qps", "20", "--memo-ttl", "0"]
        ) == 0
        output = capsys.readouterr().out
        assert "replication plan" in output
        assert "mean_routing_hops" in output
        assert "wireless" in output
        # a zero TTL leaves only same-batch dedup (the 30 s default hits ~99%)
        hit_rate = float(output.split("serving_memo_hit_rate")[1].split()[0])
        assert 0.0 < hit_rate < 0.5
