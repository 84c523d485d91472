"""Tests for the spooftrack CLI."""

import argparse
import json

import pytest

from repro.cli import SCALES, build_parser, main
from repro.errors import StrategyError


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures"])
        assert args.scale == "small"
        assert args.ids == []

    def test_track_options(self):
        args = build_parser().parse_args(
            ["--seed", "3", "track", "--distribution", "pareto", "--sources", "4"]
        )
        assert args.seed == 3
        assert args.distribution == "pareto"
        assert args.sources == 4

    def test_scales_registered(self):
        assert {"small", "medium", "paper"} <= set(SCALES)

    def test_workers_flag_rejected(self, capsys):
        """Simulation is serial-only: ``--workers`` is not an option."""
        for command in ["track", "figures", "live", "compare"]:
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--workers", "2"])
            assert exit_info.value.code == 2
            assert "--workers" in capsys.readouterr().err

    MAX_CONFIGS_COMMANDS = [
        "chaos", "compare", "dash", "dataset", "experiments", "figures",
        "headline", "live", "profile", "track",
    ]

    def test_max_configs_commands_listed(self):
        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        with_flag = sorted(
            name for name, sub in subparsers.choices.items()
            if "--max-configs" in sub._option_string_actions
        )
        assert with_flag == self.MAX_CONFIGS_COMMANDS

    @pytest.mark.parametrize("command", MAX_CONFIGS_COMMANDS)
    @pytest.mark.parametrize("value", ["0", "-1", "-2"])
    def test_max_configs_below_one_is_a_usage_error(self, command, value, capsys):
        """Negative counts used to slice the schedule from the end (e.g.
        472 of 473 configs for -1) and 0 crashed with a traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--max-configs", value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "--max-configs" in err and "at least 1" in err

    @pytest.mark.parametrize("command", MAX_CONFIGS_COMMANDS)
    def test_max_configs_accepts_positive(self, command):
        args = build_parser().parse_args([command, "--max-configs", "1"])
        assert args.max_configs == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["track", "--sources", "0"],
            ["track", "--sources", "-2"],
            ["track", "--distribution", "pareto", "--sources", "0"],
            ["profile", "--sources", "0"],
            ["chaos", "--sources", "0"],
            ["dash", "--sources", "0"],
            ["live", "--sources", "0"],
            ["live", "--window-minutes", "0"],
            ["live", "--window-minutes", "nan"],
            ["live", "--batches-per-window", "0"],
            ["live", "--queue-capacity", "0"],
            ["live", "--min-configs", "0"],
            ["live", "--table-every", "0"],
            ["live", "--packets-per-window", "-1"],
            ["live", "--checkpoint-every", "-1"],
            ["live", "--stop-volume-share", "0"],
            ["live", "--stop-volume-share", "1.5"],
            ["live", "--sources", "two"],
            ["track", "--split-threshold", "0"],
            ["track", "--split-threshold", "-3"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        """Every count, rate, and minutes option rejects what its library
        would reject, so ``--sources 0`` is exit 2 rather than a silent
        single source or a LiveServiceError traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_measured_split_threshold_is_a_usage_error(self, capsys):
        """The splitter needs ground-truth catchments; ``--measured`` used
        to drop ``--split-threshold`` silently."""
        assert main(["track", "--measured", "--split-threshold", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--split-threshold" in captured.err
        assert "--measured" in captured.err

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["live", "--packets-per-window", "0"], "packets_per_window", 0),
            (["live", "--checkpoint-every", "0"], "checkpoint_every", 0),
            (["live", "--stop-volume-share", "1"], "stop_volume_share", 1.0),
            (["live", "--window-minutes", "0.5"], "window_minutes", 0.5),
        ],
    )
    def test_range_boundaries_accepted(self, argv, dest, value):
        assert getattr(build_parser().parse_args(argv), dest) == value

    def test_live_defaults(self):
        args = build_parser().parse_args(["live"])
        assert args.distribution == "pareto"
        assert args.max_configs == 12
        assert args.churn == []
        assert not args.in_order

    def test_live_churn_parsing(self):
        args = build_parser().parse_args(
            ["live", "--churn", "4:0.3", "--churn", "9:0.5"]
        )
        assert args.churn == [(4, 0.3), (9, 0.5)]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["live", "--churn", "bogus"])

    def test_compare_options(self):
        args = build_parser().parse_args(["compare"])
        assert args.strategies is None
        assert args.max_configs is None
        assert args.json is None
        args = build_parser().parse_args(
            [
                "--seed",
                "7",
                "compare",
                "--strategies",
                "greedy,random",
                "--max-configs",
                "10",
                "--json",
                "out.json",
            ]
        )
        assert args.seed == 7
        assert args.strategies == "greedy,random"
        assert args.max_configs == 10
        assert args.json == "out.json"

    def test_strategy_flags_registered(self):
        args = build_parser().parse_args(["track", "--strategy", "bisect"])
        assert args.strategy == "bisect"
        assert build_parser().parse_args(["track"]).strategy is None
        args = build_parser().parse_args(["live", "--strategy", "bgpeek"])
        assert args.strategy == "bgpeek"
        assert build_parser().parse_args(["live"]).strategy == "greedy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["track", "--strategy", "nope"])


def _parser_surface(parser):
    """Every subcommand's options as comparable rows (help text aside)."""
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sections = {"": parser}
    sections.update(subparsers.choices)
    surface = {}
    for name, sub in sections.items():
        rows = [
            {
                "options": list(action.option_strings),
                "dest": action.dest,
                "default": action.default,
                "choices": (
                    list(action.choices) if action.choices is not None else None
                ),
                "action": type(action).__name__,
                "type": getattr(action.type, "__name__", None),
            }
            for action in sub._actions
            if action.dest != "help" and (sub is not parser or action.option_strings)
        ]
        surface[name] = sorted(rows, key=lambda row: row["dest"])
    return surface


class TestParserSurface:
    """The parser declares each shared option once; this pins what every
    subcommand ends up with against a table recorded from the parser of
    per-command copies, so sharing changes no option, dest, default,
    choice set, or action."""

    #: Deliberate differences from the recorded table: counts, rates, and
    #: minutes gained range-checked types (they were plain int/float).
    RETYPED = {
        "_positive_int": [
            "chaos.sources", "dash.sources", "live.batches_per_window",
            "live.min_configs", "live.queue_capacity", "live.sources",
            "live.table_every", "profile.sources", "track.sources",
        ],
        "_non_negative_int": [
            "live.checkpoint_every", "live.packets_per_window",
        ],
        "_positive_float": ["live.window_minutes"],
        "_share": ["live.stop_volume_share"],
    }

    def test_surface_matches_recorded_table(self):
        import pathlib

        fixture = pathlib.Path(__file__).parent / "fixtures" / "cli_surface.json"
        expected = json.loads(fixture.read_text())
        for type_name, keys in self.RETYPED.items():
            for key in keys:
                command, dest = key.split(".")
                (row,) = [r for r in expected[command] if r["dest"] == dest]
                row["type"] = type_name
        assert _parser_surface(build_parser()) == expected


class TestCommands:
    def test_tables_command(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" in out
        assert "Routing (this paper)" in out

    def test_track_command(self, capsys):
        code = main(
            ["--seed", "2", "track", "--max-configs", "12", "--sources", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "configurations deployed : 12" in out
        assert "ground-truth source ASes:" in out

    def test_compare_command(self, tmp_path, capsys):
        artifact = str(tmp_path / "compare.json")
        code = main(
            [
                "--seed",
                "2",
                "compare",
                "--strategies",
                "greedy,schedule,random",
                "--max-configs",
                "10",
                "--json",
                artifact,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "racing 3 strategies" in out
        assert "rank" in out
        with open(artifact, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert {entry["strategy"] for entry in payload["strategies"]} == {
            "greedy",
            "schedule",
            "random",
        }

    def test_compare_rejects_unknown_strategy(self, capsys):
        with pytest.raises(StrategyError):
            main(["compare", "--strategies", "nope"])

    def test_track_with_strategy_flag(self, capsys):
        code = main(
            [
                "--seed",
                "2",
                "track",
                "--max-configs",
                "10",
                "--sources",
                "2",
                "--strategy",
                "greedy",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "configurations deployed : 10" in out

    def test_live_command(self, capsys):
        code = main(
            [
                "--seed",
                "2",
                "live",
                "--max-configs",
                "3",
                "--sources",
                "3",
                "--min-configs",
                "1",
                "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "live runtime" in out
        assert "ground-truth source ASes:" in out

    def test_live_checkpoint_then_resume(self, tmp_path, capsys):
        checkpoint = str(tmp_path / "live.json")
        base = [
            "--seed",
            "2",
            "live",
            "--max-configs",
            "2",
            "--sources",
            "2",
            "--min-configs",
            "1",
            "--quiet",
        ]
        assert main(base + ["--checkpoint", checkpoint]) == 0
        first = capsys.readouterr().out
        assert main(base + ["--resume", checkpoint]) == 0
        second = capsys.readouterr().out
        assert "live runtime" in second

        def stable(text):
            # Drop the engine-stats line: it reports wall-clock seconds.
            return [
                line
                for line in text.splitlines()
                if not line.startswith("simulation engine")
            ]

        # The checkpointed run had finished, so the resumed report matches.
        assert stable(first) == stable(second)

    def test_live_checkpoint_every_needs_path(self, capsys):
        assert main(["live", "--checkpoint-every", "3"]) == 2
        assert "--checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--trace", "t.jsonl"],
            ["--metrics", "m.prom"],
            ["--serve", "0"],
            ["--fault-plan", "mixed"],
            ["--trace", "t.jsonl", "--fault-plan", "mixed"],
        ],
        ids=" ".join,
    )
    def test_live_resume_rejects_fresh_run_flags(self, tmp_path, extra, capsys):
        """A resumed service is rebuilt from its checkpoint alone, so
        flags it would silently drop are refused before anything runs
        (the checkpoint is never even read)."""
        missing = str(tmp_path / "never-written.json")
        assert main(["live", "--resume", missing] + extra) == 2
        err = capsys.readouterr().err
        flags = [token for token in extra if token.startswith("--")]
        assert all(flag in err for flag in flags)
        assert "--resume" in err
        assert not (tmp_path / "t.jsonl").exists()

    def test_figures_command_single(self, capsys):
        code = main(
            ["--seed", "2", "figures", "figure9", "--max-configs", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "figure9" in out
        assert "Best Relationship" in out

    def test_figures_rejects_unknown_id(self, capsys):
        assert main(["figures", "figure99"]) == 2
        assert "unknown figure ids" in capsys.readouterr().out

    def test_experiments_to_file(self, tmp_path, capsys):
        output = tmp_path / "exp.md"
        code = main(
            [
                "--seed",
                "2",
                "experiments",
                "--max-configs",
                "8",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        text = output.read_text()
        assert "### figure3" in text
        assert "### figure10" in text


class TestFaultOptions:
    def test_fault_plan_registered_on_track_and_live(self):
        for command in ["track", "live"]:
            args = build_parser().parse_args(
                [command, "--fault-plan", "mixed"]
            )
            assert args.fault_plan == "mixed"
            args = build_parser().parse_args([command])
            assert args.fault_plan is None

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.plan == "mixed"
        assert args.levels == [0.0, 0.25, 0.5, 1.0]
        assert args.distribution == "single"
        assert args.sources == 1

    def test_chaos_levels_parsing(self):
        args = build_parser().parse_args(["chaos", "--levels", "0,0.5,2"])
        assert args.levels == [0.0, 0.5, 2.0]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--levels", "0,-1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--levels", "abc"])

    def test_track_with_fault_plan(self, capsys):
        code = main(
            [
                "--seed",
                "2",
                "track",
                "--max-configs",
                "8",
                "--sources",
                "1",
                "--fault-plan",
                "partial-measurement",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience" in out

    def test_track_rejects_retired_worker_crash_plan(self, capsys):
        code = main(
            ["track", "--max-configs", "4", "--fault-plan", "worker-crash"]
        )
        assert code == 2
        assert "fault plan error" in capsys.readouterr().err

    def test_chaos_command_sweeps_levels(self, capsys):
        code = main(
            [
                "--seed",
                "3",
                "chaos",
                "--max-configs",
                "4",
                "--levels",
                "0,1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "level" in out
        assert "all invariants held at every fault level" in out

    def test_chaos_rejects_unknown_plan(self, capsys):
        assert main(["chaos", "--plan", "nonsense"]) == 2
        assert "fault plan" in capsys.readouterr().err


class TestObservabilityOptions:
    def test_trace_metrics_registered(self):
        for command in ["track", "live", "chaos", "profile"]:
            args = build_parser().parse_args(
                [command, "--trace", "t.jsonl", "--metrics", "m.prom"]
            )
            assert args.trace == "t.jsonl"
            assert args.metrics == "m.prom"
            args = build_parser().parse_args([command])
            assert args.trace is None and args.metrics is None

    def test_track_writes_trace_and_metrics(self, tmp_path, capsys):
        from repro.obs import build_tree, load_spans, parse_prometheus

        trace = str(tmp_path / "t.jsonl")
        metrics = str(tmp_path / "m.prom")
        code = main(
            [
                "--seed", "2", "track", "--max-configs", "10",
                "--trace", trace, "--metrics", metrics,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert f"wrote trace {trace}" in captured.err
        assert f"wrote metrics {metrics}" in captured.err
        spans = load_spans(trace)
        tree = build_tree(spans)
        root = tree[""][0]
        assert root["name"] == "track"
        phases = {span["name"] for span in tree[root["span_id"]]}
        assert phases == {
            "schedule", "simulate", "measure", "cluster", "attribute",
        }
        # The metrics dump reconciles with the report the run printed.
        parsed = parse_prometheus(open(metrics).read())
        assert parsed["repro_pipeline_configs_deployed_total"] == 10
        assert parsed["repro_engine_configs_requested_total"] >= 10

    def test_profile_command(self, capsys):
        code = main(
            ["--seed", "2", "profile", "--max-configs", "6", "--top", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-phase wall time" in out
        assert "top 3 hotspots" in out
        assert "simulate" in out
        assert "configurations deployed : 6" in out

    def test_profile_honours_session_flags(self, tmp_path, capsys):
        """``profile`` runs through the same run session as ``track``:
        ``--log-json`` structures stderr and ``--serve`` serves."""
        metrics = str(tmp_path / "m.prom")
        code = main(
            [
                "--seed", "2", "profile", "--max-configs", "3", "--log-json",
                "--serve", "0", "--metrics", metrics,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.err.splitlines()]
        events = {record.get("event") for record in records}
        assert {"serve", "export"} <= events
        assert "per-phase wall time" in captured.out

    def test_profile_crash_still_writes_trace_and_metrics(
        self, tmp_path, monkeypatch
    ):
        """A run that dies mid-pipeline leaves its evidence in the same
        artifacts a clean run writes: the trace holds every span that
        ran (the crashing one closes in ``Tracer.span``'s ``finally``)
        and the metrics dump holds the counters up to the crash."""
        from repro.core.localization import SpoofLocalizer
        from repro.obs import load_spans, parse_prometheus

        def explode(self, volumes):
            raise RuntimeError("boom")

        monkeypatch.setattr(SpoofLocalizer, "localize", explode)
        trace, metrics = tmp_path / "t.jsonl", tmp_path / "m.prom"
        with pytest.raises(RuntimeError, match="boom"):
            main(
                [
                    "--seed", "2", "profile", "--max-configs", "3",
                    "--trace", str(trace), "--metrics", str(metrics),
                ]
            )
        names = {span["name"] for span in load_spans(str(trace))}
        assert {"profile", "simulate", "cluster", "attribute"} <= names
        assert parse_prometheus(metrics.read_text())

    def test_profile_measured_lists_measurement_sites(self, capsys):
        code = main(["profile", "--measured", "--max-configs", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "engine fixpoints + measurement + NNLS solves" in out
        hotspots = out.split("hotspots", 1)[1].split("\n\n", 1)[0]
        assert "measurement/" in hotspots

    def test_live_writes_metrics(self, tmp_path, capsys):
        from repro.obs import parse_prometheus

        metrics = str(tmp_path / "m.prom")
        code = main(
            [
                "--seed", "2", "live", "--max-configs", "3", "--sources", "3",
                "--min-configs", "1", "--quiet", "--metrics", metrics,
            ]
        )
        assert code == 0
        parsed = parse_prometheus(open(metrics).read())
        assert parsed["repro_live_windows_total"] >= 1

    def test_unserved_overload_counts_slo_breaches(self, tmp_path, capsys):
        """The SLO watchdog rides every armed run, not only served ones."""
        from repro.obs import parse_prometheus

        metrics = str(tmp_path / "m.prom")
        code = main(
            [
                "--seed", "3", "live", "--sources", "8", "--max-configs", "4",
                "--batches-per-window", "8", "--queue-capacity", "2",
                "--quiet", "--metrics", metrics,
            ]
        )
        assert code == 0
        parsed = parse_prometheus(open(metrics).read())
        assert parsed["repro_live_batches_dropped_total"] == 72
        assert parsed['repro_slo_breached_total{slo="ingest_drop_rate"}'] == 12

    def test_outputs_create_parent_dirs(self, tmp_path, capsys):
        trace = str(tmp_path / "deep" / "dirs" / "t.jsonl")
        metrics = str(tmp_path / "other" / "m.prom")
        code = main(
            [
                "--seed", "2", "track", "--max-configs", "8",
                "--trace", trace, "--metrics", metrics,
            ]
        )
        assert code == 0
        import os

        assert os.path.exists(trace) and os.path.exists(metrics)


class TestServingOptions:
    def test_serve_and_log_json_registered(self):
        for command in ["track", "live", "chaos", "profile"]:
            args = build_parser().parse_args(
                [command, "--serve", "0", "--log-json"]
            )
            assert args.serve == 0
            assert args.log_json
            args = build_parser().parse_args([command])
            assert args.serve is None and not args.log_json

    def test_track_serve_smoke(self, capsys):
        code = main(
            [
                "--seed", "2", "track", "--max-configs", "8",
                "--sources", "1", "--serve", "0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "serving observability on http://127.0.0.1:" in captured.err
        assert "configurations deployed : 8" in captured.out

    def test_live_serve_smoke(self, capsys):
        code = main(
            [
                "--seed", "2", "live", "--max-configs", "3", "--sources", "3",
                "--min-configs", "1", "--quiet", "--serve", "0",
            ]
        )
        assert code == 0
        assert "serving observability on" in capsys.readouterr().err

    def test_log_json_structures_stderr(self, tmp_path, capsys):
        import json

        metrics = str(tmp_path / "m.prom")
        code = main(
            [
                "--seed", "2", "track", "--max-configs", "8",
                "--log-json", "--metrics", metrics,
            ]
        )
        assert code == 0
        records = [
            json.loads(line)
            for line in capsys.readouterr().err.splitlines()
            if line.strip()
        ]
        exports = [r for r in records if r.get("event") == "export"]
        assert any(r["path"] == metrics for r in exports)
        assert all(r["level"] == "info" for r in exports)
        assert all(r["msg"].startswith("wrote ") for r in exports)


class TestFleetCommandRemoved:
    def test_fleet_is_an_invalid_choice(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fleet"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'fleet'" in capsys.readouterr().err


class TestDashCommand:
    def test_dash_replay_renders(self, capsys):
        code = main(
            ["--seed", "2", "dash", "--sources", "3", "--max-configs", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spooftrack dash" in out
        assert "window" in out
        assert "controller:" in out
        assert "engine:" in out

    def test_dash_unreachable_url(self, capsys):
        code = main(
            ["dash", "--url", "http://127.0.0.1:9", "--timeout", "0.5"]
        )
        assert code == 2
        assert "cannot read" in capsys.readouterr().err

    def test_dash_has_no_tenant_filter(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dash", "--tenant", "tenant-01"])
        assert exit_info.value.code == 2
        assert "--tenant" in capsys.readouterr().err


class TestBenchCheckCommand:
    @staticmethod
    def _write_artifact(directory, seconds):
        import json

        (directory / "BENCH_x.json").write_text(
            json.dumps({"sim_seconds": seconds})
        )

    def test_update_then_pass(self, tmp_path, capsys):
        self._write_artifact(tmp_path, 1.0)
        assert main(["bench-check", "--bench-dir", str(tmp_path), "--update"]) == 0
        assert "wrote bench history" in capsys.readouterr().out
        assert main(["bench-check", "--bench-dir", str(tmp_path)]) == 0
        assert "bench-check: OK" in capsys.readouterr().out

    def test_regression_fails(self, tmp_path, capsys):
        self._write_artifact(tmp_path, 1.0)
        assert main(["bench-check", "--bench-dir", str(tmp_path), "--update"]) == 0
        capsys.readouterr()
        self._write_artifact(tmp_path, 1.2)  # 20% slower than baseline
        assert main(["bench-check", "--bench-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION BENCH_x.json:sim_seconds" in out
        assert "bench-check: FAIL" in out
        # A looser tolerance lets the same artifacts through.
        assert main(
            ["bench-check", "--bench-dir", str(tmp_path), "--tolerance", "0.3"]
        ) == 0

    def test_missing_history_hints(self, tmp_path, capsys):
        assert main(["bench-check", "--bench-dir", str(tmp_path)]) == 2
        assert "--update" in capsys.readouterr().err

    def test_committed_history_passes(self, capsys):
        assert main(["bench-check"]) == 0
        assert "bench-check: OK" in capsys.readouterr().out
