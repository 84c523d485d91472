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
        for command in ["track", "figures", "live", "compare", "fleet", "soak"]:
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--workers", "2"])
            assert exit_info.value.code == 2
            assert "--workers" in capsys.readouterr().err

    MAX_CONFIGS_COMMANDS = [
        "chaos", "compare", "dash", "dataset", "experiments", "figures",
        "fleet", "headline", "live", "profile", "soak", "track",
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
            ["live", "--nnls-stride", "0"],
            ["live", "--table-every", "0"],
            ["live", "--packets-per-window", "-1"],
            ["live", "--checkpoint-every", "-1"],
            ["live", "--stop-volume-share", "0"],
            ["live", "--stop-volume-share", "1.5"],
            ["fleet", "--tenants", "0"],
            ["fleet", "--attacks", "0"],
            ["fleet", "--sources", "0"],
            ["fleet", "--window-minutes", "-20"],
            ["fleet", "--checkpoint-every", "-1"],
            ["fleet", "--max-active", "-1"],
            ["fleet", "--stagger-minutes", "-1"],
            ["fleet", "--table-every", "-1"],
            ["soak", "--tenants", "0"],
            ["soak", "--checkpoint-every", "0"],
            ["soak", "--epochs", "0"],
            ["soak", "--epoch-minutes", "0"],
            ["soak", "--restart-every", "-1"],
            ["soak", "--kill-rate", "1.5"],
            ["soak", "--corrupt-rate", "-0.1"],
            ["soak", "--churn-tenants", "-1"],
            ["soak", "--escalation-base", "-1"],
            ["soak", "--escalation-growth", "-1"],
            ["soak", "--keep", "0"],
            ["live", "--sources", "two"],
        ],
        ids=" ".join,
    )
    def test_out_of_range_counts_are_usage_errors(self, argv, capsys):
        """Every count, rate, and minutes option rejects what its library
        would reject, so ``--sources 0`` is exit 2 rather than a silent
        single source or a LiveServiceError/FleetError traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["fleet", "--checkpoint-every", "0"], "checkpoint_every", 0),
            (["live", "--packets-per-window", "0"], "packets_per_window", 0),
            (["fleet", "--stagger-minutes", "0"], "stagger_minutes", 0.0),
            (["soak", "--kill-rate", "1"], "kill_rate", 1.0),
            (["soak", "--corrupt-rate", "0"], "corrupt_rate", 0.0),
            (["live", "--stop-volume-share", "1"], "stop_volume_share", 1.0),
            (["live", "--window-minutes", "0.5"], "window_minutes", 0.5),
            (["soak", "--checkpoint-every", "1"], "checkpoint_every", 1),
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
            "chaos.sources", "dash.sources", "fleet.attacks", "fleet.sources",
            "fleet.tenants", "live.batches_per_window", "live.min_configs",
            "live.nnls_stride", "live.queue_capacity", "live.sources",
            "live.table_every", "profile.sources", "soak.attacks",
            "soak.checkpoint_every", "soak.epochs", "soak.keep",
            "soak.sources", "soak.tenants", "track.sources",
        ],
        "_non_negative_int": [
            "fleet.checkpoint_every", "fleet.max_active", "fleet.table_every",
            "live.checkpoint_every", "live.packets_per_window",
            "soak.churn_tenants", "soak.restart_every",
        ],
        "_positive_float": [
            "fleet.window_minutes", "live.window_minutes",
            "soak.epoch_minutes", "soak.window_minutes",
        ],
        "_non_negative_float": [
            "fleet.stagger_minutes", "soak.escalation_base",
            "soak.escalation_growth",
        ],
        "_rate": ["soak.corrupt_rate", "soak.kill_rate"],
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
            ["--flight-dir", "flight"],
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
    def test_fault_plan_registered_on_track_live_and_fleet(self):
        for command in ["track", "live", "fleet"]:
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
                "worker-crash",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience" in out

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
        for command in ["track", "live", "chaos", "profile", "fleet"]:
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
        ``--log-json`` structures stderr, ``--serve`` serves, and
        ``--flight-dir`` arms the black box."""
        metrics = str(tmp_path / "m.prom")
        code = main(
            [
                "--seed", "2", "profile", "--max-configs", "3", "--log-json",
                "--flight-dir", str(tmp_path / "flight"), "--serve", "0",
                "--metrics", metrics,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.err.splitlines()]
        events = {record.get("event") for record in records}
        assert {"serve", "export"} <= events
        assert "per-phase wall time" in captured.out

    def test_profile_crash_dumps_flight_bundle(self, tmp_path, monkeypatch):
        from repro.core.pipeline import SpoofTracker
        from repro.obs import load_flight_dump

        def explode(self, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(SpoofTracker, "run", explode)
        flight_dir = tmp_path / "flight"
        with pytest.raises(RuntimeError):
            main(
                [
                    "--seed", "2", "profile", "--max-configs", "3",
                    "--flight-dir", str(flight_dir),
                ]
            )
        (bundle,) = sorted(flight_dir.iterdir())
        payload = load_flight_dump(str(bundle))
        assert payload["reason"] == "crash"
        assert "boom" in payload["context"]["error"]

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
        for command in ["track", "live", "chaos", "profile", "fleet"]:
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


class TestFleetCommand:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.tenants == 2
        assert args.attacks == 2
        assert args.distribution == "pareto"
        assert args.max_active == 0
        assert args.quota == []
        assert args.crash == [] and args.drain == [] and args.evict == []
        assert not args.serial
        assert args.table_every == 8

    def test_event_and_quota_parsing(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "--crash", "1:240",
                "--drain", "0:100.5",
                "--quota", "tenant-00:2.0",
            ]
        )
        assert args.crash == [(1, 240.0)]
        assert args.drain == [(0, 100.5)]
        assert args.quota == [("tenant-00", 2.0)]
        for bad in (
            ["fleet", "--crash", "nonsense"],
            ["fleet", "--crash", "1:x"],
            ["fleet", "--quota", "tenant-00"],
            ["fleet", "--quota", "tenant-00:0"],
            ["fleet", "--quota", ":2.0"],
        ):
            with pytest.raises(SystemExit):
                build_parser().parse_args(bad)

    def test_checkpoint_every_needs_dir(self, capsys):
        assert main(["fleet", "--checkpoint-every", "2"]) == 2
        assert "--checkpoint-dir" in capsys.readouterr().err

    def test_event_index_out_of_range(self, capsys):
        code = main(
            ["fleet", "--tenants", "1", "--attacks", "1", "--crash", "5:100"]
        )
        assert code == 2
        assert "out of range" in capsys.readouterr().err

    def test_fleet_command_runs(self, capsys):
        code = main(
            [
                "--seed", "2", "fleet", "--tenants", "2", "--attacks", "1",
                "--max-configs", "3", "--sources", "6", "--quiet",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 shards (2 done)" in out
        assert "tenant-00" in out and "tenant-01" in out
        assert "fleet digest: " in out

    def test_fleet_crash_resume_command(self, tmp_path, capsys):
        base = [
            "--seed", "2", "fleet", "--tenants", "1", "--attacks", "2",
            "--max-configs", "3", "--sources", "6", "--quiet", "--serial",
            "--checkpoint-dir", str(tmp_path), "--checkpoint-every", "2",
        ]
        assert main(base + ["--crash", "1:100"]) == 0
        crashed = capsys.readouterr().out
        assert "1 crashes / 1 resumes" in crashed
        assert main(base) == 0
        quiet = capsys.readouterr().out
        digest = [
            line for line in quiet.splitlines() if line.startswith("fleet digest")
        ]
        # Kill + checkpoint resume converges on the uncrashed digest.
        assert digest[0] in crashed


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

    def test_dash_tenant_flag_registered(self):
        args = build_parser().parse_args(["dash", "--tenant", "tenant-01"])
        assert args.tenant == "tenant-01"
        args = build_parser().parse_args(["dash"])
        assert not args.tenant


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
