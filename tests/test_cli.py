"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_swor_defaults(self):
        args = build_parser().parse_args(["swor"])
        # --seed defaults to None at parse time; main() resolves it to
        # the global --seed (or 0) before dispatch.
        assert args.sites == 16 and args.sample == 16 and args.seed is None

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for cmd in ("swor", "swr", "hh", "l1", "query", "bounds"):
            args = parser.parse_args([cmd])
            assert args.command == cmd

    def test_global_seed_parses(self):
        args = build_parser().parse_args(["--seed", "5", "swor"])
        assert args.global_seed == 5 and args.seed is None

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_help_mentions_engine_defaults(self):
        parser = build_parser()
        args = parser.parse_args(["swor"])
        assert args.engine == "reference"
        # The help strings must state the defaults.
        swor_help = next(
            a for a in parser._subparsers._group_actions[0].choices.values()
            if a.prog.endswith("swor")
        ).format_help()
        flat = " ".join(swor_help.split())
        assert "default: reference" in flat
        assert "16384" in flat


class TestCommands:
    def test_swor_output(self, capsys):
        code = main(["swor", "--items", "3000", "--sites", "4", "--sample", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "weighted SWOR sample" in out
        assert "messages=" in out and "ratio" in out

    def test_swr_output(self, capsys):
        code = main(["swr", "--items", "2000", "--sites", "4", "--sample", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "weighted SWR sample" in out
        assert "slot" in out

    def test_hh_output(self, capsys):
        code = main(["hh", "--items", "5000", "--sites", "4", "--eps", "0.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "residual heavy hitters" in out

    def test_l1_output(self, capsys):
        code = main(["l1", "--items", "4000", "--sites", "4", "--eps", "0.25"])
        out = capsys.readouterr().out
        assert code == 0
        assert "this work" in out
        assert "deterministic [14]" in out
        assert "hyz-style [23]" in out

    def test_bounds_output(self, capsys):
        code = main(["bounds", "--sites", "100", "--weight", "1e12"])
        out = capsys.readouterr().out
        assert code == 0
        for label in ("swor upper", "hh lower", "l1 lower this work"):
            assert label in out

    def test_seed_reproducibility(self, capsys):
        main(["swor", "--items", "2000", "--seed", "7"])
        first = capsys.readouterr().out
        main(["swor", "--items", "2000", "--seed", "7"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_output(self, capsys):
        main(["swor", "--items", "2000", "--seed", "7"])
        first = capsys.readouterr().out
        main(["swor", "--items", "2000", "--seed", "8"])
        second = capsys.readouterr().out
        assert first != second

    def test_global_seed_equals_subcommand_seed(self, capsys):
        main(["--seed", "7", "swor", "--items", "2000"])
        global_form = capsys.readouterr().out
        main(["swor", "--items", "2000", "--seed", "7"])
        local_form = capsys.readouterr().out
        assert global_form == local_form

    def test_subcommand_seed_overrides_global(self, capsys):
        main(["--seed", "3", "swor", "--items", "2000", "--seed", "7"])
        overridden = capsys.readouterr().out
        main(["swor", "--items", "2000", "--seed", "7"])
        local_form = capsys.readouterr().out
        assert overridden == local_form

    def test_query_output(self, capsys):
        code = main(["query", "--items", "4000", "--sites", "4", "--sample", "16"])
        out = capsys.readouterr().out
        assert code == 0
        assert "concurrent queries over one pass" in out
        assert "total_weight" in out and "heavy_hitters" in out
        assert "ci95" in out and "total_messages=" in out

    def test_query_rejects_zero_batch_size(self):
        from repro.common import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(
                [
                    "query",
                    "--items",
                    "1000",
                    "--sites",
                    "4",
                    "--engine",
                    "columnar",
                    "--batch-size",
                    "0",
                ]
            )

    def test_query_batch_size_requires_columnar_engine(self):
        with pytest.raises(SystemExit):
            main(["query", "--items", "1000", "--batch-size", "64"])

    def test_query_columnar_engine(self, capsys):
        code = main(
            [
                "query",
                "--items",
                "4000",
                "--sites",
                "4",
                "--sample",
                "16",
                "--engine",
                "columnar",
                "--batch-size",
                "512",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine=columnar" in out

    def test_batched_engine_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["swor", "--items", "100", "--engine", "batched"])

    def test_fault_plan_degrades_with_fault_free_output(self, capsys):
        args = [
            "swor", "--items", "20000", "--sites", "8", "--engine", "sharded",
            "--workers", "2", "--batch-size", "1024",
        ]
        assert main(args) == 0
        clean = capsys.readouterr().out
        faulted = args + ["--fault-plan", "kill:1:2", "--worker-timeout", "30"]
        assert main(faulted + ["--profile"]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean
        assert "degraded to the columnar rung" in captured.err


class TestObservability:
    """--metrics-out / --profile-out / the stats subcommand."""

    ARGS = ["--items", "3000", "--sites", "4", "--sample", "4"]

    def test_metrics_out_json(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        code = main(["swor", *self.ARGS, "--metrics-out", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"metrics written to {path} (json)" in captured.err
        snapshot = json.loads(path.read_text())
        families = snapshot["metrics"]
        assert "repro_engine_runs_total" in families
        sample = families["repro_engine_runs_total"]["samples"][0]
        assert sample == {"labels": {"engine": "reference"}, "value": 1.0}
        assert "repro_messages" in families

    def test_metrics_out_prometheus(self, tmp_path, capsys):
        path = tmp_path / "metrics.prom"
        code = main(["swor", *self.ARGS, "--metrics-out", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"metrics written to {path} (prometheus)" in captured.err
        text = path.read_text()
        assert "# TYPE repro_engine_runs_total counter" in text
        assert 'repro_engine_runs_total{engine="reference"} 1' in text

    def test_metrics_out_on_query_subcommand(self, tmp_path, capsys):
        path = tmp_path / "query.prom"
        code = main(
            ["query", "--items", "3000", "--sites", "4", "--metrics-out", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        text = path.read_text()
        # The pass counts as a run of its engine, through the one map.
        assert 'repro_engine_runs_total{engine="reference"} 1' in text
        assert "# TYPE repro_query_fold_seconds_total counter" in text
        assert "# TYPE repro_query_messages gauge" in text
        assert "repro_driver_" not in text

    def test_query_profile_prints_the_pass_record(self, capsys):
        code = main(
            [
                "query",
                "--items",
                "3000",
                "--sites",
                "4",
                "--engine",
                "columnar",
                "--profile",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "columnar engine: items 3000, windows " in captured.err
        assert "fold: total_weight " in captured.err

    def test_profile_out_writes_full_dump(self, tmp_path, capsys):
        path = tmp_path / "run.pstats"
        code = main(["swor", *self.ARGS, "--profile-out", str(path)])
        captured = capsys.readouterr()
        assert code == 0
        assert f"profile written to {path}" in captured.err
        text = path.read_text()
        assert "cumulative" in text and "ncalls" in text
        # The full dump is not truncated to the --profile top-20 view.
        assert "function calls" in text

    def test_profile_sort_tottime(self, capsys):
        code = main(
            [
                "swor",
                "--items",
                "300",
                "--engine",
                "columnar",
                "--profile",
                "--profile-sort",
                "tottime",
            ]
        )
        assert code == 0
        assert "Ordered by: internal time" in capsys.readouterr().err

    def test_stats_prometheus_to_stdout(self, capsys):
        code = main(["stats", *self.ARGS, "--engine", "columnar"])
        captured = capsys.readouterr()
        assert code == 0
        assert "# TYPE repro_engine_runs_total counter" in captured.out
        assert 'repro_engine_runs_total{engine="columnar"} 1' in captured.out
        # format_stats lands on stderr, keeping stdout scrape-clean.
        assert "columnar engine: items 3000" in captured.err

    def test_stats_json_format(self, capsys):
        import json

        code = main(["stats", *self.ARGS, "--format", "json"])
        captured = capsys.readouterr()
        assert code == 0
        snapshot = json.loads(captured.out)
        assert "repro_engine_items_total" in snapshot["metrics"]

    def test_stats_parses_in_subcommand_table(self):
        args = build_parser().parse_args(["stats"])
        assert args.command == "stats" and args.format == "prometheus"
