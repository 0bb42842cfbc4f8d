"""Tests for the command-line interface."""

import pytest

from repro.cli import EXPERIMENTS, _experiment_registry, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_datasets_defaults(self):
        args = build_parser().parse_args(["datasets"])
        assert args.command == "datasets"
        assert args.seed == 20111206

    def test_train_options(self):
        args = build_parser().parse_args(
            ["train", "--dataset", "hps3", "--rank", "5", "--eta", "0.01"]
        )
        assert args.dataset == "hps3"
        assert args.rank == 5
        assert args.eta == 0.01

    def test_train_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "planetlab"])

    def test_version_exits(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_version_matches_package(self, capsys):
        import repro

        with pytest.raises(SystemExit):
            main(["--version"])
        assert repro.__version__ in capsys.readouterr().out

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.dataset == "meridian"
        assert args.port == 8787
        assert args.refresh_every == 1000
        assert args.checkpoint is None

    def test_serve_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--dataset",
                "hps3",
                "--nodes",
                "64",
                "--rounds",
                "0",
                "--port",
                "0",
                "--refresh-every",
                "128",
            ]
        )
        assert args.dataset == "hps3"
        assert args.nodes == 64
        assert args.rounds == 0
        assert args.port == 0
        assert args.refresh_every == 128

    def test_serve_scaleout_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.shards == 1
        assert args.queue_depth == 64
        assert args.coalesce_window is None
        assert args.backend == "threading"

    def test_serve_scaleout_options(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--shards",
                "4",
                "--queue-depth",
                "16",
                "--coalesce-window",
                "1.5",
                "--backend",
                "selectors",
            ]
        )
        assert args.shards == 4
        assert args.queue_depth == 16
        assert args.coalesce_window == 1.5  # milliseconds
        assert args.backend == "selectors"

    def test_serve_rejects_unknown_backend(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "twisted"])


class TestRegistry:
    def test_all_ids_resolvable(self):
        registry = _experiment_registry()
        for name in EXPERIMENTS:
            run, fmt = registry[name]
            assert callable(run) and callable(fmt)

    def test_registry_matches_public_list(self):
        assert set(_experiment_registry()) == set(EXPERIMENTS)


class TestCommands:
    def test_datasets_command(self, capsys):
        code = main(["datasets", "--nodes", "40", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("harvard", "meridian", "hps3"):
            assert name in out

    def test_train_command(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "meridian",
                "--nodes",
                "50",
                "--rounds",
                "100",
                "--neighbors",
                "8",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "AUC" in out and "Accuracy" in out

    def test_train_with_good_fraction(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "meridian",
                "--nodes",
                "50",
                "--rounds",
                "60",
                "--neighbors",
                "8",
                "--good-fraction",
                "0.25",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert "tau" in capsys.readouterr().out

    def test_experiment_list(self, capsys):
        code = main(["experiment", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig1" in out and "table2" in out

    def test_experiment_unknown(self, capsys):
        code = main(["experiment", "fig99"])
        assert code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_unknown_lists_available_ids(self, capsys):
        code = main(["experiment", "fig99"])
        err = capsys.readouterr().err
        assert code == 2
        for name in EXPERIMENTS:
            assert name in err

    def test_experiment_runs_table1(self, capsys):
        code = main(["experiment", "table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "harvard" in out

    def test_report_writes_file(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        code = main(["report", "--only", "table1", "--output", str(output)])
        assert code == 0
        text = output.read_text()
        assert "# DMFSGD reproduction report" in text
        assert "## table1" in text

    def test_report_rejects_unknown_id(self, capsys, tmp_path):
        output = tmp_path / "report.md"
        code = main(["report", "--only", "fig99", "--output", str(output)])
        assert code == 2
        assert not output.exists()

    def test_bench_default_output_is_bench_out(
        self, capsys, tmp_path, monkeypatch
    ):
        # a stand-in for the minutes-long scenario run: the CLI's own
        # output handling is what is under test
        import repro.scenarios.benchio as benchio

        def fake_bench(name, **kwargs):
            return {"scenario": name, "seed": kwargs["seed"], "ticks": 1,
                    "guard": "none", "schedule_match": True}

        monkeypatch.setattr(benchio, "bench_scenario", fake_bench)
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--scenario", "diurnal", "--workers", "threads"])
        assert code == 0
        written = tmp_path / ".bench_out" / "BENCH_scenario_diurnal.json"
        assert written.exists()
        assert not (tmp_path / "BENCH_scenario_diurnal.json").exists()
        assert str(written.relative_to(tmp_path)) in capsys.readouterr().out
