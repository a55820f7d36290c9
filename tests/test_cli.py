"""CLI surface: parser wiring and the cheap commands."""

import pytest

from repro.cli import main, make_parser


class TestParser:
    def test_commands_exist(self):
        parser = make_parser()
        for argv in (["info"],
                     ["profile", "--dp", "2"],
                     ["predict", "--epochs", "3"],
                     ["search", "--approach", "full"],
                     ["search", "--schedule", "interleaved"],
                     ["bench", "table5", "--jobs", "2"],
                     ["bench", "schedules", "--family", "vit",
                      "--schedule", "2bp"],
                     ["bench", "serve", "--quick", "--clients", "4",
                      "--port", "7713"],
                     ["serve", "--port", "0", "--checkpoint", "a.npz",
                      "--checkpoint", "b.npz", "--reload-poll", "5"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_serve_defaults(self):
        args = make_parser().parse_args(["serve"])
        assert args.port == 7713 and args.checkpoint == []
        assert args.workers == 2 and args.reload_poll == 0.0

    def test_exit_code_constants(self):
        from repro.cli import (EXIT_DEGRADED, EXIT_ERROR, EXIT_OK,
                               EXIT_PARTIAL)

        assert (EXIT_OK, EXIT_ERROR, EXIT_PARTIAL, EXIT_DEGRADED) == \
            (0, 1, 2, 3)

    def test_bench_rejects_unknown_target(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["bench", "table7"])

    def test_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["search", "--schedule", "dualpipe"])
        with pytest.raises(SystemExit):
            make_parser().parse_args(["bench", "schedules",
                                      "--schedule", "dualpipe"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args([])

    def test_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            make_parser().parse_args(["profile", "--platform", "platform9"])


class TestCommands:
    def test_info_runs(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "platform1" in out
        assert "gpt3-1.3b" in out

    def test_info_lists_serving_endpoints_and_fault_sites(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "serving endpoints" in out
        for op in ("predict_many", "whatif", "search", "health"):
            assert f"\n  {op}: " in out
        assert "fault-injection sites" in out
        for site in ("conn_drop", "slow_client", "request_garbage",
                     "worker_crash"):
            assert f"\n  {site}: " in out
        assert "exit codes:" in out

    def test_info_lists_memo_tiers(self, capsys):
        from repro.memo import MEMO_BOUND, snapshot

        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "in-process memo tiers" in out
        for name, tier in snapshot().items():
            assert f"\n  {name} [{tier['key']}]: bound " in out
        assert f"predictors.encodings [canonical graph hash]: " \
            f"bound {MEMO_BOUND}" in out

    def test_profile_runs(self, capsys):
        rc = main(["profile", "--family", "gpt", "--layers", "2",
                   "--mesh", "2", "--dp", "2", "--mp", "1",
                   "--unit-start", "0", "--unit-end", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "latency" in out
        assert "ms" in out

    def test_predict_runs_and_saves(self, capsys, tmp_path):
        rc = main(["predict", "--family", "gpt", "--layers", "2",
                   "--units", "3", "--mesh", "2", "--dp", "2", "--mp", "1",
                   "--epochs", "3", "--sample-fraction", "0.9",
                   "--predictor", "gcn",
                   "--save", str(tmp_path / "p.npz")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MRE" in out
        assert (tmp_path / "p.npz").exists()

    def test_search_single_approach(self, capsys):
        rc = main(["search", "--family", "gpt", "--layers", "2",
                   "--units", "3", "--approach", "full",
                   "--microbatches", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "optimization cost" in out

    def test_search_json_output(self, capsys):
        import json

        rc = main(["search", "--family", "gpt", "--layers", "2",
                   "--units", "3", "--approach", "full",
                   "--microbatches", "4", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        r = data["full"]
        assert r["latency_ms"] > 0 and r["stages"] >= 1
        assert r["degradations"] == []
        assert r["trust"] is None  # full profiling has nothing to guard

    def test_bench_table5_writes_artifacts(self, capsys, tmp_path,
                                           monkeypatch):
        import repro.experiments.cache as cache_mod
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        rc = main(["bench", "table5", "--family", "gpt", "--jobs", "1",
                   "--profile", "smoke", "--output", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "MRE" in out and "jobs=1" in out
        csv_path = tmp_path / "out" / "smoke" / "table5_gpt.csv"
        txt_path = tmp_path / "out" / "smoke" / "table5_gpt.txt"
        assert csv_path.is_file() and txt_path.is_file()
        assert "scenario,fraction,predictor,mre_pct" in csv_path.read_text()

    def test_bench_schedules_writes_artifacts(self, capsys, tmp_path,
                                              monkeypatch):
        import repro.experiments.cache as cache_mod
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        rc = main(["bench", "schedules", "--family", "vit", "--jobs", "1",
                   "--profile", "smoke", "--output", str(tmp_path / "out")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "validated simulator == closed form" in out
        csv_path = tmp_path / "out" / "smoke" / "schedule_grid_vit.csv"
        assert csv_path.is_file()
        text = csv_path.read_text()
        assert text.startswith("schedule,n_stages,n_microbatches,")
        for name in ("1f1b", "gpipe", "interleaved", "2bp"):
            assert f"\n{name}," in text

    def test_bench_schedules_quick_limits_families(self, capsys, tmp_path,
                                                   monkeypatch):
        import repro.experiments.cache as cache_mod
        monkeypatch.setenv("REPRO_CACHE", "off")
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        rc = main(["bench", "schedules", "--quick", "--family", "all",
                   "--schedule", "interleaved", "--jobs", "1",
                   "--profile", "smoke", "--output", str(tmp_path / "out")])
        assert rc == 0
        written = {p.name for p in (tmp_path / "out" / "smoke").iterdir()}
        assert written == {"schedule_grid_gpt.csv", "schedule_grid_gpt.txt"}
