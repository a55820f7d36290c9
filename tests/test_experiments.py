"""Experiment harness: profiles, scenarios, corpus, cells, reporting, cache."""

import numpy as np
import pytest

from repro.experiments import (
    PROFILES,
    SMOKE,
    ResultsCache,
    Scenario,
    active_profile,
    all_scenarios,
    best_kind_share,
    corpus_summary,
    grid_statistics,
    random_plan_latencies,
    render_mre_table,
    render_stats,
    run_cell,
    scenario_grid,
    stage_corpus,
)


class TestProfiles:
    def test_three_profiles(self):
        assert set(PROFILES) == {"smoke", "fast", "paper"}

    def test_paper_matches_protocol(self):
        p = PROFILES["paper"]
        assert p.epochs == 500
        assert p.patience == 200
        assert p.batch_size == 32
        assert p.fractions == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)
        assert p.gpt_layers is None  # full Table-IV depth

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert active_profile().name == "smoke"
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ValueError):
            active_profile()

    def test_train_config_propagates(self):
        cfg = SMOKE.train_config(seed=3)
        assert cfg.epochs == SMOKE.epochs
        assert cfg.seed == 3


class TestScenarios:
    def test_platform1_has_three(self):
        grid = scenario_grid("platform1")
        assert [(s.mesh_index, s.config_index) for s in grid] == [
            (1, 1), (2, 1), (2, 2)]

    def test_platform2_has_six(self):
        assert len(scenario_grid("platform2")) == 6

    def test_total_nine(self):
        assert len(all_scenarios()) == 9

    def test_scenario_shapes_match_table_iii(self):
        sc = scenario_grid("platform2")
        shapes = {(s.mesh_index, s.config_index): (s.dp, s.mp) for s in sc}
        assert shapes[(3, 1)] == (4, 1)
        assert shapes[(3, 2)] == (2, 2)
        assert shapes[(3, 3)] == (1, 4)

    def test_keys_unique(self):
        keys = [s.key for s in all_scenarios()]
        assert len(set(keys)) == len(keys)

    def test_mesh_resolution(self):
        sc = scenario_grid("platform2")[3]
        assert sc.mesh().num_devices == 4


class TestCorpus:
    def test_corpus_size(self):
        sc = scenario_grid("platform2")[1]
        samples = stage_corpus("gpt", sc, SMOKE)
        expected = (len(SMOKE.corpus_microbatches)
                    * SMOKE.gpt_units * (SMOKE.gpt_units + 1) // 2)
        assert len(samples) == expected

    def test_corpus_memoized(self):
        sc = scenario_grid("platform2")[1]
        a = stage_corpus("gpt", sc, SMOKE)
        b = stage_corpus("gpt", sc, SMOKE)
        assert a is b

    def test_summary(self):
        sc = scenario_grid("platform2")[1]
        s = corpus_summary(stage_corpus("gpt", sc, SMOKE))
        assert s["n_stages"] > 0
        assert s["latency_ms_max"] > s["latency_ms_min"] > 0


class TestCells:
    def test_run_cell_smoke(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "c.json"))
        import repro.experiments.cache as cache_mod
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        sc = scenario_grid("platform2")[0]
        cell = run_cell("gpt", sc, 0.5, "gcn", SMOKE)
        assert cell.mre > 0
        # second call must hit the cache (no retraining)
        again = run_cell("gpt", sc, 0.5, "gcn", SMOKE)
        assert again.mre == cell.mre


class TestAggregations:
    def _grid(self):
        return {
            ("s1", 0.5, "gcn"): 10.0, ("s1", 0.5, "gat"): 20.0,
            ("s1", 0.5, "dag_transformer"): 5.0,
            ("s2", 0.5, "gcn"): 30.0, ("s2", 0.5, "gat"): 6.0,
            ("s2", 0.5, "dag_transformer"): 7.0,
        }

    def test_grid_statistics(self):
        stats = grid_statistics(self._grid())
        assert stats["gcn"]["mean"] == pytest.approx(20.0)
        assert stats["dag_transformer"]["mean"] == pytest.approx(6.0)
        assert stats["dag_transformer"]["std"] == pytest.approx(1.0)

    def test_best_kind_share(self):
        share = best_kind_share(self._grid())
        assert share["dag_transformer"] == pytest.approx(0.5)
        assert share["gat"] == pytest.approx(0.5)
        assert share["gcn"] == 0.0


class TestReporting:
    def test_render_mre_table_marks_winner(self):
        grid = {}
        for sc in scenario_grid("platform1"):
            for k, v in (("gcn", 10.0), ("gat", 20.0),
                         ("dag_transformer", 5.0)):
                grid[(sc.key, 0.5, k)] = v
        text = render_mre_table(grid, "platform1", "gpt", (0.5,))
        assert "5.00*" in text
        assert "MRE" in text

    def test_render_stats(self):
        text = render_stats({"gcn": {"mean": 1.0, "std": 0.5, "n": 4}}, "T")
        assert "GCN" in text and "1.00" in text


class TestCache:
    def test_roundtrip(self, tmp_path):
        c = ResultsCache(tmp_path / "r.json")
        c.set("a/b", {"x": 1})
        c2 = ResultsCache(tmp_path / "r.json")
        assert c2.get("a/b") == {"x": 1}
        assert "a/b" in c2

    def test_off_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "off")
        c = ResultsCache()
        c.set("k", 1)
        assert c.root is None
        assert c.get("k") == 1  # in-memory only

    def test_corrupt_file_ignored(self, tmp_path):
        p = tmp_path / "r.json"
        p.write_text("{not json")
        c = ResultsCache(p)
        assert c.get("x") is None


class TestFig2:
    def test_random_plans_positive_and_spread(self):
        lats = random_plan_latencies("gpt", SMOKE, n_plans=8, seed=0)
        assert (lats > 0).all()
        assert lats.max() > lats.min()

    def test_deterministic_per_seed(self):
        a = random_plan_latencies("gpt", SMOKE, n_plans=5, seed=2)
        b = random_plan_latencies("gpt", SMOKE, n_plans=5, seed=2)
        assert np.allclose(a, b)
