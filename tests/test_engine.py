"""Parallel experiment engine: worker plumbing and serial/parallel parity."""

from __future__ import annotations

import pytest

import repro.experiments.cache as cache_mod
import repro.experiments.engine as engine
from repro.experiments import SMOKE
from repro.experiments.engine import (grid_cells, n_jobs, parallel_map,
                                      run_grid, supervised_map)
from repro.experiments.scenarios import scenario_grid


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Point the global results cache at a throwaway directory."""
    def point_at(name):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / name))
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
    return point_at


class TestNJobs:
    def test_env_controls_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert n_jobs() == 3

    def test_env_one_is_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert n_jobs() == 1

    def test_default_is_cpu_count(self, monkeypatch):
        import os
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert n_jobs() == (os.cpu_count() or 1)

    def test_explicit_default_wins_over_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert n_jobs(default=2) == 2

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            n_jobs()

    def test_clamped_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert n_jobs() == 1


class TestParallelMap:
    def test_order_preserved(self):
        items = list(range(23))
        assert parallel_map(lambda x: x * x, items, jobs=4) == \
            [x * x for x in items]

    def test_serial_path_runs_in_process(self):
        """jobs=1 must not fork: side effects stay visible."""
        seen = []
        out = parallel_map(lambda x: seen.append(x) or x, [1, 2, 3], jobs=1)
        assert out == [1, 2, 3] and seen == [1, 2, 3]

    def test_single_item_skips_pool(self):
        seen = []
        parallel_map(lambda x: seen.append(x), ["only"], jobs=8)
        assert seen == ["only"]

    def test_closures_cross_the_fork(self):
        """fn is inherited through fork, so closures over live state work."""
        offset = 1000
        assert parallel_map(lambda x: x + offset, list(range(8)), jobs=2) == \
            [x + 1000 for x in range(8)]

    def test_nested_parallelism_suppressed(self):
        """Inside a worker, n_jobs() reports 1 and a map asking for two
        workers runs in-process (a daemonic worker cannot fork)."""
        inner = parallel_map(lambda _: n_jobs(), list(range(4)), jobs=2)
        assert inner == [1, 1, 1, 1]
        nested = {
            "parallel_map": lambda x: parallel_map(
                lambda y: x * y, [1, 2, 3], jobs=2),
            "supervised_map": lambda x: supervised_map(
                lambda y: x * y, [1, 2, 3], jobs=2, retries=0).results,
        }
        for name, outer in nested.items():
            assert parallel_map(outer, [1, 2, 3, 4], jobs=2) == \
                [[x, 2 * x, 3 * x] for x in [1, 2, 3, 4]], name
        assert engine._IN_WORKER is False  # parent state untouched

    def test_empty_items(self):
        assert parallel_map(lambda x: x, [], jobs=4) == []


class TestGridCells:
    def test_canonical_table_order(self):
        cells = grid_cells("platform1", ("gcn", "gat"), (0.5, 0.8))
        scenarios = scenario_grid("platform1")
        assert len(cells) == len(scenarios) * 2 * 2
        assert cells[0] == (scenarios[0], 0.5, "gcn")
        assert cells[1] == (scenarios[0], 0.5, "gat")
        assert cells[2] == (scenarios[0], 0.8, "gcn")


class TestDeterminism:
    def test_table5_cell_serial_vs_four_workers(self, fresh_cache):
        """One Table V cell through the serial path and through a 4-worker
        pool must produce bit-identical MREs."""
        fresh_cache("serial")
        serial = run_grid("platform1", "gpt", SMOKE, ("gcn",), (0.5,), jobs=1)
        fresh_cache("par4")
        par = run_grid("platform1", "gpt", SMOKE, ("gcn",), (0.5,), jobs=4)
        assert serial == par
        assert len(serial) == len(scenario_grid("platform1"))
        assert all(v > 0 for v in serial.values())

    def test_parallel_results_land_in_shared_cache(self, fresh_cache,
                                                   tmp_path):
        """Workers write through the sharded cache, so a later serial pass
        re-reads their cells instead of retraining."""
        from repro.experiments.tables import cell_key, run_cell

        fresh_cache("shared")
        grid = run_grid("platform1", "gpt", SMOKE, ("gcn",), (0.5,), jobs=2)
        cache = cache_mod.global_cache()
        sc = scenario_grid("platform1")[0]
        key = cell_key(SMOKE, "gpt", sc, 0.5, "gcn", SMOKE.seed)
        assert cache.get(key) is not None
        cell = run_cell("gpt", sc, 0.5, "gcn", SMOKE)  # cache hit
        assert cell.mre == grid[(sc.key, 0.5, "gcn")]


class TestGridWorkers:
    def test_each_grid_forks_after_its_corpora_are_profiled(
            self, fresh_cache, monkeypatch):
        """A parallel grid profiles its stage corpora in the parent so
        that every worker inherits them.  A second grid in one process
        (``repro bench tables``, ``--family both``) must not run on the
        first grid's workers, forked before its corpora existed."""
        import types

        import repro.experiments.corpus as corpus_mod
        import repro.experiments.pool as pool_mod
        import repro.experiments.tables as tables_mod

        profiled = set()  # the parent's corpora; a fork copies the set

        def fake_corpus(family, scenario, profile):
            profiled.add((family, scenario.key))
            return []

        def fake_cell(family, scenario, fraction, kind, profile):
            # mre 1.0: the worker was forked after this corpus existed
            return types.SimpleNamespace(
                scenario_key=scenario.key, fraction=fraction, kind=kind,
                mre=float((family, scenario.key) in profiled),
                epochs_run=0, train_seconds=0.0, diverged=False,
                retrained=False)

        monkeypatch.setattr(corpus_mod, "stage_corpus", fake_corpus)
        monkeypatch.setattr(tables_mod, "run_cell", fake_cell)
        fresh_cache("grids")
        try:
            for family in ("gpt", "bert"):
                report = engine.run_grid_report(
                    "platform1", family, SMOKE, ("gcn",), (0.5,), jobs=2)
                assert report.completed == report.cells > 1
                assert set(report.results.values()) == {1.0}, family
        finally:
            pool_mod.shutdown()  # its workers hold the fakes
