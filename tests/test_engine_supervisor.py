"""Fault-tolerant engine supervisor: retries, timeouts, dead-worker
resubmission, partial-failure accounting, and chaos-run determinism."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

import repro.experiments.cache as cache_mod
from repro import faults
from repro.experiments import SMOKE, manifest
from repro.experiments.cache import ResultsCache
from repro.experiments.engine import (
    CellFailure,
    parallel_map,
    run_grid,
    run_grid_report,
    supervised_map,
)
from repro.experiments.scenarios import scenario_grid


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """Point the global results cache at a throwaway directory."""
    def point_at(name):
        root = tmp_path / name
        monkeypatch.setenv("REPRO_CACHE", str(root))
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        return root
    return point_at


def _double(x):
    return x * 2


def _fail_on_three(x):
    if x == 3:
        raise ValueError("three is right out")
    return x


class TestSupervisedMapMechanics:
    def test_plain_map_parallel(self):
        out = supervised_map(_double, list(range(9)), jobs=4, retries=0)
        assert out.results == [2 * x for x in range(9)]
        assert out.failures == [] and out.mode == "parallel"
        assert out.attempts == 9

    def test_plain_map_serial(self):
        out = supervised_map(_double, list(range(5)), jobs=1)
        assert out.results == [2 * x for x in range(5)]
        assert out.mode == "serial"

    def test_injected_crash_resubmitted(self, monkeypatch):
        """A worker that dies abruptly costs one retry, not the run."""
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:at=1")
        out = supervised_map(_double, [0, 1, 2], jobs=3, retries=2,
                             backoff=0.01)
        assert out.results == [0, 2, 4]
        assert out.failures == []
        assert out.attempts == 4  # 3 cells + 1 resubmission

    def test_hang_killed_and_retried(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "cell_hang:at=0,secs=60")
        t0 = time.monotonic()
        out = supervised_map(_double, [0, 1], jobs=2, timeout=1.0,
                             retries=1, backoff=0.01)
        assert out.results == [0, 2]
        assert time.monotonic() - t0 < 30  # killed, not slept through

    def test_exception_retries_then_structured_failure(self):
        out = supervised_map(_fail_on_three, [1, 2, 3], jobs=2, retries=1,
                             backoff=0.0)
        assert out.results == [1, 2, None]
        (failure,) = out.failures
        assert isinstance(failure, CellFailure)
        assert failure.index == 2 and failure.failure_class == "exception"
        assert failure.attempts == 2
        assert "three is right out" in failure.detail

    def test_exhausted_crash_reports_exit_code(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:at=0,attempts=*")
        out = supervised_map(_double, [0, 1], jobs=2, retries=1,
                             backoff=0.01)
        assert out.results == [None, 2]
        (failure,) = out.failures
        assert failure.failure_class == "crash"
        assert str(faults.CRASH_EXIT_CODE) in failure.detail

    def test_serial_path_retries_injected_crash(self, monkeypatch):
        """In-process, worker_crash degrades to an exception + retry."""
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:at=0")
        out = supervised_map(_double, [0, 1], jobs=1, retries=1, backoff=0.0)
        assert out.results == [0, 2] and out.failures == []
        assert out.attempts == 3

    def test_manifest_journal_records_attempts(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:at=1")
        supervised_map(_double, [0, 1, 2], jobs=2, retries=2, backoff=0.01,
                       manifest_root=tmp_path, run_id="t")
        events = manifest.read_events(tmp_path)
        kinds = [e["event"] for e in events]
        assert kinds.count("cell_attempt") == 4
        assert kinds.count("cell_done") == 3
        retry = next(e for e in events if e["event"] == "cell_retry")
        assert retry["class"] == "crash" and retry["index"] == 1
        assert "no events" not in manifest.summarize(events)

    def test_unhealthy_pool_degrades_to_serial(self, monkeypatch):
        class BrokenContext:
            def Pipe(self, duplex=False):
                raise OSError("fork bomb protection engaged")

            def Process(self, *a, **k):  # pragma: no cover
                raise OSError("no")

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda kind: BrokenContext())
        with pytest.warns(UserWarning, match="unhealthy"):
            out = supervised_map(_double, [0, 1, 2], jobs=2, retries=0)
        assert out.results == [0, 2, 4]
        assert out.mode == "degraded"


class TestParallelMapDegradation:
    def test_pool_creation_failure_falls_back_serially(self, monkeypatch):
        class BrokenContext:
            def Pipe(self, duplex=True):
                raise OSError("Resource temporarily unavailable")

        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda kind: BrokenContext())
        with pytest.warns(UserWarning, match="serially"):
            assert parallel_map(_double, [1, 2, 3], jobs=4) == [2, 4, 6]


class TestChaosGridDeterminism:
    def test_faulted_grid_bit_identical_to_clean_serial_run(
            self, fresh_cache, monkeypatch):
        """The acceptance scenario: a grid run surviving a worker crash,
        a hung cell, and a corrupted shard must complete and produce
        results bit-identical to a fault-free serial run (cell seeds
        derive from the profile, never from the attempt count)."""
        from repro.experiments.tables import cell_key

        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        fresh_cache("clean")
        clean = run_grid("platform1", "gpt", SMOKE, ("gcn",), (0.5,), jobs=1)
        assert len(clean) == len(scenario_grid("platform1"))

        # cell 0's result shard gets corrupted right after its write
        scenario0 = scenario_grid("platform1")[0]
        key0 = cell_key(SMOKE, "gpt", scenario0, 0.5, "gcn", SMOKE.seed)
        shard0 = cache_mod._shard_index(key0)
        chaos_root = fresh_cache("chaos")
        monkeypatch.setenv(
            faults.ENV_VAR,
            f"worker_crash:at=1;cell_hang:at=2,secs=300;"
            f"shard_corrupt:at={shard0}")
        chaos = run_grid_report("platform1", "gpt", SMOKE, ("gcn",), (0.5,),
                                jobs=2, timeout=90, retries=2)
        assert chaos.failures == []
        assert chaos.results == clean
        assert chaos.attempts > chaos.cells  # the crash cost a retry

        # the manifest journaled the whole story
        events = manifest.read_events(chaos_root)
        kinds = {e["event"] for e in events}
        assert {"grid_start", "cell_attempt", "cell_retry", "cell_done",
                "grid_done"} <= kinds

        # the corrupted shard quarantines on read, and recomputing the
        # cell restores the identical value
        monkeypatch.delenv(faults.ENV_VAR)
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        fresh = cache_mod.global_cache()
        with pytest.warns(UserWarning, match="quarantined"):
            assert fresh.get(key0) is None
        from repro.experiments.tables import run_cell

        recomputed = run_cell("gpt", scenario0, 0.5, "gcn", SMOKE)
        assert recomputed.mre == clean[(scenario0.key, 0.5, "gcn")]
        assert fresh.get(key0) is not None  # cache rebuilt

    def test_exhausted_cell_reported_not_raised(self, fresh_cache,
                                                monkeypatch):
        """A cell that fails every attempt yields a failure record and a
        manifest entry; the other cells still complete."""
        root = fresh_cache("partial")
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:at=0,attempts=*")
        report = run_grid_report("platform1", "gpt", SMOKE, ("gcn",), (0.5,),
                                 jobs=2, retries=1)
        assert len(report.failures) == 1
        assert report.failures[0].failure_class == "crash"
        assert report.completed == report.cells - 1
        assert len(report.results) == report.cells - 1
        failed = [e for e in manifest.read_events(root)
                  if e["event"] == "cell_failed"]
        assert len(failed) == 1 and failed[0]["class"] == "crash"
        # the back-compat wrapper warns instead of raising
        monkeypatch.setattr(cache_mod, "_GLOBAL", None)
        with pytest.warns(UserWarning, match="cells failed"):
            grid = run_grid("platform1", "gpt", SMOKE, ("gcn",), (0.5,),
                            jobs=2)
        assert len(grid) == report.cells - 1
