"""Persistent worker pool: reuse, restarts, shared-memory transport,
and crash healing.

Bit-identity of pool results against the serial loop is covered by the
engine/supervisor/chaos suites (which now run over the pool by default);
here we pin the *pool-specific* behaviors — that workers actually
persist across calls, that every staleness condition forces a restart,
that large numpy results ride shared memory, and that the pool heals
itself around worker deaths instead of wedging.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments.pool as pool_mod
from repro import faults
from repro.experiments.engine import parallel_map, supervised_map


@pytest.fixture(autouse=True)
def fresh_pool():
    """Each test starts (and ends) with no live pool and zeroed stats."""
    pool_mod._shutdown_global()
    pool_mod.pool_stats().reset()
    yield
    pool_mod._shutdown_global()


def _double(x):
    return x * 2


def _triple(x):
    return x * 3


def _big_block(x):
    # 512*512 float64 = 2 MiB, past the SHM_MIN_BYTES threshold
    return {"scaled": np.full((512, 512), float(x)), "tag": x}


def _boom(x):
    if x == 2:
        raise ValueError("boom at two")
    return x


class TestReuse:
    def test_pool_persists_across_calls(self):
        for _ in range(3):
            assert parallel_map(_double, list(range(8)), jobs=2) == \
                [2 * x for x in range(8)]
        stats = pool_mod.pool_stats()
        assert stats.pools_started == 1
        assert stats.workers_spawned == 2
        assert stats.tasks == 24

    def test_fn_change_restarts(self):
        """Workers inherit the callable at fork; a different fn means the
        old workers would run the wrong code."""
        parallel_map(_double, [1, 2, 3], jobs=2)
        assert parallel_map(_triple, [1, 2, 3], jobs=2) == [3, 6, 9]
        assert pool_mod.pool_stats().pools_started == 2

    def test_env_change_restarts(self, monkeypatch):
        """Workers read REPRO_* from the environment they forked with."""
        parallel_map(_double, [1, 2, 3], jobs=2)
        monkeypatch.setenv("REPRO_CELL_RETRIES", "5")
        assert parallel_map(_double, [1, 2, 3], jobs=2) == [2, 4, 6]
        assert pool_mod.pool_stats().pools_started == 2

    def test_wider_caller_restarts(self):
        parallel_map(_double, list(range(8)), jobs=2)
        parallel_map(_double, list(range(8)), jobs=4)
        stats = pool_mod.pool_stats()
        assert stats.pools_started == 2
        # and a subsequent narrower call reuses the wide pool
        parallel_map(_double, list(range(8)), jobs=2)
        assert stats.pools_started == 2

    def test_jobs_one_stays_in_process(self):
        seen = []
        parallel_map(lambda x: seen.append(x) or x, [1, 2, 3], jobs=1)
        assert seen == [1, 2, 3]
        assert pool_mod.pool_stats().pools_started == 0


class TestSharedMemoryTransport:
    def test_large_arrays_ride_shared_memory(self):
        out = parallel_map(_big_block, [1, 2, 3, 4], jobs=2)
        for x, block in zip([1, 2, 3, 4], out):
            assert block["tag"] == x
            np.testing.assert_array_equal(
                block["scaled"], np.full((512, 512), float(x)))
        stats = pool_mod.pool_stats()
        assert stats.shm_arrays == 4
        assert stats.shm_bytes == 4 * 512 * 512 * 8

    def test_small_results_stay_on_the_pipe(self):
        parallel_map(_double, list(range(6)), jobs=2)
        assert pool_mod.pool_stats().shm_arrays == 0


class TestHealing:
    def test_task_exception_propagates_without_killing_the_pool(self):
        with pytest.raises(ValueError, match="boom at two"):
            parallel_map(_boom, [1, 2, 3, 4], jobs=2)
        # same fn, same env: the surviving workers serve the next call
        assert parallel_map(_boom, [1, 3, 4, 5], jobs=2) == [1, 3, 4, 5]
        assert pool_mod.pool_stats().pools_started == 1

    def test_dead_pool_detected_and_restarted(self):
        parallel_map(_double, [1, 2, 3, 4], jobs=2)
        worker = pool_mod._POOL.workers[0]
        worker.proc.terminate()
        worker.proc.join(timeout=5.0)
        assert parallel_map(_double, [5, 6, 7, 8], jobs=2) == [10, 12, 14, 16]
        assert pool_mod.pool_stats().pools_started == 2

    def test_supervised_crash_respawns_worker(self, monkeypatch):
        """The ISSUE chaos scenario: a worker dies mid-grid inside the
        persistent pool, the pool respawns it, and the results are
        bit-identical to the serial loop."""
        monkeypatch.setenv(faults.ENV_VAR, "worker_crash:at=1")
        out = supervised_map(_double, [0, 1, 2], jobs=2, retries=2,
                             backoff=0.01)
        assert out.results == [0, 2, 4] and out.failures == []
        assert out.attempts == 4  # the crash cost exactly one resubmission
        stats = pool_mod.pool_stats()
        assert stats.workers_respawned >= 1
        # the healed pool is back at full strength and keeps serving
        pool = pool_mod._POOL
        assert pool is not None and pool.alive()
        assert len(pool.workers) == 2
        out2 = supervised_map(_double, [0, 1, 2], jobs=2, retries=2,
                              backoff=0.01)
        assert out2.results == [0, 2, 4]
