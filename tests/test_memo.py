"""The memo primitive: LRU bound, counters, the cold-key race, the
registry, the bound on the tiers a daemon client can grow, and the
fork-safe locks."""

from __future__ import annotations

import gc
import os
import sys
import threading
import time
import weakref

import pytest

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.memo import Memo, MemoStats, clear_all, snapshot
from repro.parallel import sharding
from repro.parallel.plan_cache import cached_optimize_stage
from repro.predictors import encoding_cache
from repro.runtime.profiler import StageProfiler
from repro.serving.runtime import PredictorRuntime

from .test_cache_threads import N_THREADS, ROUNDS, _hammer


class TestMemo:
    def test_lru_order_and_evictions(self):
        memo = Memo("test.lru", "letter", bound=2)
        memo.get("a", lambda: 1)
        memo.get("b", lambda: 2)
        memo.get("a", lambda: 0)  # a hit makes "a" the most recent
        memo.get("c", lambda: 3)  # so "b" is the one evicted
        assert list(memo.entries) == ["a", "c"]
        assert memo.stats == MemoStats(hits=1, misses=3, evictions=1)
        assert memo.get("b", lambda: 4) == 4  # recomputed after eviction
        assert list(memo.entries) == ["c", "b"]
        assert memo.stats.evictions == 2

    def test_hit_and_miss_counters(self):
        memo = Memo("test.counts", "name")
        calls = []

        def compute():
            calls.append(1)
            return "v"

        assert memo.get("k", compute) == "v"
        assert memo.get("k", compute) == "v"
        assert memo.lookup("absent") is None
        assert memo.stats == MemoStats(hits=1, misses=2)
        assert memo.stats.hit_rate == 1 / 3
        assert calls == [1]
        assert memo.put("k", "late") == "v"  # the first insert wins

    def test_cold_key_race_publishes_one_value(self):
        memo = Memo("test.race", "name")
        seen = []
        lock = threading.Lock()

        def slow_value():
            time.sleep(0.001)  # widen the window between miss and put
            return object()

        def step(tid, i):
            value = memo.get("cold", slow_value)
            with lock:
                seen.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(step)
        finally:
            sys.setswitchinterval(interval)
        assert len(seen) == N_THREADS * ROUNDS
        assert len({id(v) for v in seen}) == 1
        assert len(memo) == 1
        stats = memo.stats
        assert stats.hits + stats.misses == N_THREADS * ROUNDS


class TestRegistry:
    def test_clear_all_empties_every_registered_tier(self, tiny_gpt_profiler):
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)
        clear_all()
        cached_optimize_stage(tiny_gpt_profiler.training_graph(0, 1), mesh)
        encoding_cache.cached_encoding(
            tiny_gpt_profiler.predictor_graph(0, 1))
        filled = snapshot()
        assert all(t["entries"] for t in filled.values()), filled
        assert any(t["hits"] + t["misses"] for t in filled.values())
        clear_all()
        for name, t in snapshot().items():
            if t["pinned"]:
                assert t["entries"] == filled[name]["entries"], name
            else:
                assert (t["entries"], t["hits"], t["misses"],
                        t["evictions"]) == (0, 0, 0, 0), name

    def test_per_instance_memo_does_not_keep_its_owner_alive(self,
                                                             tiny_gpt):
        profiler = StageProfiler(tiny_gpt)
        profiler.predictor_graph(0, 1)
        owner, memo = weakref.ref(profiler), weakref.ref(profiler.graphs)
        assert profiler.graphs.name not in snapshot()
        del profiler
        gc.collect()
        assert owner() is None and memo() is None


class TestClientGrownTiers:
    def test_distinct_microbatches_stop_at_the_bound(self, serving_runtime,
                                                     monkeypatch):
        """A client choosing a new ``microbatch`` per request grows the
        encoding memo and the profiler's graph memo by one entry each;
        both stop at their bound (lowered here to keep the test short)."""
        bound = 4
        encodings = Memo("predictors.encodings", "canonical graph hash",
                         bound=bound)
        graphs = Memo("runtime.stage_graphs", "(pred|train, start, end, mb)",
                      bound=bound)
        monkeypatch.setattr(encoding_cache, "ENCODINGS", encodings)
        monkeypatch.setattr(serving_runtime.profiler, "graphs", graphs)
        assert serving_runtime.ensemble is not None
        requests = 3 * bound
        for mb in range(1, requests + 1):
            batch = serving_runtime.resolve_graphs(
                {"slice": [0, 1], "microbatch": mb}, many=False)
            results, _, served_by = serving_runtime.predict_batch(batch, True)
            assert served_by == "model" and len(results) == 1
        for memo in (encodings, graphs):
            assert len(memo) == bound
            assert memo.stats.evictions == requests - bound


class TestForkSafeLocks:
    @pytest.mark.parametrize("make_owner, attr", [
        (lambda: Memo("test.fork", "name"), "_lock"),
        # __init__ only stores its eight arguments; the lock is the subject
        (lambda: PredictorRuntime(*[None] * 8), "model_lock"),
        (lambda: sharding, "_INTERN_LOCK"),
    ], ids=["memo", "model_lock", "intern_lock"])
    def test_child_takes_a_lock_another_thread_held_at_fork(
            self, make_owner, attr):
        """The pool forks workers from a threaded process; a child must
        find every lock it can take released."""
        owner = make_owner()
        held, release = threading.Event(), threading.Event()

        def hold():
            with getattr(owner, attr):
                held.set()
                release.wait(10)

        holder = threading.Thread(target=hold, daemon=True)
        holder.start()
        try:
            assert held.wait(5)
            pid = os.fork()
            if pid == 0:  # the child never returns into pytest
                code = 1
                try:
                    lock = getattr(owner, attr)
                    code = 0 if lock.acquire(timeout=1.0) else 1
                finally:
                    os._exit(code)
            _, status = os.waitpid(pid, 0)
        finally:
            release.set()
            holder.join(5)
        assert not holder.is_alive()
        assert os.waitstatus_to_exitcode(status) == 0
