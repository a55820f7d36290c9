"""Thread-safety stress: the encoding cache and plan cache under the
serving daemon's concurrency (batcher + executor threads hitting the
process-wide memos simultaneously)."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.ir import GraphBuilder
from repro.memo import Memo
from repro.parallel.plan_cache import cached_optimize_stage
from repro.predictors.encoding_cache import cached_encoding

N_THREADS = 8
ROUNDS = 30


def _mlp(width: int, prefix: str = ""):
    b = GraphBuilder(f"mlp{width}-{prefix}")
    x = b.input(f"{prefix}x", (4, width))
    w = b.param(f"{prefix}w", (width, 16))
    b.output(b.relu(b.matmul(x, w)), f"{prefix}out")
    return b.build()


def _hammer(fn):
    """Run ``fn(tid, i)`` from N_THREADS×ROUNDS, re-raising any error."""
    errors = []
    barrier = threading.Barrier(N_THREADS)

    def worker(tid):
        try:
            barrier.wait()
            for i in range(ROUNDS):
                fn(tid, i)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not errors, errors


class TestEncodingCacheThreads:
    def test_concurrent_mixed_keys(self):
        cache = Memo("test.encodings", "canonical graph hash")
        # 4 distinct structures; name prefixes differ per thread, so
        # structural hashing must still collapse them to 4 entries
        widths = (8, 12, 16, 24)
        reference = {w: cached_encoding(_mlp(w), cache) for w in widths}

        def step(tid, i):
            w = widths[(tid + i) % len(widths)]
            enc = cached_encoding(_mlp(w, prefix=f"t{tid}_"), cache)
            ref = reference[w]
            assert enc is ref, "hits must share the cached bundle"
            assert not enc.features.flags.writeable

        _hammer(step)
        assert len(cache) == len(widths)
        assert cache.stats.hits == N_THREADS * ROUNDS
        assert cache.stats.misses == len(widths)

    def test_cold_key_race_is_single_entry(self):
        """All threads race one cold key: duplicate computes are allowed,
        but exactly one bundle may be published and served."""
        cache = Memo("test.encodings", "canonical graph hash")
        seen = []
        lock = threading.Lock()

        def step(tid, i):
            enc = cached_encoding(_mlp(64, prefix=f"t{tid}r{i}_"), cache)
            with lock:
                seen.append(id(enc))

        _hammer(step)
        assert len(cache) == 1
        assert len(set(seen)) == 1

    def test_concurrent_clear_does_not_corrupt(self):
        cache = Memo("test.encodings", "canonical graph hash")

        def step(tid, i):
            if tid == 0 and i % 10 == 0:
                cache.clear()
            enc = cached_encoding(_mlp(8 + 4 * (i % 3), prefix=f"t{tid}_"),
                                  cache)
            assert enc.depths.dtype == np.int64

        _hammer(step)
        assert len(cache) <= 3


class TestPlanCacheThreads:
    @pytest.fixture
    def mesh(self):
        return DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)

    def test_concurrent_solves_agree_with_serial(self, mesh):
        cache = Memo("test.plans", "(graph hash, mesh key)")
        widths = (8, 16, 24)
        expected = {
            w: cached_optimize_stage(_mlp(w), mesh, cache).estimated_time
            for w in widths}
        results = []
        lock = threading.Lock()

        def step(tid, i):
            w = widths[(tid + i) % len(widths)]
            plan = cached_optimize_stage(_mlp(w, prefix=f"t{tid}_"), mesh,
                                         cache)
            with lock:
                results.append((w, plan.estimated_time))

        _hammer(step)
        assert len(cache) == len(widths)
        for w, estimated in results:
            assert estimated == expected[w]

    def test_hit_rebinds_to_the_callers_graph(self, mesh):
        cache = Memo("test.plans", "(graph hash, mesh key)")
        plans = []
        lock = threading.Lock()

        def step(tid, i):
            g = _mlp(32, prefix=f"t{tid}_")
            plan = cached_optimize_stage(g, mesh, cache)
            assert plan.graph is g
            with lock:
                plans.append(plan.estimated_time)

        _hammer(step)
        assert len(set(plans)) == 1
        assert len(cache) == 1
