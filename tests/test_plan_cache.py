"""Intra-op plan cache: canonical hashing and memoized DP equivalence."""

from __future__ import annotations

import pytest

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.ir import GraphBuilder
from repro.ir.serialize import canonical_graph_dict, canonical_hash
from repro.memo import Memo
from repro.parallel.intra_op import optimize_stage
from repro.parallel.plan_cache import cached_optimize_stage
from repro.runtime.executor import execute_plan


def _mlp(name: str, node_prefix: str = "") -> "GraphBuilder":
    b = GraphBuilder(name)
    x = b.input(f"{node_prefix}x", (4, 8))
    w = b.param(f"{node_prefix}w", (8, 16))
    b.output(b.relu(b.matmul(x, w)), f"{node_prefix}out")
    return b.build()


@pytest.fixture
def mesh():
    return DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)


class TestCanonicalHash:
    def test_names_do_not_matter(self):
        """Twin slices differ only in labels — they must hash identically."""
        a, b = _mlp("layers[2:5]", "a_"), _mlp("layers[3:6]", "b_")
        assert canonical_hash(a) == canonical_hash(b)

    def test_structure_matters(self):
        a = _mlp("a")
        c = GraphBuilder("c")
        x = c.input("x", (4, 8))
        w = c.param("w", (8, 16))
        c.output(c.gelu(c.matmul(x, w)), "out")
        assert canonical_hash(a) != canonical_hash(c.build())

    def test_shapes_matter(self):
        b = GraphBuilder("d")
        x = b.input("x", (4, 16))
        w = b.param("w", (16, 16))
        b.output(b.relu(b.matmul(x, w)), "out")
        assert canonical_hash(_mlp("a")) != canonical_hash(b.build())

    def test_dict_is_name_free(self):
        d = canonical_graph_dict(_mlp("secret", "hidden_"))
        import json
        text = json.dumps(d)
        assert "secret" not in text and "hidden_" not in text

    def test_stable_across_calls(self):
        g = _mlp("a")
        assert canonical_hash(g) == canonical_hash(g)


class TestPlanCache:
    def test_hit_reproduces_the_dp_exactly(self, mesh):
        """A cached twin must get the same assignments, estimate, and —
        because the executor keys noise on the *caller's* graph — the same
        authoritative latency the DP would have produced for it."""
        twin_a, twin_b = _mlp("s[2:5]"), _mlp("s[3:6]")
        cache = Memo("test.plans", "(graph hash, mesh key)")
        pa = cached_optimize_stage(twin_a, mesh, cache)
        pb = cached_optimize_stage(twin_b, mesh, cache)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        direct = optimize_stage(twin_b, mesh)
        assert pb.estimated_time == direct.estimated_time
        assert [a.strategy for a in pb.assignments] == \
            [a.strategy for a in direct.assignments]
        assert pb.graph is twin_b  # rebound to the caller's graph
        assert execute_plan(pb).latency == execute_plan(direct).latency
        assert pa.estimated_time == pb.estimated_time

    def test_mesh_key_separates_entries(self, mesh):
        other = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(1, 2)
        cache = Memo("test.plans", "(graph hash, mesh key)")
        cached_optimize_stage(_mlp("a"), mesh, cache)
        cached_optimize_stage(_mlp("a"), other, cache)
        assert cache.stats.misses == 2 and len(cache) == 2

    def test_clear_resets(self, mesh):
        cache = Memo("test.plans", "(graph hash, mesh key)")
        cached_optimize_stage(_mlp("a"), mesh, cache)
        cache.clear()
        assert len(cache) == 0 and cache.stats.misses == 0

    def test_twin_slices_of_real_model_share_one_solve(
            self, tiny_gpt_profiler, mesh2):
        """Interior single-block GPT slices are structural twins: profiling
        [1:2) and [2:3) must cost one DP solve, not two."""
        import repro.parallel.plan_cache as pc
        cache = pc.global_plan_cache()
        before_len = len(cache)
        h0, m0 = cache.stats.hits, cache.stats.misses
        tg_a = tiny_gpt_profiler.training_graph(1, 2)
        tg_b = tiny_gpt_profiler.training_graph(2, 3)
        assert canonical_hash(tg_a) == canonical_hash(tg_b)
        logical = mesh2.logical(2, 1)
        pa = cached_optimize_stage(tg_a, logical, cache)
        pb = cached_optimize_stage(tg_b, logical, cache)
        assert cache.stats.misses - m0 <= 1
        assert cache.stats.hits - h0 >= 1
        assert pa.estimated_time == pb.estimated_time
        assert len(cache) - before_len <= 1
