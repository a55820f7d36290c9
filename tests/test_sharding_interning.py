"""Sharding-spec interning: identity, stable ids, thread safety, caches."""

from __future__ import annotations

import threading

import pytest

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.memo import snapshot
from repro.parallel.sharding import (REPLICATED, ShardingSpec, candidate_specs,
                                     intern_assignments, intern_spec,
                                     normalized_spec, spec_by_id, spec_id)


def mesh22():
    return DeviceMesh(2, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 2)


class TestInterning:
    def test_factories_return_canonical_instance(self):
        assert ShardingSpec.replicated() is ShardingSpec.replicated()
        assert ShardingSpec.replicated() is REPLICATED
        assert ShardingSpec.shard(0, "dp") is ShardingSpec.shard(0, "dp")
        assert ShardingSpec.shard2(0, "dp", 1, "mp") is \
            ShardingSpec.shard2(0, "dp", 1, "mp")

    def test_intern_spec_of_loose_instance(self):
        loose = ShardingSpec(((0, "dp"),))
        canonical = intern_spec(loose)
        assert canonical is ShardingSpec.shard(0, "dp")
        assert canonical == loose

    def test_spec_id_roundtrip_and_stability(self):
        a = ShardingSpec.shard(1, "mp")
        sid = spec_id(a)
        assert spec_by_id(sid) is a
        assert spec_id(a) == sid  # stable across calls
        # a structurally equal loose instance resolves to the same id
        assert spec_id(ShardingSpec(((1, "mp"),))) == sid

    def test_invalid_assignments_raise_and_are_not_cached(self):
        bad = ((0, "dp"), (0, "mp"))  # dim mapped twice
        before = snapshot()["parallel.specs"]["entries"]
        with pytest.raises(ValueError):
            intern_assignments(bad)
        with pytest.raises(ValueError):  # still raises on retry
            intern_assignments(bad)
        assert snapshot()["parallel.specs"]["entries"] == before

    def test_thread_safe_reuse(self):
        """Concurrent interning of one tuple yields a single instance."""
        assignments = ((1, "dp"),)
        results: list[ShardingSpec] = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            for _ in range(200):
                results.append(intern_assignments(assignments))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(r) for r in results}) == 1
        assert results[0] is intern_assignments(assignments)


class TestNormalizedCache:
    def test_normalized_spec_is_interned_and_cached(self):
        mesh = mesh22()
        spec = ShardingSpec.shard(0, "dp")
        n1 = normalized_spec(spec, mesh)
        n2 = normalized_spec(spec, mesh)
        assert n1 is n2
        assert n1 == spec.normalized(mesh)

    def test_degenerate_axis_sharing(self):
        """Meshes with the same >1-axis pattern share normalizations."""
        m_a = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)
        m_b = DeviceMesh(2, 2, RTX_A5500, NVLINK, TEN_GBE).logical(4, 1)
        spec = ShardingSpec.shard2(0, "dp", 1, "mp")
        assert normalized_spec(spec, m_a) is normalized_spec(spec, m_b)
        assert normalized_spec(spec, m_a).assignments == ((0, "dp"),)

    def test_candidate_specs_cached_and_interned(self):
        from repro.ir.graph import TensorSpec

        mesh = mesh22()
        t = TensorSpec((8, 16), "float32")
        c1 = candidate_specs(t, mesh)
        c2 = candidate_specs(t, mesh)
        assert c1 == c2
        assert c1 is not c2  # defensive copy per call
        for a, b in zip(c1, c2):
            assert a is b  # ... of the same interned instances
