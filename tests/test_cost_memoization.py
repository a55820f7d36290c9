"""Memoized cost kernels agree exactly with their direct counterparts."""

from __future__ import annotations

import numpy as np

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.ir import GraphBuilder
from repro.memo import clear_all
from repro.parallel.resharding import ReshardCache, reshard_cache, reshard_time
from repro.parallel.sharding import ShardingSpec, candidate_specs, spec_id
from repro.runtime.opcost import node_cost_key, op_time, op_time_cached


def mesh22():
    return DeviceMesh(2, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 2)


def small_graph():
    b = GraphBuilder("memo")
    x = b.input("x", (8, 16))
    w = b.param("w", (16, 32))
    h = b.relu(b.matmul(x, w))
    b.output(h, "out")
    return b.build()


class TestOpTimeCache:
    def test_matches_direct_all_factors(self):
        g = small_graph()
        gpu = RTX_A5500
        clear_all()
        for node in g.nodes:
            ins = [g.nodes[i].out for i in node.inputs]
            for factor in (1.0, 2.0, 4.0):
                assert op_time_cached(node, ins, gpu, factor) == \
                    op_time(node, ins, gpu, factor)
                # second call is the cached value — still identical
                assert op_time_cached(node, ins, gpu, factor) == \
                    op_time(node, ins, gpu, factor)

    def test_structural_twins_share_entries(self):
        """Two nodes with equal structure produce one cache key."""
        g1, g2 = small_graph(), small_graph()
        m1 = next(n for n in g1.nodes if n.op == "dot_general")
        m2 = next(n for n in g2.nodes if n.op == "dot_general")
        ins1 = [g1.nodes[i].out for i in m1.inputs]
        ins2 = [g2.nodes[i].out for i in m2.inputs]
        assert node_cost_key(m1, ins1) == node_cost_key(m2, ins2)

    def test_non_operator_is_free(self):
        g = small_graph()
        leaf = g.nodes[0]
        assert leaf.node_type == "input"
        assert op_time_cached(leaf, [], RTX_A5500) == 0.0


class TestReshardCache:
    def test_time_matches_reshard_time(self):
        mesh = mesh22()
        g = small_graph()
        t = g.nodes[-2].out  # the relu output tensor
        cache = reshard_cache(mesh)
        specs = candidate_specs(t, mesh)
        for src in specs:
            for dst in specs:
                expect = reshard_time(src, dst, t, mesh)
                got = cache.time(spec_id(src), spec_id(dst), t.nbytes)
                assert got == expect
                assert cache.time(spec_id(src), spec_id(dst), t.nbytes) == \
                    expect  # cached hit identical

    def test_column_and_matrix_agree_with_cells(self):
        mesh = mesh22()
        g = small_graph()
        t = g.nodes[-2].out
        cache = reshard_cache(mesh)
        ids = tuple(spec_id(s) for s in candidate_specs(t, mesh))
        mat = cache.matrix(ids, ids, t.nbytes)
        assert mat.shape == (len(ids), len(ids))
        assert not mat.flags.writeable  # shared tables are read-only
        for i, src in enumerate(ids):
            col = cache.column(ids, src, t.nbytes)
            assert np.array_equal(mat[:, i], col)
            for j, dst in enumerate(ids):
                assert mat[i, j] == cache.time(src, dst, t.nbytes)

    def test_per_mesh_instances(self):
        clear_all()
        m1 = mesh22()
        m2 = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)
        assert reshard_cache(m1) is reshard_cache(m1)
        assert reshard_cache(m1) is not reshard_cache(m2)
        assert isinstance(reshard_cache(m1), ReshardCache)

    def test_identity_and_replicated_are_free(self):
        mesh = mesh22()
        g = small_graph()
        t = g.nodes[-2].out
        cache = reshard_cache(mesh)
        rep = spec_id(ShardingSpec.replicated())
        sh = spec_id(ShardingSpec.shard(0, "dp"))
        assert cache.time(sh, sh, t.nbytes) == 0.0
        assert cache.time(rep, sh, t.nbytes) == 0.0  # replicated src slices
        assert cache.time(sh, rep, t.nbytes) > 0.0  # all-gather back
