"""Differential tests: scalar intra-op DP ≡ pure-Python reference.

The fast :func:`optimize_stage` — one forward loop that builds tables and
contracts edges on tuples of floats, one push-based reverse loop — must
be **bit-identical** to :func:`optimize_stage_reference`: same DP
estimate, same committed strategy (output/input shardings, factor, comm
time) at every node, and the executor must produce equal
:class:`StageProfile`s from both plans.  Equality, not closeness: the
fast path replays every float operation of the reference in the same
order.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.cluster.mesh import logical_views
from repro.ir import GraphBuilder
from repro.ir.autodiff import build_training_graph
from repro.memo import clear_all
from repro.parallel.intra_op import optimize_stage, optimize_stage_reference
from repro.runtime.executor import execute_plan

from .test_intra_op_properties import MESHES, random_graph


def strategy_key(assignment):
    s = assignment.strategy
    return (s.out.assignments, tuple(i.assignments for i in s.ins),
            s.factor, s.comm_time)


def assert_identical(graph, mesh, vec=None, ref=None):
    """``vec`` ≡ ``ref`` (default: a fresh solve of each)."""
    vec = optimize_stage(graph, mesh) if vec is None else vec
    ref = optimize_stage_reference(graph, mesh) if ref is None else ref
    assert vec.estimated_time == ref.estimated_time  # bitwise, no tolerance
    for nid in range(len(graph)):
        assert strategy_key(vec.assignments[nid]) == \
            strategy_key(ref.assignments[nid]), f"node {nid} diverged"
    assert execute_plan(vec) == execute_plan(ref)
    return vec


class TestDifferential:
    @given(seed=st.integers(0, 10**9),
           mesh_idx=st.integers(0, len(MESHES) - 1))
    @settings(max_examples=25, deadline=None)
    def test_forward_graphs(self, seed, mesh_idx):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, f"vecdiff{seed}")
        for logical in logical_views(MESHES[mesh_idx]):
            assert_identical(graph, logical)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_training_graphs(self, seed):
        rng = np.random.default_rng(seed)
        graph = build_training_graph(random_graph(rng, f"vectrain{seed}"))
        mesh = MESHES[int(rng.integers(0, len(MESHES)))]
        for logical in logical_views(mesh):
            assert_identical(graph, logical)

    def test_fallback_path(self):
        """Dims coprime with every axis force the replicated fallback in
        both implementations — including its no-edge-charge cost rule."""
        b = GraphBuilder("oddvec")
        x = b.input("x", (3, 5))
        w = b.param("w", (5, 7))
        b.output(b.relu(b.matmul(x, w)), "out")
        graph = b.build()
        mesh = DeviceMesh(1, 4, RTX_A5500, NVLINK, TEN_GBE).logical(1, 4)
        assert_identical(graph, mesh)

    def test_gpt_stage_all_views(self, tiny_gpt_profiler):
        tg = tiny_gpt_profiler.training_graph(0, 2)
        for mesh in (DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE),
                     DeviceMesh(2, 2, RTX_A5500, NVLINK, TEN_GBE)):
            for logical in logical_views(mesh):
                assert_identical(tg, logical)

    def test_repeat_and_cleared_solves_agree(self, tiny_gpt_profiler):
        """Repeat solves (collapse-memo hits) return identical results,
        and clearing the memos does not change them."""
        tg = tiny_gpt_profiler.training_graph(1, 2)
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)
        first = optimize_stage(tg, mesh)
        second = optimize_stage(tg, mesh)
        clear_all()
        third = optimize_stage(tg, mesh)
        for other in (second, third):
            assert other.estimated_time == first.estimated_time
            for a, b in zip(first.assignments, other.assignments):
                assert strategy_key(a) == strategy_key(b)
