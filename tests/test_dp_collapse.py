"""Differential tests: CFP-collapsed intra-op DP ≡ the reference DP.

``optimize_stage`` reuses the forward vector of every context signature
it has already solved on a mesh (the collapse memo).  The reuse must be
**lossless**: against :func:`optimize_stage_reference`, identical
committed strategies, identical float costs (no tolerance), identical
executor profiles — on every family's training graphs, every mesh, and
regardless of what was solved before (memo entries created by *other*
graphs must reproduce exactly what a fresh solve would compute).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import NVLINK, RTX_A5500, TEN_GBE, DeviceMesh
from repro.cluster.mesh import logical_views
from repro.ir.autodiff import build_training_graph
from repro.memo import clear_all
from repro.models import benchmark_config, build_model
from repro.parallel import intra_op
from repro.parallel.intra_op import collapse_stats, optimize_stage
from repro.runtime.profiler import StageProfiler

from .test_intra_op_properties import MESHES, random_graph
from .test_intraop_vectorized import assert_identical

FAMILIES = ("gpt", "moe", "bert", "vit")


class TestDifferential:
    @given(seed=st.integers(0, 10**9),
           mesh_idx=st.integers(0, len(MESHES) - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs(self, seed, mesh_idx):
        rng = np.random.default_rng(seed)
        graph = random_graph(rng, f"collapse{seed}")
        for logical in logical_views(MESHES[mesh_idx]):
            assert_identical(graph, logical)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_random_training_graphs(self, seed):
        rng = np.random.default_rng(seed)
        graph = build_training_graph(random_graph(rng, f"coltrain{seed}"))
        mesh = MESHES[int(rng.integers(0, len(MESHES)))]
        for logical in logical_views(mesh):
            assert_identical(graph, logical)

    @pytest.mark.parametrize("family, topo", [
        pytest.param(family, topo, id=family + ("-topo" if topo else ""))
        for topo in (None, "on") for family in FAMILIES])
    def test_benchmark_families(self, family, topo, monkeypatch):
        """Every family's real training graphs, across slice twins and
        both mesh shapes — the population the search actually solves —
        with flat and with topology-aware (``REPRO_TOPO=on``) pricing."""
        if topo:
            monkeypatch.setenv("REPRO_TOPO", topo)
        else:
            monkeypatch.delenv("REPRO_TOPO", raising=False)
        profiler = StageProfiler(build_model(benchmark_config(family, 2)))
        meshes = (DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE),
                  DeviceMesh(2, 2, RTX_A5500, NVLINK, TEN_GBE))
        for start, end in ((0, 1), (0, 2), (1, 2)):
            tg = profiler.training_graph(start, end)
            for mesh in meshes:
                for logical in logical_views(mesh):
                    assert logical.key().endswith("-topo") == bool(topo)
                    assert_identical(tg, logical)

    def test_cross_graph_memo_entries_are_lossless(self, tiny_gpt_profiler):
        """Solving slice [0, 2) first seeds the memo with every prefix
        signature; the subsequent [0, 1) solve — nearly all memo hits —
        must equal the reference."""
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(1, 2)
        big = tiny_gpt_profiler.training_graph(0, 2)
        small = tiny_gpt_profiler.training_graph(0, 1)
        clear_all()
        optimize_stage(big, mesh)  # seed the memo
        before = collapse_stats().hits
        assert_identical(small, mesh)
        assert collapse_stats().hits > before  # prefixes shared

    def test_prepared_but_unsolved_signatures_complete_lazily(
            self, tiny_gpt_profiler):
        """Signatures whose table is registered but whose forward vector
        is not memoized — what a concurrent solve that has looked up its
        tables but not finished its sweep leaves behind — must be
        contracted on the spot: solve [0, 2), drop only the vectors, and
        the [0, 1) solve finds registered tables with no vector."""
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(1, 2)
        big = tiny_gpt_profiler.training_graph(0, 2)
        small = tiny_gpt_profiler.training_graph(0, 1)
        clear_all()
        optimize_stage(big, mesh)
        tables = intra_op._mesh_tables(mesh)
        tables.vectors.clear()
        pending = sum(sig in tables.sig_tables
                      for sig in intra_op._graph_sigs(small))
        assert pending > 0
        assert_identical(small, mesh)


class TestGateAndStats:
    def test_repeat_solve_is_all_hits(self, tiny_gpt_profiler):
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(2, 1)
        tg = tiny_gpt_profiler.training_graph(0, 2)
        clear_all()
        optimize_stage(tg, mesh)
        misses = collapse_stats().misses
        assert misses > 0
        optimize_stage(tg, mesh)
        assert collapse_stats().misses == misses  # no new work
        assert collapse_stats().hits >= len(tg)

    def test_twin_branches_hit_within_one_graph(self, tiny_gpt_profiler):
        """Q/K/V twins make the very first solve of a transformer block
        produce memo hits — the intra-graph CSE the detector promises."""
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(1, 2)
        tg = tiny_gpt_profiler.training_graph(1, 2)  # one transformer block
        clear_all()
        optimize_stage(tg, mesh)
        assert collapse_stats().hits > 0

    def test_memoized_vectors_are_immutable(self, tiny_gpt_profiler):
        """Memo entries are shared across solves — they must be tuples."""
        mesh = DeviceMesh(1, 2, RTX_A5500, NVLINK, TEN_GBE).logical(1, 2)
        tg = tiny_gpt_profiler.training_graph(0, 1)
        clear_all()
        optimize_stage(tg, mesh)
        memo = intra_op._mesh_tables(mesh).vectors
        assert memo
        for costs, grouped in memo.values():
            assert type(costs) is tuple and type(grouped) is tuple
            assert all(type(c) is float for c in costs + grouped)
