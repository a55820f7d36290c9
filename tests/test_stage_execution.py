"""Differential tests: the memoized profiling layer ≡ the per-node executor.

``StageProfiler.profile_stage`` traces each slice once (the training
graph expands the predictor graph), shares one noise-free execution
between structural twins (the ``runtime.executions`` tier) and reads
per-node cost keys, input specs, forward flags and edges from one table
per graph (``runtime.graph_costs``).  None of that may change a number:
against the original executor loop kept here as the oracle, run on a
separately traced training graph with un-memoized ``op_time`` and
``reshard_time``, every ``StageProfile`` field, the measured latency and
the profiling cost are equal (``==``, no tolerance) on every slice,
submesh, logical view and microbatch of the tiny GPT, MoE and BERT
models, with flat and with topology-aware (``REPRO_TOPO=on``) pricing,
on a cold pass and on a second pass whose executions are all memo hits.
"""

from __future__ import annotations

import pytest

from repro.cluster import PLATFORM2
from repro.cluster.mesh import enumerate_submeshes, logical_views
from repro.ir.autodiff import build_training_graph
from repro.ir.fusion import fuse_elementwise
from repro.ir.pruning import prune_graph
from repro.ir.serialize import canonical_hash, graph_from_dict, graph_to_dict
from repro.memo import clear_all
from repro.models import benchmark_config, build_model
from repro.models.model import Model
from repro.parallel.intra_op import optimize_stage
from repro.parallel.resharding import reshard_time
from repro.runtime.executor import TRAIN_STATE_BYTES_PER_PARAM, StageProfile
from repro.runtime.noise import measurement_factor
from repro.runtime.opcost import op_time
from repro.runtime.profiler import EXECUTIONS, StageProfiler, profiling_cost

FAMILIES = ("gpt", "moe", "bert")
MICROBATCHES = (None, 2)
SUBMESHES = enumerate_submeshes(PLATFORM2.mesh(3))


def oracle_execute(plan) -> StageProfile:
    """The executor's original loop: per node, un-memoized kernel and
    reshard times, forward flags read off the labels, and the terms
    reduced left to right."""
    graph, mesh = plan.graph, plan.mesh
    compute_terms, comm_terms, reshard_terms = [], [], []
    param_bytes = act_bytes = 0.0
    for node in graph.nodes:
        strat = plan.assignments[node.id].strategy
        if node.node_type == "operator":
            in_specs = [graph.nodes[i].out for i in node.inputs]
            compute_terms.append(
                op_time(node, in_specs, mesh.gpu, float(strat.factor)))
            comm_terms.append(strat.comm_time)
            is_forward = not (node.name.startswith("grad")
                              or node.name.startswith("adam")
                              or node.name == "loss")
            if is_forward:
                act_bytes += node.out.nbytes / max(1, strat.out.shard_factor(mesh))
        elif node.node_type == "literal" and node.params.get("trainable"):
            local = strat.out.local_bytes(node.out, mesh)
            param_bytes += (local / node.out.dtype.itemsize
                            * TRAIN_STATE_BYTES_PER_PARAM)
        for slot, pid in enumerate(node.inputs):
            pnode = graph.nodes[pid]
            if pnode.node_type in ("input", "literal") or slot >= len(strat.ins):
                continue
            reshard_terms.append(reshard_time(
                plan.assignments[pid].out_spec, strat.ins[slot], pnode.out,
                mesh))
    compute = sum(compute_terms, 0.0)
    comm = sum(comm_terms, 0.0)
    reshard = sum(reshard_terms, 0.0)
    total = compute + comm + reshard
    total *= measurement_factor(graph.name, mesh.key())
    return StageProfile(total, compute, comm, reshard,
                        param_bytes + 0.5 * act_bytes, len(graph))


def oracle_stage(model, start, end, microbatch, logical):
    """(profile, profiling cost) of a stage traced, lowered and expanded
    on its own, solved without the plan cache, executed by the oracle."""
    forward, _ = fuse_elementwise(
        prune_graph(model.stage_graph(start, end, microbatch)))
    tg = build_training_graph(forward,
                              loss_to_scalar=end == len(model.layers))
    profile = oracle_execute(optimize_stage(tg, logical))
    return profile, profiling_cost(len(tg), profile.latency)


def stages(model):
    for microbatch in MICROBATCHES:
        for start in range(len(model.layers)):
            for end in range(start + 1, len(model.layers) + 1):
                for mesh in SUBMESHES:
                    for logical in logical_views(mesh):
                        yield start, end, microbatch, mesh, logical


@pytest.fixture(params=[None, "on"], ids=["flat", "topo"])
def topo(request, monkeypatch):
    if request.param:
        monkeypatch.setenv("REPRO_TOPO", request.param)
    else:
        monkeypatch.delenv("REPRO_TOPO", raising=False)
    return request.param


@pytest.fixture
def traces(monkeypatch):
    """Counts ``Model.stage_graph`` calls per (start, end, microbatch)."""
    counts: dict[tuple, int] = {}
    original = Model.stage_graph

    def spy(self, start, end, microbatch=None):
        key = (start, end, microbatch)
        counts[key] = counts.get(key, 0) + 1
        return original(self, start, end, microbatch)

    monkeypatch.setattr(Model, "stage_graph", spy)
    return counts


class TestAgainstOracle:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_stage_matches_the_oracle(self, family, topo, traces):
        model = build_model(benchmark_config(family, n_layers=2))
        grid = list(stages(model))
        expected = {(s, e, mb, lv.key()): oracle_stage(model, s, e, mb, lv)
                    for s, e, mb, _, lv in grid}
        clear_all()
        for pass_no in (1, 2):
            traces.clear()
            before = EXECUTIONS.stats
            profiler = StageProfiler(model)
            for s, e, mb, mesh, lv in grid:
                assert lv.key().endswith("-topo") == bool(topo)
                got = profiler.profile_stage(s, e, mesh, lv.dp, lv.mp, mb)
                profile, cost = expected[(s, e, mb, lv.key())]
                where = (pass_no, s, e, mb, lv.key())
                assert got.profile == profile, where
                assert got.latency == profile.latency, where
                assert got.profiling_cost == cost, where
            after = EXECUTIONS.stats
            if pass_no == 2:  # every execution is a memo hit
                assert after.misses == before.misses
                assert after.hits - before.hits == len(grid)
            # one trace per slice and microbatch, shared by both graphs
            assert set(traces.values()) == {1}
            assert len(traces) == len({(s, e, mb) for s, e, mb, _, _ in grid})


class TestTwins:
    def test_twins_share_one_execution_with_their_own_noise(self, tiny_gpt,
                                                           mesh2):
        """GPT's two transformer blocks, slices [1, 2) and [2, 3), are
        structural twins: one execution serves both, and each keeps the
        noise of its own name."""
        profiler = StageProfiler(tiny_gpt)
        a, b = profiler.training_graph(1, 2), profiler.training_graph(2, 3)
        assert canonical_hash(a) == canonical_hash(b)
        assert a.name != b.name
        clear_all()
        first = profiler.profile_stage(1, 2, mesh2, 2, 1)
        assert (len(EXECUTIONS), EXECUTIONS.stats.hits) == (1, 0)
        twin = profiler.profile_stage(2, 3, mesh2, 2, 1)
        assert (len(EXECUTIONS), EXECUTIONS.stats.hits) == (1, 1)
        assert twin.latency != first.latency
        assert twin.profile.compute_time == first.profile.compute_time
        logical = mesh2.logical(2, 1)
        for stage, start in ((first, 1), (twin, 2)):
            profile, _ = oracle_stage(tiny_gpt, start, start + 1, None,
                                      logical)
            assert stage.profile == profile

    def test_labels_split_twins(self, tiny_gpt, mesh2):
        """The executor reads forward flags off labels, which the
        canonical hash leaves out: a twin with one forward operator
        relabelled as a gradient gets an execution of its own."""
        relabelled = graph_from_dict(graph_to_dict(
            StageProfiler(tiny_gpt).training_graph(2, 3)))
        next(n for n in relabelled.nodes
             if n.node_type == "operator").name = "grad_relabelled"
        profiler = StageProfiler(tiny_gpt)
        profiler.graphs.put(("train", 2, 3, None), relabelled)
        assert canonical_hash(relabelled) == \
            canonical_hash(profiler.training_graph(1, 2))
        clear_all()
        first = profiler.profile_stage(1, 2, mesh2, 2, 1)
        twin = profiler.profile_stage(2, 3, mesh2, 2, 1)
        assert len(EXECUTIONS) == 2
        assert twin.profile.memory_bytes < first.profile.memory_bytes
        assert twin.profile == oracle_execute(
            optimize_stage(relabelled, mesh2.logical(2, 1)))


class TestOneTrace:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_training_graph_extends_the_predictor_graph(self, family,
                                                        traces):
        model = build_model(benchmark_config(family, n_layers=2))
        profiler = StageProfiler(model)
        for end in (2, len(model.layers)):
            pg = profiler.predictor_graph(1, end)
            tg = profiler.training_graph(1, end)
            assert tg.nodes[:len(pg)] == pg.nodes
            assert len(tg) > len(pg)
        assert traces == {(1, 2, None): 1, (1, len(model.layers), None): 1}
