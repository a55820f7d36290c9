"""Micro-benchmark of the per-op handler registry.

Times cold strategy enumeration over the benchmark model graphs through
the registry path versus the retained legacy monolith, and a full cold
intra-op solve with topology-aware pricing off and on.  The registry
must not regress enumeration throughput (it dispatches one dict lookup
per node), and the topo-on solve quantifies the cost of the wider
search space.  The differential test pins the two enumerators
bit-identical with the topology gate off, same as the tier-1 suite, so
a perf run doubles as a correctness sweep.
"""

import pytest

from repro.cluster import PLATFORM2
from repro.memo import clear_all
from repro.models import benchmark_config, build_model
from repro.parallel import intra_op, legacy_node_strategies, node_strategies

FAMILIES = ("gpt", "moe", "bert", "vit")


@pytest.fixture(scope="module")
def graphs():
    return {f: build_model(benchmark_config(f, n_layers=2)).full_graph()
            for f in FAMILIES}


@pytest.fixture(scope="module")
def mesh():
    return PLATFORM2.mesh(3).logical(2, 2)


def _enumerate(graphs, mesh, fn):
    total = 0
    for g in graphs.values():
        for node in g.nodes:
            ins = [g.nodes[i].out for i in node.inputs]
            total += len(fn(node, ins, mesh))
    return total


def test_registry_enumeration(benchmark, graphs, mesh):
    n = benchmark(_enumerate, graphs, mesh, node_strategies)
    assert n > 0


def test_legacy_enumeration(benchmark, graphs, mesh):
    n = benchmark(_enumerate, graphs, mesh, legacy_node_strategies)
    assert n > 0


def test_enumeration_differential(graphs, mesh):
    """Registry and legacy paths agree strategy-for-strategy (topo off)."""
    def key(s):
        return (s.name, s.out, s.ins, s.factor, s.comm_time)
    for fam, g in graphs.items():
        for node in g.nodes:
            ins = [g.nodes[i].out for i in node.inputs]
            assert [key(s) for s in node_strategies(node, ins, mesh)] == \
                [key(s) for s in legacy_node_strategies(node, ins, mesh)], \
                (fam, node.op)


def test_solve_topo_off(benchmark, graphs, monkeypatch):
    monkeypatch.delenv("REPRO_TOPO", raising=False)
    lm = PLATFORM2.mesh(3).logical(2, 2)

    def solve():
        clear_all()
        return intra_op.optimize_stage(graphs["moe"], lm)

    plan = benchmark(solve)
    assert plan.estimated_time > 0


def test_solve_topo_on(benchmark, graphs, monkeypatch):
    monkeypatch.setenv("REPRO_TOPO", "on")
    lm = PLATFORM2.mesh(3).logical(2, 2)

    def solve():
        clear_all()
        return intra_op.optimize_stage(graphs["moe"], lm)

    plan = benchmark(solve)
    assert plan.estimated_time > 0
