"""Stage profiling makes no cyclic garbage, and a finished search is
freed by refcounting.

``StageProfiler`` runs its miss paths (graph builds, plan solves,
executions) with the cyclic collector paused (``repro.memo.gc_paused``).
That is free only while those paths create no reference cycles: a cycle
made there would live until the next collector pass after the pause.
These tests pin the precondition.  With the collector disabled
throughout, every slice × submesh × logical view of the tiny GPT, MoE
and BERT models is profiled, flat and topology-aware, on cold memo
tiers; a collection afterwards (``gc.DEBUG_SAVEALL`` keeps what it
finds) must find no ``repro`` object.  And a finished ``search_full``
or ``search_predtop`` must die on ``del``, with its profiler and graphs,
serially and after a forked sweep.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.cluster import PLATFORM2
from repro.cluster.mesh import enumerate_submeshes, logical_views
from repro.core.search import PlanSearcher
from repro.memo import clear_all
from repro.models import benchmark_config, build_model, cluster_layers
from repro.predictors.trainer import TrainConfig
from repro.predictors.trust import TrustConfig
from repro.runtime.profiler import StageProfiler

SUBMESHES = enumerate_submeshes(PLATFORM2.mesh(3))


def _is_repro(obj) -> bool:
    if isinstance(obj, types.FunctionType):
        return (obj.__module__ or "").startswith("repro")
    return (type(obj).__module__ or "").startswith("repro")


@pytest.fixture
def collector_off():
    """The collector off from a clean heap; on exit, what one collection
    finds (kept by ``DEBUG_SAVEALL``) is what the test made cyclic."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def cyclic_repro_garbage() -> list:
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    gc.set_debug(0)
    found = [o for o in gc.garbage if _is_repro(o)]
    gc.garbage.clear()
    return found


@pytest.mark.parametrize("topo", [None, "on"], ids=["flat", "topo"])
def test_profiling_makes_no_cyclic_garbage(topo, monkeypatch, collector_off):
    if topo:
        monkeypatch.setenv("REPRO_TOPO", topo)
    else:
        monkeypatch.delenv("REPRO_TOPO", raising=False)
    clear_all()  # cold tiers: every solve and execution runs
    for family in ("gpt", "moe", "bert"):
        model = build_model(benchmark_config(family, n_layers=2))
        profiler = StageProfiler(model)
        n = len(model.layers)
        for start in range(n):
            for end in range(start + 1, n + 1):
                for mesh in SUBMESHES:
                    for lv in logical_views(mesh):
                        profiler.profile_stage(start, end, mesh, lv.dp, lv.mp)
        del profiler, model
    assert cyclic_repro_garbage() == []


@pytest.mark.parametrize("approach, jobs", [
    ("full", 1), ("predtop-dag_transformer", 1),
    # the pool keeps its last task (here the fit sweep's): it must not
    # pin the searcher either
    ("predtop-dag_transformer", 2)])
def test_finished_search_dies_on_del(approach, jobs, collector_off):
    model = build_model(benchmark_config("gpt", n_layers=2))
    searcher = PlanSearcher(
        model, cluster_layers(model, 3), PLATFORM2.mesh(2),
        sample_fraction=0.5, jobs=jobs,
        train_config=TrainConfig(epochs=2, patience=2, batch_size=8),
        trust=TrustConfig(enabled=approach != "full", ensemble_size=3))
    result = searcher.run(approach)
    assert result.plan.feasible
    graphs = searcher.profiler.graphs.entries
    # a training graph where this process profiled; where the workers
    # did, a predictor graph the fit sweep read
    key = next((k for k in graphs if k[0] == "train"), next(iter(graphs)))
    assert key[0] == ("train" if jobs == 1 else "pred")
    refs = [weakref.ref(searcher), weakref.ref(searcher.profiler),
            weakref.ref(graphs[key])]
    del graphs
    del searcher, result
    assert [r() for r in refs] == [None, None, None]
