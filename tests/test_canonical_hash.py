"""``canonical_hash`` ≡ the JSON encoding it replaced.

``canonical_hash`` digests one ``repr`` record per node instead of
``json.dumps`` of :func:`canonical_graph_dict`.  The digests differ, so
what must hold is that both sort graphs into the same classes: on a
corpus of every slice's predictor and training graph of the tiny GPT,
MoE and BERT models (microbatch None and 2, ``aggressive_fusion`` off
and on, plus a JSON round trip of each), two graphs share a hash if and
only if they share the oracle's.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.ir import GraphBuilder
from repro.ir.dtypes import dtype
from repro.ir.graph import Graph, TensorSpec
from repro.ir.serialize import (canonical_graph_dict, canonical_hash,
                                graph_from_dict, graph_to_dict)
from repro.models import benchmark_config, build_model
from repro.runtime.profiler import StageProfiler


def oracle_hash(graph: Graph) -> str:
    """The JSON digest ``canonical_hash`` computed before."""
    text = json.dumps(canonical_graph_dict(graph), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def corpus() -> list[Graph]:
    graphs = []
    for family in ("gpt", "moe", "bert"):
        model = build_model(benchmark_config(family, n_layers=2))
        n = len(model.layers)
        for fusion in (False, True):
            profiler = StageProfiler(model, aggressive_fusion=fusion)
            for microbatch in (None, 2):
                for start in range(n):
                    for end in range(start + 1, n + 1):
                        for g in (profiler.predictor_graph(start, end,
                                                           microbatch),
                                  profiler.training_graph(start, end,
                                                          microbatch)):
                            graphs.append(g)
                            graphs.append(graph_from_dict(graph_to_dict(g)))
    return graphs


def test_hash_classes_equal_the_json_oracle():
    graphs = corpus()
    new = [canonical_hash(g) for g in graphs]
    old = [oracle_hash(g) for g in graphs]
    by_old: dict[str, set[str]] = {}
    by_new: dict[str, set[str]] = {}
    for o, n in zip(old, new):
        by_old.setdefault(o, set()).add(n)
        by_new.setdefault(n, set()).add(o)
    assert all(len(v) == 1 for v in by_old.values())
    assert all(len(v) == 1 for v in by_new.values())
    # the corpus has real twins besides the round trips
    assert len(by_old) < len(graphs) // 2


def _one_node(params: dict, label: str = "",
              node_type: str = "operator") -> Graph:
    g = Graph("g")
    g.add_node("input", (), TensorSpec((4, 8), dtype("float32")), "input",
               name="x")
    g.add_node("reduce_sum", (0,), TensorSpec((8,), dtype("float32")),
               node_type, params, label)
    return g


@pytest.mark.parametrize("a, b, same", [
    ({"axes": [0]}, {"axes": (0,)}, True),
    ({"axes": [[0, 1], 2]}, {"axes": ((0, 1), 2)}, True),
    ({"k": 1, "axes": (0,)}, {"axes": (0,), "k": 1}, True),
    ({"k": 1}, {"k": 1.0}, False),
    ({"k": 1}, {"k": True}, False),
    ({"k": 1}, {"k": "1"}, False),
    ({"axes": (0,)}, {"axes": (0, 0)}, False),
    ({}, {"axes": ()}, False),
])
def test_params_hash_as_json_reads_them(a, b, same):
    ga, gb = _one_node(a), _one_node(b)
    assert (oracle_hash(ga) == oracle_hash(gb)) is same
    assert (canonical_hash(ga) == canonical_hash(gb)) is same


def test_node_type_is_hashed():
    a, b = _one_node({}), _one_node({}, node_type="output")
    assert oracle_hash(a) != oracle_hash(b)
    assert canonical_hash(a) != canonical_hash(b)


def test_labels_and_graph_names_are_excluded():
    def mlp(name: str, prefix: str) -> Graph:
        b = GraphBuilder(name)
        x = b.input(prefix + "x", (4, 8))
        w = b.param(prefix + "w", (8, 16))
        b.output(b.relu(b.matmul(x, w, name=prefix + "mm")), prefix + "out")
        return b.build()

    assert canonical_hash(mlp("a", "")) == canonical_hash(mlp("b", "l3_"))
    assert canonical_hash(_one_node({}, "x")) == \
        canonical_hash(_one_node({}, "grad_x"))
