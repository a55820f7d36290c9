"""JSON (de)serialization and canonical hashing of stage graphs.

Used by the dataset cache so profiled stage corpora can be written to disk
once and reused across predictor-training runs, and by the intra-op plan
cache, which keys memoized ``optimize_stage`` results on the *structural*
identity of a graph (:func:`canonical_hash`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from .dtypes import dtype
from .graph import Graph, TensorSpec


def graph_to_dict(graph: Graph) -> dict[str, Any]:
    return {
        "name": graph.name,
        "nodes": [
            {
                "op": n.op,
                "inputs": list(n.inputs),
                "shape": list(n.out.shape),
                "dtype": n.out.dtype.name,
                "node_type": n.node_type,
                "params": _encode_params(n.params),
                "label": n.name,
            }
            for n in graph.nodes
        ],
    }


def graph_from_dict(data: dict[str, Any]) -> Graph:
    g = Graph(data.get("name", "graph"))
    for nd in data["nodes"]:
        g.add_node(
            nd["op"],
            nd["inputs"],
            TensorSpec(tuple(nd["shape"]), dtype(nd["dtype"])),
            nd.get("node_type", "operator"),
            _decode_params(nd.get("params", {})),
            nd.get("label", ""),
        )
    g.validate()
    return g


def dumps(graph: Graph) -> str:
    return json.dumps(graph_to_dict(graph))


def loads(text: str) -> Graph:
    return graph_from_dict(json.loads(text))


def canonical_graph_dict(graph: Graph) -> dict[str, Any]:
    """Structure-only encoding: everything the cost models consume.

    Node and graph *names* are deliberately excluded — two slices of a
    model with identical ops, topology, shapes, dtypes, and operator
    params are interchangeable to the intra-op optimizer even when their
    layer labels differ, which is exactly what lets the plan cache share
    work across structurally identical stage slices.
    """
    return {
        "nodes": [
            {
                "op": n.op,
                "inputs": list(n.inputs),
                "shape": list(n.out.shape),
                "dtype": n.out.dtype.name,
                "node_type": n.node_type,
                "params": {k: _encode_params({"v": v})["v"]
                           for k, v in sorted(n.params.items())},
            }
            for n in graph.nodes
        ],
    }


def canonical_hash(graph: Graph) -> str:
    """Hex SHA-256 of the canonical (name-free) graph structure.

    The digest reads what :func:`canonical_graph_dict` encodes (the
    tests' oracle), without building it: one self-delimiting record per
    node, the ``repr`` of ``(op, inputs, shape, dtype name, node type,
    sorted params)``, with lists and tuples in params read alike.

    Memoized on the graph object: graphs are append-only, so the digest
    is invalidated only by ``Graph.add_node``.  ``getattr`` keeps this
    working for graph objects deserialized without the memo slot.
    """
    memo = getattr(graph, "_canonical_hash", None)
    if memo is not None:
        return memo
    h = hashlib.sha256()
    for n in graph.nodes:
        out = n.out
        h.update(repr((n.op, n.inputs, out.shape, out.dtype.name,
                       n.node_type,
                       _canonical(n.params) if n.params else ())).encode())
    digest = h.hexdigest()
    try:
        graph._canonical_hash = digest
    except AttributeError:  # slotted/frozen graph stand-ins in tests
        pass
    return digest


def _canonical(value: Any) -> Any:
    """``value`` with dicts key-sorted, lists read as tuples and float
    subclasses as floats, at every depth, as the JSON encoding reads it."""
    if isinstance(value, dict):
        return {k: _canonical(value[k]) for k in sorted(value)}
    if isinstance(value, (tuple, list)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, float):
        return float(value)
    return value


def _encode_params(params: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k, v in params.items():
        out[k] = list(v) if isinstance(v, tuple) else v
    return out


def _decode_params(params: dict[str, Any]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for k, v in params.items():
        out[k] = tuple(v) if isinstance(v, list) else v
    return out
