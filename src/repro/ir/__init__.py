"""Tensor-level operator-graph IR (the jaxpr-equivalent substrate).

Public surface:

* :class:`Graph`, :class:`Node`, :class:`TensorSpec` — the DAG itself;
* :class:`GraphBuilder`, :class:`Var` — tracing-style construction;
* :func:`build_training_graph` — forward → forward+backward+update;
* :func:`prune_graph` / :func:`fuse_elementwise` — §IV-B4 preprocessing;
* :func:`reachability_mask` / :func:`node_depths` — DAGRA / DAGPE inputs;
* :func:`graph_features` — Table-I node features.
"""

from .autodiff import build_training_graph, count_parameters
from .builder import GraphBuilder, Var, broadcast_shapes
from .dtypes import ALL_DTYPES, DType, dtype, dtype_index, promote
from .features import FEATURE_DIM, MAX_RANK, graph_features, node_features
from .fusion import FusionStats, fuse_elementwise
from .graph import NODE_TYPES, Graph, Node, TensorSpec
from .ops import OP_TYPES, OpDef, node_bytes, node_flops, op_def, op_index
from .pruning import prunable_nodes, prune_graph, pruning_ratio
from .reachability import (
    ancestor_matrix,
    node_depths,
    reachability_mask,
    undirected_adjacency,
)
from .serialize import graph_from_dict, graph_to_dict
from .structure import context_signatures

__all__ = [
    "ALL_DTYPES", "DType", "dtype", "dtype_index", "promote",
    "Graph", "Node", "TensorSpec", "NODE_TYPES",
    "GraphBuilder", "Var", "broadcast_shapes",
    "build_training_graph", "count_parameters",
    "prunable_nodes", "prune_graph", "pruning_ratio",
    "FusionStats", "fuse_elementwise",
    "ancestor_matrix", "reachability_mask", "node_depths",
    "undirected_adjacency",
    "FEATURE_DIM", "MAX_RANK", "graph_features", "node_features",
    "OP_TYPES", "OpDef", "op_def", "op_index", "node_flops", "node_bytes",
    "graph_from_dict", "graph_to_dict",
    "context_signatures",
]
