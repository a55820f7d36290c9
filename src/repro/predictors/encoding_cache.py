"""Shared graph-encoding cache for the predictor hot path.

Every predictor fit re-derives the same per-graph encodings — Table-I
features, the DAGRA reachability closure, DAGPE depths, and the
GCN-normalized adjacency (dense + CSR).  A search grid touches each
distinct stage structure many times: once per ensemble member, per train
fraction, per grid cell.  Like :mod:`repro.parallel.plan_cache` does for
intra-op DP results, this module memoizes the encodings process-wide,
keyed on :func:`repro.ir.serialize.canonical_hash` — a name-free
structural digest, which is sound because none of the encoding arrays
depend on node *names*, only on ops/topology/shapes/params.

Cached arrays are frozen (``writeable=False``) and shared by reference
between all samples whose graphs are structurally identical; consumers
(batch construction, normalizers) only ever read them.  A miss runs
:func:`compute_encoding`, the same calls a fresh encoding makes, so the
cache is bit-transparent; tests pin cached consumers against fresh
encodings.  The memo is LRU-bounded at :data:`repro.memo.MEMO_BOUND`,
because a serving daemon encodes every distinct graph its clients send.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..ir.features import graph_features
from ..ir.graph import Graph
from ..ir.reachability import node_depths, reachability_mask, undirected_adjacency
from ..ir.serialize import canonical_hash
from ..memo import MEMO_BOUND, Memo, tier


@dataclass(frozen=True)
class GraphEncoding:
    """Immutable per-structure encoding bundle.

    ``raw_features`` keeps the float64 output of :func:`graph_features`
    so trust-layer consumers (OOD statistics) see bit-identical inputs;
    ``features`` is the float32 cast the predictors train on.
    """

    raw_features: np.ndarray   # (N, F) float64, as graph_features returns
    features: np.ndarray       # (N, F) float32
    reach: np.ndarray          # (N, N) bool DAGRA closure
    depths: np.ndarray         # (N,) int64 DAGPE depths
    adj: np.ndarray            # (N, N) float32 GCN-normalized
    adj_csr: sp.csr_matrix     # CSR view of ``adj``


def compute_encoding(graph: Graph) -> GraphEncoding:
    """Fresh encoding bundle (validates the graph first, like encode())."""
    graph.validate()
    raw = graph_features(graph)
    feats = raw.astype(np.float32)
    reach = reachability_mask(graph)
    depths = node_depths(graph)
    adj = undirected_adjacency(graph).astype(np.float32)
    adj_csr = sp.csr_matrix(adj)
    for a in (raw, feats, reach, depths, adj):
        a.setflags(write=False)
    adj_csr.data.setflags(write=False)
    return GraphEncoding(raw, feats, reach, depths, adj, adj_csr)


ENCODINGS = tier("predictors.encodings", "canonical graph hash",
                 bound=MEMO_BOUND)


def global_encoding_cache() -> Memo:
    return ENCODINGS


def cached_encoding(graph: Graph, memo: Memo | None = None) -> GraphEncoding:
    """Encoding through ``memo`` (the global encoding memo by default)."""
    memo = ENCODINGS if memo is None else memo
    return memo.get(canonical_hash(graph), lambda: compute_encoding(graph))
