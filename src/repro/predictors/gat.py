"""GAT baseline predictor (§VII-D): 6 GAT layers, hidden dim 32.

Implemented in edge-list (sparse) form, as real GAT implementations are:
attention logits exist only for actual edges, softmax is normalized per
destination node with a segment-sum, and messages are scatter-added.  DAG
stage graphs average ~2 edges per node, so this is orders of magnitude
cheaper than materializing dense ``(B, N, N)`` logits.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Linear, Module, global_add_pool, xavier
from ..nn.tensor import Tensor, segment_sum, take_rows
from .dataset import Batch


class SparseGATLayer(Module):
    """One multi-head GAT layer over an explicit edge list."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 n_heads: int = 4) -> None:
        if d_out % n_heads:
            raise ValueError("n_heads must divide d_out")
        self.n_heads = n_heads
        self.head_dim = d_out // n_heads
        self.lin = Linear(d_in, d_out, rng, bias=False)
        self.a_src = Tensor(xavier(rng, self.head_dim, 1,
                                   (n_heads, self.head_dim)), requires_grad=True)
        self.a_dst = Tensor(xavier(rng, self.head_dim, 1,
                                   (n_heads, self.head_dim)), requires_grad=True)

    def forward(self, x: Tensor, rows: np.ndarray, cols: np.ndarray,
                n_nodes: int) -> Tensor:
        """``x`` is (n_nodes, d_in); edge e goes cols[e] -> rows[e]."""
        h, hd = self.n_heads, self.head_dim
        z = self.lin(x).reshape(n_nodes, h, hd)
        s_src = (z * self.a_src).sum(axis=-1)          # (n, h)
        s_dst = (z * self.a_dst).sum(axis=-1)
        e = (take_rows(s_dst, rows) + take_rows(s_src, cols)).leaky_relu()
        # per-destination softmax with a constant max-shift for stability
        shift = np.zeros((n_nodes,) + e.shape[1:], np.float32)
        np.maximum.at(shift, rows, e.data)
        ex = (e - Tensor(shift[rows])).exp()
        denom = segment_sum(ex, rows, n_nodes) + 1e-9
        alpha = ex / take_rows(denom, rows)            # (E, h)
        msg = take_rows(z, cols) * alpha.reshape(-1, h, 1)
        out = segment_sum(msg, rows, n_nodes)          # (n, h, hd)
        return out.reshape(n_nodes, h * hd)


class GATModel(Module):
    """Stacked sparse GAT -> global add pool -> MLP head."""

    def __init__(self, feature_dim: int, dim: int = 32, n_layers: int = 6,
                 n_heads: int = 4, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        dims = [feature_dim] + [dim] * n_layers
        self.convs = [SparseGATLayer(dims[i], dims[i + 1], rng, n_heads)
                      for i in range(n_layers)]
        self.head = Linear(dim, dim, rng)
        self.out = Linear(dim, 1, rng)
        self.pool_scale = 0.02

    def forward(self, batch: Batch) -> Tensor:
        B, N, F = batch.features.shape
        coo = batch.adj_sparse.tocoo()
        rows = coo.row
        cols = coo.col
        x = Tensor(batch.features).reshape(B * N, F)
        for conv in self.convs:
            x = conv(x, rows, cols, B * N).relu()
        x = x.reshape(B, N, -1)
        g = global_add_pool(x, batch.node_mask) * self.pool_scale
        return self.out(self.head(g).relu()).reshape(-1)
