"""GCN baseline predictor (§VII-D): 6 GCN layers of width 256.

Message passing runs on the flattened ``(B·N, F)`` layout against the
batch's block-diagonal sparse adjacency — DAG adjacencies average ~2
edges/node, so sparse propagation is orders of magnitude cheaper than a
dense batched ``adj @ x`` at width 256.
"""

from __future__ import annotations

import numpy as np

from ..nn.layers import Linear, Module, global_add_pool
from ..nn.tensor import Tensor, spmm
from .dataset import Batch


class GCNModel(Module):
    """Stacked GCN -> global add pool -> MLP head."""

    def __init__(self, feature_dim: int, dim: int = 256, n_layers: int = 6,
                 seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        dims = [feature_dim] + [dim] * n_layers
        self.lins = [Linear(dims[i], dims[i + 1], rng)
                     for i in range(n_layers)]
        self.head = Linear(dim, dim // 4, rng)
        self.out = Linear(dim // 4, 1, rng)
        self.pool_scale = 0.02

    def forward(self, batch: Batch) -> Tensor:
        B, N, F = batch.features.shape
        x = Tensor(batch.features).reshape(B * N, F)
        for lin in self.lins:
            x = spmm(batch.adj_sparse, lin(x)).relu()
        x = x.reshape(B, N, -1)
        g = global_add_pool(x, batch.node_mask) * self.pool_scale
        return self.out(self.head(g).relu()).reshape(-1)
