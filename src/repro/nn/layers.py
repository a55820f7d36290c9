"""Neural-network modules (the PyTorch subset the predictors need).

All modules store parameters as :class:`Tensor` with ``requires_grad`` and
expose ``parameters()`` / ``state_dict()`` / ``load_state_dict()`` so the
trainer can snapshot and restore best weights for early stopping
(§IV-B8).  Graph inputs are dense padded batches:

* ``x`` — node features ``(B, N, F)``;
* ``node_mask`` — ``(B, N)`` 1 for real nodes, 0 for padding;
* ``attn_mask`` / ``adj`` — ``(B, N, N)`` reachability / adjacency.
"""

from __future__ import annotations

import numpy as np

from . import fastpath
from .functional import softmax
from .fused import attention_core, layer_norm, linear
from .tensor import Array, Tensor

_NEG = np.float32(-1e9)


class Module:
    """Minimal module base with recursive parameter discovery."""

    def parameters(self) -> list[Tensor]:
        # dedupe by identity: a tied parameter reachable through several
        # attributes must be updated (and zeroed, and counted) exactly once
        out: list[Tensor] = []
        seen: set[int] = set()
        for v in self.__dict__.values():
            for p in _collect(v):
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        return out

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        # first-visit name wins for tied parameters, mirroring parameters()
        out: list[tuple[str, Tensor]] = []
        seen: set[int] = set()
        for k, v in self.__dict__.items():
            for name, p in _collect_named(v, f"{prefix}{k}"):
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append((name, p))
        return out

    def state_dict(self) -> dict[str, Array]:
        return {k: p.data.copy() for k, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, Array]) -> None:
        params = dict(self.named_parameters())
        if set(params) != set(state):
            missing = set(params) ^ set(state)
            raise KeyError(f"state dict mismatch: {sorted(missing)}")
        for k, p in params.items():
            if p.data.shape != state[k].shape:
                raise ValueError(f"shape mismatch for {k}")
            p.data = state[k].astype(np.float32).copy()

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


def _collect(v) -> list[Tensor]:
    if isinstance(v, Tensor) and v.requires_grad:
        return [v]
    if isinstance(v, Module):
        return v.parameters()
    if isinstance(v, (list, tuple)):
        out = []
        for item in v:
            out.extend(_collect(item))
        return out
    return []


def _collect_named(v, name: str) -> list[tuple[str, Tensor]]:
    if isinstance(v, Tensor) and v.requires_grad:
        return [(name, v)]
    if isinstance(v, Module):
        return v.named_parameters(prefix=name + ".")
    if isinstance(v, (list, tuple)):
        out = []
        for i, item in enumerate(v):
            out.extend(_collect_named(item, f"{name}.{i}"))
        return out
    return []


def xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
           shape: tuple[int, ...] | None = None) -> Array:
    """Glorot-uniform initialization."""
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit,
                       size=shape or (fan_in, fan_out)).astype(np.float32)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 bias: bool = True) -> None:
        self.w = Tensor(xavier(rng, d_in, d_out), requires_grad=True)
        self.b = Tensor(np.zeros(d_out, np.float32), requires_grad=True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if fastpath._FAST:
            return linear(x, self.w, self.b)
        y = x @ self.w
        if self.b is not None:
            y = y + self.b
        return y


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5) -> None:
        self.scale = Tensor(np.ones(dim, np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, np.float32), requires_grad=True)
        self.eps = eps

    def forward(self, x: Tensor) -> Tensor:
        if fastpath._FAST:
            return layer_norm(x, self.scale, self.bias, self.eps)
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        inv = (var + self.eps) ** -0.5
        return centered * inv * self.scale + self.bias


class Sequential(Module):
    def __init__(self, *mods: Module) -> None:
        self.mods = list(mods)

    def forward(self, x: Tensor) -> Tensor:
        for m in self.mods:
            x = m(x)
        return x


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class MaskedMultiHeadAttention(Module):
    """Multi-head self-attention restricted by an additive mask (Eqn 1).

    For the DAG Transformer the mask encodes DAGRA reachability; padding
    nodes are masked out of every row.
    """

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator) -> None:
        if dim % n_heads:
            raise ValueError("n_heads must divide dim")
        self.n_heads = n_heads
        self.head_dim = dim // n_heads
        self.wq = Linear(dim, dim, rng)
        self.wk = Linear(dim, dim, rng)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)

    def forward(self, x: Tensor, attn_mask: Array) -> Tensor:
        if attn_mask.dtype == np.bool_:
            add_mask = np.where(attn_mask[:, None, :, :], np.float32(0.0), _NEG)
        else:
            # precomputed additive bias, already (B, 1, N, N) float32 —
            # bit-identical to the np.where above by construction
            add_mask = attn_mask
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        if fastpath._FAST:
            return self.wo(attention_core(q, k, v, add_mask, self.n_heads))
        B, N, D = x.shape
        h, hd = self.n_heads, self.head_dim

        def heads(t: Tensor) -> Tensor:
            return t.reshape(B, N, h, hd).transpose(0, 2, 1, 3)

        q, k, v = heads(q), heads(k), heads(v)
        scores = (q @ k.swapaxes(-1, -2)) * np.float32(1.0 / np.sqrt(hd))
        attn = softmax(scores, axis=-1, mask=add_mask)
        ctx = attn @ v
        ctx = ctx.transpose(0, 2, 1, 3).reshape(B, N, D)
        return self.wo(ctx)


class GCNConv(Module):
    """Graph convolution: ``H' = σ(Â H W)`` (Kipf & Welling).

    ``adj`` is the pre-normalized ``(B, N, N)`` adjacency with self-loops
    (:func:`repro.ir.reachability.undirected_adjacency`).
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator) -> None:
        self.lin = Linear(d_in, d_out, rng)

    def forward(self, x: Tensor, adj: Array) -> Tensor:
        return Tensor(adj) @ self.lin(x)


class GATConv(Module):
    """Graph attention convolution (Veličković et al.), single matrix form.

    Attention logits ``e_ij = LeakyReLU(a_src·h_i + a_dst·h_j)`` are
    masked to edges of ``adj`` and softmax-normalized per row.
    """

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 n_heads: int = 1) -> None:
        if d_out % n_heads:
            raise ValueError("n_heads must divide d_out")
        self.n_heads = n_heads
        self.head_dim = d_out // n_heads
        self.lin = Linear(d_in, d_out, rng, bias=False)
        self.a_src = Tensor(xavier(rng, self.head_dim, 1,
                                   (n_heads, self.head_dim)), requires_grad=True)
        self.a_dst = Tensor(xavier(rng, self.head_dim, 1,
                                   (n_heads, self.head_dim)), requires_grad=True)

    def forward(self, x: Tensor, adj: Array) -> Tensor:
        B, N, _ = x.shape
        h, hd = self.n_heads, self.head_dim
        z = self.lin(x).reshape(B, N, h, hd).transpose(0, 2, 1, 3)  # (B,h,N,hd)
        src = (z * self.a_src.reshape(1, h, 1, hd)).sum(axis=-1)    # (B,h,N)
        dst = (z * self.a_dst.reshape(1, h, 1, hd)).sum(axis=-1)
        logits = (src.reshape(B, h, N, 1) + dst.reshape(B, h, 1, N)).leaky_relu()
        edge = adj[:, None, :, :] > 0
        add_mask = np.where(edge, np.float32(0.0), _NEG)
        alpha = softmax(logits, axis=-1, mask=add_mask)
        out = alpha @ z                                              # (B,h,N,hd)
        return out.transpose(0, 2, 1, 3).reshape(B, N, h * hd)


def global_add_pool(x: Tensor, node_mask: Array) -> Tensor:
    """Eqn 2: graph embedding = sum of (real) node embeddings."""
    return (x * Tensor(node_mask[..., None])).sum(axis=1)
