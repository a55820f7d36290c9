"""Fused tape nodes for the predictor's hot layers.

With the fast strategy on (:mod:`repro.nn.fastpath`), ``Linear``,
``LayerNorm`` and the attention core of ``MaskedMultiHeadAttention``
each record one tape node here instead of the 2, 11 and 18 nodes their
composed :class:`~repro.nn.tensor.Tensor` ops record.  A fused backward
replays the composed ops' float operations in the same order, on arrays
of the same memory layout, so losses, gradients and trained weights are
bit-identical to the composed path, which stays as the oracle of
``tests/test_fastpath_differential.py``.  Three rules keep it so:

* a matmul gradient multiplies by the transposed *view* of the other
  operand (``np.swapaxes``), never by a contiguous copy: BLAS rounds the
  two calls differently;
* every gradient handed to an input is C-contiguous, as the composed
  reshape/transpose ``_accum`` copies were: a reduction such as a bias
  gradient's ``sum(axis=(0, 1))`` adds in memory order;
* a node accumulates into its inputs in the order the composed tape
  did, and lists its parents in the order the composed subgraph first
  reached them, so the backward pass visits shared inputs (the residual
  stream, the projections' common input) in the same order.

Only elementwise steps are rewritten (in place, or broadcast instead of
materialized); elementwise float ops round the same either way.
"""

from __future__ import annotations

import numpy as np

from .tensor import Array, Tensor, _unbroadcast


def linear(x: Tensor, w: Tensor, b: Tensor | None) -> Tensor:
    """``x @ w + b`` as one node (the composed matmul and bias add)."""
    y = x.data @ w.data
    if b is not None:
        y += b.data

    def backward(out: Tensor) -> None:
        g = out.grad
        if b is not None and b.requires_grad:
            gb = _unbroadcast(g, b.shape)
            b._accum(gb, own=gb is not g)
        if x.requires_grad:
            x._accum(_unbroadcast(g @ np.swapaxes(w.data, -1, -2), x.shape),
                     own=True)
        if w.requires_grad:
            w._accum(_unbroadcast(np.swapaxes(x.data, -1, -2) @ g, w.shape),
                     own=True)

    return x._make(y, (x, w) if b is None else (x, w, b), backward)


def layer_norm(x: Tensor, scale: Tensor, bias: Tensor, eps: float) -> Tensor:
    """Layer norm over the last axis as one node.

    Mirrors ``LayerNorm``'s composed ops: ``mean`` is a sum times the
    float32 reciprocal of the width, and ``(var + eps) ** -0.5`` is a
    power, not a reciprocal square root.
    """
    xd = x.data
    inv_n = np.asarray(1.0 / float(xd.shape[-1]), np.float32)
    mu = xd.sum(axis=-1, keepdims=True) * inv_n
    c = xd - mu
    ve = (c * c).sum(axis=-1, keepdims=True) * inv_n
    ve += np.float32(eps)
    inv = ve ** -0.5
    ci = c * inv
    y = ci * scale.data
    y += bias.data

    def backward(out: Tensor) -> None:
        g = out.grad
        if bias.requires_grad:
            gb = _unbroadcast(g, bias.shape)
            bias._accum(gb, own=gb is not g)
        if scale.requires_grad:
            scale._accum(_unbroadcast(g * ci, scale.shape), own=True)
        if not x.requires_grad:
            return
        gci = g * scale.data
        gc = gci * inv
        ginv = _unbroadcast(gci * c, inv.shape)
        gvar = ginv * -0.5 * ve ** -1.5
        # c * c sends its gradient to c twice, as two separate adds
        gcc = (gvar * inv_n) * c
        gc += gcc
        gc += gcc
        x._accum(gc, own=True)
        gmu = _unbroadcast(-gc, mu.shape)
        x._accum(np.broadcast_to(gmu * inv_n, x.shape))

    return x._make(y, (x, scale, bias), backward)


def attention_core(q: Tensor, k: Tensor, v: Tensor, mask: Array,
                   n_heads: int) -> Tensor:
    """Masked multi-head attention between the projections and ``wo``.

    Takes the ``(B, N, D)`` query, key and value projections, splits the
    heads, applies the scaled, masked softmax of Eqn 1 and returns the
    merged ``(B, N, D)`` context.  ``mask`` is the additive bias,
    ``(B, 1, N, N)`` float32.  The node keeps what its backward reads:
    the head views, the exponentials, the softmax denominators and the
    attention weights.
    """
    B, N, D = q.shape
    h, hd = n_heads, D // n_heads

    def heads(a: Array) -> Array:
        return a.reshape(B, N, h, hd).transpose(0, 2, 1, 3)

    qh, kh, vh = heads(q.data), heads(k.data), heads(v.data)
    scale = np.asarray(np.float32(1.0 / np.sqrt(hd)))
    s = qh @ np.swapaxes(kh, -1, -2)
    s *= scale
    s += mask
    s -= s.max(axis=-1, keepdims=True)
    e = np.exp(s)
    z = e.sum(axis=-1, keepdims=True)
    z += np.float32(1e-9)
    y = np.divide(e, z, out=s)
    ctx = (y @ vh).transpose(0, 2, 1, 3).reshape(B, N, D)

    def merge(g: Array) -> Array:
        return np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(B, N, D)

    def backward(out: Tensor) -> None:
        gctx = np.ascontiguousarray(
            out.grad.reshape(B, N, h, hd).transpose(0, 2, 1, 3))
        gy = gctx @ np.swapaxes(vh, -1, -2)
        gvh = np.swapaxes(y, -1, -2) @ gctx if v.requires_grad else None
        # softmax: y = e / z, z = sum(e) + 1e-9, e = exp(s - max); the
        # z gradient -gy * e / (z * z) is formed in gy's buffer
        ge = gy / z
        np.negative(gy, out=gy)
        gy *= e
        gy /= z * z
        ge += _unbroadcast(gy, z.shape)
        # through exp; the max shift and the mask pass it on unchanged
        gs = ge
        gs *= e
        gs *= scale
        if q.requires_grad:
            q._accum(merge(gs @ kh), own=True)
        if k.requires_grad:
            k._accum(merge(np.swapaxes(np.swapaxes(qh, -1, -2) @ gs, -1, -2)),
                     own=True)
        if gvh is not None:
            v._accum(merge(gvh), own=True)

    return q._make(ctx, (q, k, v), backward)
