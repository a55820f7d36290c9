"""Optimizers and learning-rate schedules (§IV-B6).

Adam with the paper's defaults (β₁ = 0.9, β₂ = 0.999) plus a cosine decay
schedule running from the initial rate to zero over the training budget.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import fastpath
from .tensor import Tensor


class Adam:
    """Adam (Kingma & Ba) over a fixed parameter list.

    The moments live in one flat buffer each; ``m[i]`` and ``v[i]`` are
    views of parameter ``i``'s segment, so the checkpoint format is the
    per-parameter one.  With the fast strategy on (:mod:`repro.nn.fastpath`)
    and every parameter holding a gradient, a step copies the gradients
    into a flat buffer, runs the update once over the flat buffers and
    subtracts each parameter's segment from its weights in place.  The
    update is elementwise, so the flat step is bit-identical to the
    per-parameter loop, which runs in every other case: a parameter
    without a gradient is left untouched, its moments not decayed.  The
    weights stay the parameters' own arrays, so weights loaded after the
    optimizer was built (a resume) are the ones trained.
    """

    def __init__(self, params: Sequence[Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8) -> None:
        # dedupe by identity: a tied parameter is stepped once
        self.params = list({id(p): p for p in params}.values())
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) > 1:
            raise TypeError(f"Adam needs parameters of one dtype, got "
                            f"{sorted(map(str, dtypes))}")
        dtype = dtypes.pop() if dtypes else np.dtype(np.float32)
        n = sum(p.data.size for p in self.params)
        self._flat_m, self._flat_v = np.zeros(n, dtype), np.zeros(n, dtype)
        self._flat_g = np.empty(n, dtype)
        self._flat_t = (np.empty(n, dtype), np.empty(n, dtype))

        def views(buf: np.ndarray) -> list[np.ndarray]:
            out, a = [], 0
            for p in self.params:
                out.append(buf[a:a + p.data.size].reshape(p.data.shape))
                a += p.data.size
            return out

        self.m, self.v = views(self._flat_m), views(self._flat_v)
        self._g_views = views(self._flat_g)
        self._t_views = views(self._flat_t[0])
        # the per-parameter loop's two scratch buffers (sized for the
        # largest parameter): the update needs the numerator lr·(m/bias1)
        # and the denominator sqrt(v/bias2)+eps alive at the same time,
        # and fusing them differently would reassociate the float ops and
        # change the trained weights bit-for-bit
        size = max((p.data.size for p in self.params), default=0)
        self._scratch = {dtype: (np.empty(size, dtype), np.empty(size, dtype))}

    def step(self) -> None:
        self.t += 1
        bias1 = 1.0 - self.beta1 ** self.t
        bias2 = 1.0 - self.beta2 ** self.t
        if fastpath._FAST and all(p.grad is not None for p in self.params):
            for p, g in zip(self.params, self._g_views):
                g[...] = p.grad
            self._update(self._flat_g, self._flat_m, self._flat_v,
                         *self._flat_t, bias1, bias2)
            for p, t in zip(self.params, self._t_views):
                p.data -= t
            return
        for p, m, v in zip(self.params, self.m, self.v):
            if p.grad is None:
                continue
            g = p.grad
            s1, s2 = self._scratch[p.data.dtype]
            t1 = s1[:g.size].reshape(g.shape)
            self._update(g, m, v, t1, s2[:g.size].reshape(g.shape),
                         bias1, bias2)
            p.data -= t1

    def _update(self, g: np.ndarray, m: np.ndarray, v: np.ndarray,
                t1: np.ndarray, t2: np.ndarray, bias1: float,
                bias2: float) -> None:
        """Advance the moments in place and leave the step in ``t1``
        (``t2`` is scratch)."""
        b1, b2 = self.beta1, self.beta2
        m *= b1
        np.multiply(g, 1 - b1, out=t1)
        m += t1
        v *= b2
        np.multiply(g, 1 - b2, out=t1)
        t1 *= g
        v += t1
        np.divide(m, bias1, out=t1)
        t1 *= self.lr
        np.divide(v, bias2, out=t2)
        np.sqrt(t2, out=t2)
        t2 += self.eps
        t1 /= t2

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()


class CosineDecay:
    """LR decays from ``lr0`` at epoch 0 to 0 at ``total_epochs`` (§IV-B6).

    An optional linear warm-up over the first ``warmup_frac`` of the
    budget precedes the cosine; ``warmup_frac=0`` gives the paper's plain
    cosine.
    """

    def __init__(self, optimizer: Adam, lr0: float, total_epochs: int,
                 warmup_frac: float = 0.0) -> None:
        if total_epochs < 1:
            raise ValueError("total_epochs must be >= 1")
        if not 0.0 <= warmup_frac < 1.0:
            raise ValueError("warmup_frac must be in [0, 1)")
        self.opt = optimizer
        self.lr0 = lr0
        self.total = total_epochs
        self.warmup = int(round(warmup_frac * total_epochs))
        self.epoch = 0
        self.opt.lr = lr0 / max(1, self.warmup) if self.warmup else lr0

    def step(self) -> float:
        """Advance one epoch; returns the new learning rate."""
        self.epoch = min(self.epoch + 1, self.total)
        if self.epoch < self.warmup:
            lr = self.lr0 * (self.epoch + 1) / self.warmup
        else:
            t = self.epoch - self.warmup
            span = max(1, self.total - self.warmup)
            lr = 0.5 * self.lr0 * (1.0 + math.cos(math.pi * t / span))
        self.opt.lr = lr
        return lr
