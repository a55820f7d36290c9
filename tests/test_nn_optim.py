"""Adam's in-place/scratch-buffer update is bit-identical to the textbook
out-of-place formulation, across dtypes, shapes, and steps, and its flat
fast-path step is bit-identical to the per-parameter loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import fastpath
from repro.nn.optim import Adam, CosineDecay
from repro.nn.tensor import Tensor


def reference_adam(datas, grads, lr, b1, b2, eps, steps):
    """The pre-optimization update, replayed op-for-op on copies."""
    ps = [d.copy() for d in datas]
    ms = [np.zeros_like(d) for d in datas]
    vs = [np.zeros_like(d) for d in datas]
    for t in range(1, steps + 1):
        bias1 = 1.0 - b1 ** t
        bias2 = 1.0 - b2 ** t
        for p, m, v, g in zip(ps, ms, vs, grads):
            if g is None:
                continue
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
    return ps, ms, vs


@pytest.mark.parametrize("lr", [1e-3, 2e-3])
def test_bit_identical_to_reference(lr):
    rng = np.random.default_rng(7)
    shapes = [(4, 8), (8,), (3, 5, 2), (1,)]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    grads = [rng.normal(size=s).astype(np.float32) for s in shapes]
    datas = [p.data.copy() for p in params]

    opt = Adam(params, lr=lr)
    steps = 5
    for _ in range(steps):
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()

    ref_p, ref_m, ref_v = reference_adam(
        datas, grads, opt.lr, opt.beta1, opt.beta2, opt.eps, steps)
    for p, m, v, rp, rm, rv in zip(params, opt.m, opt.v, ref_p, ref_m, ref_v):
        assert np.array_equal(p.data, rp)  # bitwise, no tolerance
        assert np.array_equal(m, rm)
        assert np.array_equal(v, rv)


def test_skips_params_without_grad():
    p1 = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    p2 = Tensor(np.ones((2, 2), np.float32), requires_grad=True)
    opt = Adam([p1, p2], lr=1e-2)
    p1.grad = np.full((2, 2), 0.5, np.float32)
    before = p2.data.copy()
    opt.step()
    assert np.array_equal(p2.data, before)  # untouched without a grad
    assert not np.array_equal(p1.data, before)


def test_scratch_buffers_shared_across_params():
    """One flat buffer pair per dtype, sized for the largest parameter
    (the Tensor layer is float32-only, so one pair in practice)."""
    params = [Tensor(np.zeros((16, 4), np.float32), requires_grad=True),
              Tensor(np.zeros((3,), np.float32), requires_grad=True),
              Tensor(np.zeros((2, 2), np.float32), requires_grad=True)]
    opt = Adam(params)
    assert set(opt._scratch) == {np.dtype(np.float32)}
    s32 = opt._scratch[np.dtype(np.float32)]
    assert s32[0].shape == (64,) and s32[1].shape == (64,)
    assert s32[0] is not s32[1]


def test_step_does_not_grow_scratch():
    p = Tensor(np.zeros((8, 8), np.float32), requires_grad=True)
    opt = Adam([p])
    bufs = [b for pair in opt._scratch.values() for b in pair]
    for _ in range(3):
        p.grad = np.ones((8, 8), np.float32)
        opt.step()
    after = [b for pair in opt._scratch.values() for b in pair]
    assert all(a is b for a, b in zip(bufs, after))  # reused, not realloc'd


@pytest.mark.parametrize("scenario", ["all_grads", "missing_grad",
                                      "weights_replaced"])
def test_flat_step_equals_per_parameter_loop(scenario):
    """The flat step (fast strategy) against the per-parameter loop
    (reference strategy): a parameter without a gradient keeps its
    weights and undecayed moments, and weights replaced after the
    optimizer was built (a resume's ``load_state_dict``) are the ones
    trained."""

    def run(fast):
        prev = fastpath.set_fast(fast)
        try:
            rng = np.random.default_rng(3)
            shapes = [(4, 8), (8,), (3, 5, 2), (1,), (17,)]
            params = [Tensor(rng.normal(size=s), requires_grad=True)
                      for s in shapes]
            opt = Adam(params, lr=1e-2)
            for step in range(5):
                if scenario == "weights_replaced" and step in (0, 3):
                    for p in params:
                        p.data = rng.normal(size=p.shape).astype(np.float32)
                for i, p in enumerate(params):
                    p.grad = rng.normal(size=p.shape).astype(np.float32)
                    if scenario == "missing_grad" and i == 1 and step % 2:
                        p.grad = None
                opt.step()
            return ([p.data.copy() for p in params],
                    [m.copy() for m in opt.m], [v.copy() for v in opt.v])
        finally:
            fastpath.set_fast(prev)

    for fast, ref in zip(run(True), run(False)):
        for a, b in zip(fast, ref):
            assert np.array_equal(a, b)


def test_rejects_mixed_dtypes():
    p = Tensor(np.zeros(2, np.float32), requires_grad=True)
    q = Tensor(np.zeros(2, np.float32), requires_grad=True)
    q.data = np.zeros(2, np.float64)
    with pytest.raises(TypeError):
        Adam([p, q])


def test_cosine_decay_still_drives_lr():
    p = Tensor(np.zeros((2,), np.float32), requires_grad=True)
    opt = Adam([p], lr=1e-3)
    sched = CosineDecay(opt, 1e-3, total_epochs=10)
    lrs = [sched.step() for _ in range(10)]
    assert lrs[0] > lrs[-1]
    assert lrs[-1] == pytest.approx(0.0, abs=1e-12)
