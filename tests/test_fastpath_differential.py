"""Differential suite: the accelerated predictor path is bit-identical.

Every optimization this layer stacks — the fast autograd engine
(gradient-buffer stealing, acyclic tape), the fused Linear, LayerNorm
and attention-core tape nodes, the flat Adam step, precomputed attention
masks, the shared encoding cache, batched ensemble inference, and the
parallel ensemble fan-out — claims *bit-identity* with the seed
configuration, not tolerance-level agreement.  These tests pin that
claim with ``==`` comparisons on losses, weights, and predictions.
"""

from __future__ import annotations

import collections
from dataclasses import replace

import numpy as np
import pytest

import repro.predictors.trainer as trainer_mod
from repro.nn import Adam, Linear, Module, Tensor, fastpath, mae
from repro.nn.tensor import no_grad
from repro.predictors import (
    DAGTransformerLayer,
    EnsemblePredictor,
    LatencyPredictor,
    Normalizer,
    StageSample,
    TrainConfig,
    build_model,
    global_encoding_cache,
    make_batches,
    train_model,
)

CFG = TrainConfig(epochs=5, patience=5, batch_size=4, lr=2e-3, seed=0)


@pytest.fixture
def reference_mode():
    """Run the test body under the seed engine + per-forward masks."""
    prev = fastpath.set_fast(False)
    yield
    fastpath.set_fast(prev)


def _fresh(corpus):
    return [StageSample(s.graph, s.latency, s.stage_id) for s in corpus]


def _fit(corpus, cfg=CFG, **kwargs):
    samples = _fresh(corpus)
    pred = LatencyPredictor(seed=0)
    result = pred.fit(samples[3:], samples[:3], cfg, **kwargs)
    return pred, result


def _assert_state_equal(a: dict, b: dict):
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), k


class TestEngineDifferential:
    def test_fit_bit_identical(self, tiny_corpus):
        """Losses, weights, and predictions of a fast-mode fit equal the
        reference-mode fit exactly."""
        graphs = [s.graph for s in tiny_corpus]
        fast_p, fast_r = _fit(tiny_corpus)
        fast_preds = fast_p.predict_graphs(graphs)
        prev = fastpath.set_fast(False)
        try:
            ref_p, ref_r = _fit(tiny_corpus)
            ref_preds = ref_p.predict_graphs(graphs)
        finally:
            fastpath.set_fast(prev)
        assert fast_r.train_loss == ref_r.train_loss
        assert fast_r.val_loss == ref_r.val_loss
        assert fast_r.best_epoch == ref_r.best_epoch
        _assert_state_equal(fast_p.model.state_dict(), ref_p.model.state_dict())
        assert np.array_equal(fast_preds, ref_preds)

    def test_encoding_cache_bit_transparent(self, tiny_corpus, monkeypatch):
        fast_p, fast_r = _fit(tiny_corpus)
        monkeypatch.setattr(global_encoding_cache(), "get",
                            lambda key, compute: compute())
        off_p, off_r = _fit(tiny_corpus)
        assert fast_r.train_loss == off_r.train_loss
        _assert_state_equal(fast_p.model.state_dict(), off_p.model.state_dict())

    def test_resumed_checkpoint_fast_equals_uninterrupted_reference(
            self, tiny_corpus, tmp_path, reference_mode):
        """An interrupted-and-resumed fast-mode fit reproduces the
        uninterrupted reference-mode fit bit-for-bit (the checkpoint
        format and the replayed RNG/Adam state are mode-agnostic)."""
        ref_p, ref_r = _fit(tiny_corpus)  # reference engine (fixture)
        fastpath.set_fast(True)

        import repro.predictors.trainer as trainer_mod

        ckpt = tmp_path / "diff.npz"
        real = trainer_mod._save_checkpoint
        count = {"n": 0}

        class _Stop(Exception):
            pass

        def interrupt(*args, **kwargs):
            real(*args, **kwargs)
            if not kwargs.get("done"):
                count["n"] += 1
                if count["n"] >= 2:
                    raise _Stop()

        trainer_mod._save_checkpoint = interrupt
        try:
            with pytest.raises(_Stop):
                _fit(tiny_corpus, checkpoint_path=ckpt)
        finally:
            trainer_mod._save_checkpoint = real
        res_p, res_r = _fit(tiny_corpus, checkpoint_path=ckpt, resume=True)
        assert res_r.train_loss == ref_r.train_loss
        assert res_r.val_loss == ref_r.val_loss
        _assert_state_equal(res_p.model.state_dict(), ref_p.model.state_dict())


def _both_modes(run):
    """``run()`` under the fast strategy, then under the reference one."""
    fast = run()
    prev = fastpath.set_fast(False)
    try:
        ref = run()
    finally:
        fastpath.set_fast(prev)
    return fast, ref


def _strip_bias(batches):
    """Drop the precomputed additive masks: attention takes the bool path."""
    for b in batches:
        b.attn_bias = None
    return batches


#: case -> (kind, model overrides, config, post-LN layers, bool masks);
#: the plain DAG Transformer fit is TestEngineDifferential's
MATRIX = {
    "no_dagra": ("dag_transformer", {"use_dagra": False}, CFG, False, False),
    "no_dagpe": ("dag_transformer", {"use_dagpe": False}, CFG, False, False),
    "post_ln": ("dag_transformer", {}, CFG, True, False),
    "gcn": ("gcn", {}, CFG, False, False),
    "gat": ("gat", {}, CFG, False, False),
    "several_batches": ("dag_transformer", {}, replace(CFG, batch_size=2),
                        False, False),
    "bool_mask": ("dag_transformer", {}, CFG, False, True),
}


class TestFusedNodeMatrix:
    """The fused nodes and the flat Adam step against the composed ops
    and the per-parameter loop (``fastpath.set_fast(False)``)."""

    @pytest.mark.parametrize("case", sorted(MATRIX))
    def test_fit_bit_identical(self, tiny_corpus, monkeypatch, case):
        kind, overrides, cfg, post_ln, bool_mask = MATRIX[case]
        if bool_mask:
            real = trainer_mod.make_batches
            monkeypatch.setattr(trainer_mod, "make_batches",
                                lambda *a, **k: _strip_bias(real(*a, **k)))

        def run():
            samples = _fresh(tiny_corpus)
            train, val = samples[3:], samples[:3]
            norm = Normalizer.fit(train)
            model = build_model(kind, seed=0, **overrides)
            if post_ln:
                for layer in model.layers:
                    layer.norm_first = False
            result = train_model(model, train, val, norm, cfg)
            batches = make_batches(samples, norm, 4)
            if bool_mask:
                _strip_bias(batches)
            with no_grad():
                preds = np.concatenate([model(b).data for b in batches])
            return result, model.state_dict(), preds

        (fast_r, fast_w, fast_p), (ref_r, ref_w, ref_p) = _both_modes(run)
        assert fast_r.train_loss == ref_r.train_loss
        assert fast_r.val_loss == ref_r.val_loss
        assert fast_r.best_epoch == ref_r.best_epoch
        _assert_state_equal(fast_w, ref_w)
        assert np.array_equal(fast_p, ref_p)

    def test_tied_parameter_stepped_once(self):
        """A weight shared by two Linears, registered twice with Adam,
        trains identically in both modes and moves at most ``lr`` per
        coordinate on the first step (stepped once, not twice)."""

        class Tied(Module):
            def __init__(self):
                rng = np.random.default_rng(0)
                self.encoder = Linear(4, 4, rng)
                self.decoder = Linear(4, 4, rng)
                self.decoder.w = self.encoder.w

            def forward(self, x):
                return self.decoder(self.encoder(x).relu())

        x = Tensor(np.random.default_rng(1).normal(size=(3, 5, 4)))
        target = np.zeros((3, 5), np.float32)

        def run():
            m = Tied()
            w0 = m.encoder.w.data.copy()
            opt = Adam(m.parameters() + [m.decoder.w], lr=0.1)
            losses, moved = [], None
            for _ in range(4):
                loss = mae(m(x).sum(axis=-1), target)
                opt.zero_grad()
                loss.backward()
                opt.step()
                losses.append(float(loss.data))
                if moved is None:
                    moved = np.abs(m.encoder.w.data - w0).max()
            return losses, m.state_dict(), moved

        (fast_l, fast_w, fast_moved), (ref_l, ref_w, ref_moved) = \
            _both_modes(run)
        assert fast_l == ref_l
        _assert_state_equal(fast_w, ref_w)
        assert 0 < fast_moved <= 0.1 + 1e-6
        assert ref_moved == fast_moved


def _tape_ops(out: Tensor) -> collections.Counter:
    """Recorded tape nodes behind ``out``, counted by the op that made
    them (the fast strategy stores each op's own backward closure)."""
    ops: collections.Counter = collections.Counter()
    seen: set[int] = set()
    stack = [out]
    while stack:
        node = stack.pop()
        if id(node) in seen or node._backward is None:
            continue
        seen.add(id(node))
        ops[node._backward.__qualname__.split(".<locals>")[0]] += 1
        stack.extend(node._prev)
    return ops


class TestTapeSize:
    """One DAG Transformer layer records its fused nodes, not the
    composed ops; a silent fall-back to the composed path fails here."""

    def _layer_forward(self):
        rng = np.random.default_rng(0)
        layer = DAGTransformerLayer(16, 4, rng)
        x = Tensor(rng.normal(size=(2, 7, 16)), requires_grad=True)
        reach = np.tril(rng.random((2, 7, 7)) < 0.5) | np.eye(7, dtype=bool)
        return layer(x, reach)

    def test_fast_layer_records_twelve_nodes(self):
        assert _tape_ops(self._layer_forward()) == {
            "linear": 6, "layer_norm": 2, "attention_core": 1,
            "Tensor.__add__": 2, "Tensor.relu": 1}

    def test_reference_layer_records_the_composed_ops(self, reference_mode):
        assert sum(_tape_ops(self._layer_forward()).values()) == 55


class TestEnsembleDifferential:
    def _ens_fit(self, corpus, jobs):
        samples = _fresh(corpus)
        ens = EnsemblePredictor(seed=0, size=3)
        ens.fit(samples[3:], samples[:3], CFG, jobs=jobs)
        return ens

    def test_parallel_fit_equals_serial(self, tiny_corpus):
        serial = self._ens_fit(tiny_corpus, jobs=1)
        parallel = self._ens_fit(tiny_corpus, jobs=2)
        assert len(serial.members) == len(parallel.members) == 3
        for a, b in zip(serial.members, parallel.members):
            assert a.seed == b.seed
            _assert_state_equal(a.model.state_dict(), b.model.state_dict())

    def test_predict_many_equals_stacked_members(self, tiny_corpus):
        ens = self._ens_fit(tiny_corpus, jobs=1)
        graphs = [s.graph for s in tiny_corpus]
        mean, std, ood = ens.predict_many(graphs)
        stacked = np.stack([m.predict_graphs(graphs) for m in ens.members])
        assert np.array_equal(mean, stacked.mean(axis=0))
        assert np.array_equal(std, stacked.std(axis=0))
        expect_ood = np.array([ens.feature_stats.ood_score(g)
                               for g in graphs], np.float64)
        assert np.array_equal(ood, expect_ood)

    def test_predict_many_empty(self, tiny_corpus):
        ens = self._ens_fit(tiny_corpus, jobs=1)
        mean, std, ood = ens.predict_many([])
        assert mean.shape == std.shape == ood.shape == (0,)
