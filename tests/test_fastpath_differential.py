"""Differential suite: the accelerated predictor path is bit-identical.

Every optimization this layer stacks — the fast autograd engine
(gradient-buffer stealing, acyclic tape), precomputed attention masks,
the shared encoding cache, batched ensemble inference, and the parallel
ensemble fan-out — claims *bit-identity* with the seed configuration,
not tolerance-level agreement.  These tests pin that claim with ``==``
comparisons on losses, weights, and predictions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import fastpath
from repro.predictors import (
    EnsemblePredictor,
    LatencyPredictor,
    StageSample,
    TrainConfig,
    global_encoding_cache,
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
