"""Unit tests for the gray-box trust layer (repro.predictors.trust)."""

import numpy as np
import pytest

from repro.predictors.base import LatencyPredictor
from repro.predictors.trainer import TrainConfig
from repro.predictors.trust import (
    DEFAULT_ALPHA,
    EnsemblePredictor,
    FeatureStats,
    GuardedPrediction,
    TrustConfig,
    TrustStats,
    assess,
)

TRAIN = TrainConfig(epochs=4, patience=4, batch_size=8, seed=0)


def _split(corpus):
    return list(corpus[:-2]), list(corpus[-2:])


# ----------------------------------------------------------------- config
class TestTrustConfig:
    def test_defaults_disabled(self, monkeypatch):
        for var in ("REPRO_TRUST", "REPRO_TRUST_ENSEMBLE",
                    "REPRO_TRUST_ALPHA", "REPRO_TRUST_CV",
                    "REPRO_TRUST_OOD", "REPRO_TRUST_BUDGET"):
            monkeypatch.delenv(var, raising=False)
        cfg = TrustConfig.from_env()
        assert not cfg.enabled
        assert cfg.ensemble_size == 3
        assert cfg.alpha == DEFAULT_ALPHA
        assert cfg.budget == 0.0

    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRUST", "on")
        monkeypatch.setenv("REPRO_TRUST_ENSEMBLE", "5")
        monkeypatch.setenv("REPRO_TRUST_ALPHA", "4.5")
        monkeypatch.setenv("REPRO_TRUST_BUDGET", "120")
        cfg = TrustConfig.from_env()
        assert cfg.enabled and cfg.ensemble_size == 5
        assert cfg.alpha == 4.5 and cfg.budget == 120.0

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            TrustConfig(ensemble_size=0)
        with pytest.raises(ValueError):
            TrustConfig(alpha=1.0)
        with pytest.raises(ValueError):
            TrustConfig(budget=-1.0)

    def test_bad_env_number_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRUST_ALPHA", "wide")
        with pytest.raises(ValueError):
            TrustConfig.from_env()


# ------------------------------------------------------------------ guards
class TestAssess:
    CFG = TrustConfig(enabled=True)

    def test_trusted_inside_envelope(self):
        g = assess(raw=1.0, std=0.01, ood=0.0, analytical=1.5, cfg=self.CFG)
        assert g.trusted and g.value == 1.0
        assert g.lower == pytest.approx(1.5 / DEFAULT_ALPHA)
        assert g.upper == pytest.approx(1.5 * DEFAULT_ALPHA)

    def test_out_of_bounds_clamped(self):
        g = assess(raw=1000.0, std=0.0, ood=0.0, analytical=1.0, cfg=self.CFG)
        assert g.verdict == "out_of_bounds"
        assert g.value == pytest.approx(DEFAULT_ALPHA)  # clamped to upper
        g = assess(raw=1e-6, std=0.0, ood=0.0, analytical=1.0, cfg=self.CFG)
        assert g.verdict == "out_of_bounds"
        assert g.value == pytest.approx(1.0 / DEFAULT_ALPHA)

    def test_uncertain_when_ensemble_disagrees(self):
        g = assess(raw=1.0, std=0.9, ood=0.0, analytical=1.0, cfg=self.CFG)
        assert g.verdict == "uncertain"

    def test_ood_takes_precedence_over_uncertainty(self):
        g = assess(raw=1.0, std=0.9, ood=0.8, analytical=1.0, cfg=self.CFG)
        assert g.verdict == "ood"

    def test_invalid_values_fall_back_to_analytical(self):
        for raw in (float("nan"), float("inf"), -1.0, 0.0):
            g = assess(raw=raw, std=0.0, ood=0.0, analytical=2.0,
                       cfg=self.CFG)
            assert g.verdict == "invalid"
            assert g.value == pytest.approx(2.0)
            assert np.isfinite(g.value)

    def test_stats_accounting(self):
        stats = TrustStats()
        stats.record(assess(1.0, 0.0, 0.0, 1.0, self.CFG))
        stats.record(assess(1000.0, 0.0, 0.0, 1.0, self.CFG))
        assert stats.total == 2 and stats.trusted == 1
        assert stats.out_of_bounds == 1 and stats.suspect == 1
        d = stats.as_dict()
        assert d["total"] == 2 and d["trusted"] == 1
        assert "suspect" in stats.summary() or "trusted" in stats.summary()


# ----------------------------------------------------------- OOD detection
class TestFeatureStats:
    def test_in_distribution_scores_zero(self, tiny_corpus):
        stats = FeatureStats.fit([s.graph for s in tiny_corpus])
        for s in tiny_corpus:
            assert stats.ood_score(s.graph) == 0.0

    def test_out_of_distribution_flagged(self, tiny_corpus, toy_graph):
        stats = FeatureStats.fit([s.graph for s in tiny_corpus])
        # the toy chain is nothing like a profiled GPT stage: tiny
        # tensors, alien size — the score must exceed any sane threshold
        assert stats.ood_score(toy_graph) > 0.25

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            FeatureStats.fit([])


# -------------------------------------------------------------- ensembles
class TestEnsemble:
    def test_size_one_matches_single_predictor(self, tiny_corpus):
        train, val = _split(tiny_corpus)
        single = LatencyPredictor("gcn", seed=0)
        single.fit(train, val, TRAIN)
        ens = EnsemblePredictor("gcn", seed=0, size=1)
        fit = ens.fit(train, val, TRAIN)
        graphs = [s.graph for s in tiny_corpus]
        mean, std = ens.predict_many(graphs)[:2]
        np.testing.assert_array_equal(mean, single.predict_graphs(graphs))
        assert np.all(std == 0.0)
        assert fit.retrained == 0 and not fit.degraded

    def test_members_are_independent(self, tiny_corpus):
        train, val = _split(tiny_corpus)
        ens = EnsemblePredictor("gcn", seed=0, size=3)
        ens.fit(train, val, TRAIN)
        graphs = [s.graph for s in tiny_corpus]
        mean, std = ens.predict_many(graphs)[:2]
        assert mean.shape == std.shape == (len(graphs),)
        # differently-seeded fits cannot agree bit-for-bit everywhere
        assert float(std.max()) > 0.0
        assert ens.feature_stats is not None

    def test_divergence_retrains_with_fresh_seed(self, tiny_corpus,
                                                 monkeypatch):
        train, val = _split(tiny_corpus)
        monkeypatch.setenv("REPRO_FAULTS", "train_diverge:at=2")
        ens = EnsemblePredictor("gcn", seed=0, size=1)
        fit = ens.fit(train, val, TRAIN)
        assert fit.retrained == 1 and fit.dropped == 0
        assert not fit.degraded
        assert len(ens.members) == 1
        mean = ens.predict_many([s.graph for s in tiny_corpus])[0]
        assert np.all(np.isfinite(mean))

    def test_persistent_divergence_degrades(self, tiny_corpus, monkeypatch):
        train, val = _split(tiny_corpus)
        # attempts=* keeps firing on the retraining pass too
        monkeypatch.setenv("REPRO_FAULTS", "train_diverge:at=2,attempts=*")
        ens = EnsemblePredictor("gcn", seed=0, size=1)
        fit = ens.fit(train, val, TRAIN)
        assert fit.retrained == 1 and fit.dropped == 1
        assert fit.degraded
        with pytest.raises(RuntimeError):
            ens.predict_many([s.graph for s in tiny_corpus])

    def test_unfitted_rejects_prediction(self):
        with pytest.raises(RuntimeError):
            EnsemblePredictor().predict_many([])
