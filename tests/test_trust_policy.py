"""The one trust policy (``fit_guarded`` + ``resolve``) and its users.

``resolve`` is unit-tested against stub estimates, so every branch —
trusted, re-profiled within budget, analytical, degraded, trust off —
is pinned without training.  ``fit_guarded`` and ``PredTOP`` with trust
on are exercised end to end on the tiny GPT.
"""

import numpy as np
import pytest

from repro.core import PredTOP, PredTOPConfig
from repro.predictors.analytical import AnalyticalPredictor
from repro.predictors.trainer import TrainConfig
from repro.predictors.trust import (TrustConfig, TrustStats, fit_guarded,
                                    resolve)

ON = TrustConfig(enabled=True)


class Estimates:
    """An analytical stand-in returning fixed estimates."""

    def __init__(self, values):
        self.values = np.asarray(values, np.float64)

    def predict_graphs(self, graphs):
        assert len(graphs) == len(self.values)
        return self.values


class Reprofiler:
    """Records which entries were re-profiled; each costs ``cost``."""

    def __init__(self, cost=2.0):
        self.cost = cost
        self.calls = []

    def __call__(self, k):
        self.calls.append(k)
        return 100.0 + k, self.cost


def _raw(mean, ood=0.0):
    n = len(mean)
    return (np.asarray(mean, np.float32), np.zeros(n), np.full(n, ood))


# ------------------------------------------------------------------ resolve
class TestResolve:
    GRAPHS = [None] * 3

    def test_trusted_entries_keep_the_model_value(self):
        stats, reprofile = TrustStats(), Reprofiler()
        out = resolve(_raw([1.0, 2.0, 3.0]), self.GRAPHS,
                      Estimates([1.0, 2.0, 3.0]), ON, stats, reprofile)
        assert out == [1.0, 2.0, 3.0]
        assert stats.total == stats.trusted == 3
        assert reprofile.calls == []

    def test_budget_spent_in_entry_order_and_carried_across_calls(self):
        cfg = TrustConfig(enabled=True, budget=3.0)
        stats, reprofile = TrustStats(), Reprofiler(cost=2.0)
        # entry 0 is trusted; 1 and 2 are far out of bounds
        out = resolve(_raw([1.0, 1e3, 1e3]), self.GRAPHS,
                      Estimates([1.0, 1.0, 1.0]), cfg, stats, reprofile)
        assert out == [1.0, 101.0, 102.0]
        assert reprofile.calls == [1, 2]
        # 4.0 spent: the budget is checked before each re-profile, so
        # the last one may overrun it
        assert stats.budget_spent == 4.0
        # the next call shares the spent budget: analytical only
        out = resolve(_raw([1e3, 1e3, 1e3]), self.GRAPHS,
                      Estimates([5.0, 6.0, 7.0]), cfg, stats, reprofile)
        assert out == [5.0, 6.0, 7.0]
        assert reprofile.calls == [1, 2]
        assert (stats.escalated_profiled, stats.escalated_analytical) == (2, 3)
        assert stats.total == 6 and stats.out_of_bounds == 5

    @pytest.mark.parametrize("enabled", [True, False])
    def test_degraded_predictor_escalates_every_entry(self, enabled):
        cfg = TrustConfig(enabled=enabled, budget=3.0)
        stats, reprofile = TrustStats(), Reprofiler(cost=2.0)
        out = resolve(None, self.GRAPHS, Estimates([5.0, 6.0, 7.0]), cfg,
                      stats, reprofile)
        assert out == [100.0, 101.0, 7.0]
        assert reprofile.calls == [0, 1]
        assert (stats.escalated_profiled, stats.escalated_analytical) == (2, 1)
        assert stats.total == 0  # nothing was assessed

    def test_trust_off_passes_raw_means_and_records_nothing(self):
        class NoEstimates:
            def predict_graphs(self, graphs):
                raise AssertionError("trust off reads no estimate")

        cfg = TrustConfig(enabled=False, budget=1e9)
        stats, reprofile = TrustStats(), Reprofiler()
        mean = np.asarray([1e3, 0.5, float("nan")], np.float32)
        out = resolve((mean, np.ones(3), np.ones(3)), self.GRAPHS,
                      NoEstimates(), cfg, stats, reprofile)
        assert out[:2] == [float(mean[0]), float(mean[1])]
        assert np.isnan(out[2])
        assert stats == TrustStats()
        assert reprofile.calls == []


# -------------------------------------------------------------- fit_guarded
TRAIN = TrainConfig(epochs=3, patience=3, batch_size=8, seed=0)


class TestFitGuarded:
    @pytest.mark.parametrize("cfg,members", [
        (TrustConfig(enabled=False, ensemble_size=3), 1),
        (TrustConfig(enabled=True, ensemble_size=2), 2)])
    def test_member_count_follows_trust(self, tiny_corpus, mesh2, cfg,
                                        members):
        fitted = fit_guarded(tiny_corpus, mesh2.gpu, cfg, TRAIN, kind="gcn",
                             seed=0, n_val=0, jobs=1)
        assert len(fitted.ensemble.members) == members
        assert fitted.ensemble.feature_stats is not None
        # the analytical estimator is calibrated on every sample, in order
        ref = AnalyticalPredictor(mesh2.gpu)
        ref.fit(tiny_corpus, [])
        assert fitted.analytical.scale == ref.scale

    def test_every_member_diverged_returns_none(self, tiny_corpus, mesh2,
                                                monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "train_diverge:attempts=*")
        fitted = fit_guarded(tiny_corpus, mesh2.gpu, ON, TRAIN, kind="gcn",
                             seed=0, n_val=2, jobs=1)
        assert fitted.ensemble is None
        assert fitted.fit.degraded and fitted.fit.retrained == ON.ensemble_size
        assert fitted.analytical.fitted


# ---------------------------------------------------------- PredTOP, trusted
def _predtop(tiny_gpt, clustering, mesh, profiler, trust):
    cfg = PredTOPConfig(predictor_kind="gcn", sample_fraction=0.6,
                        train=TrainConfig(epochs=6, patience=6,
                                          batch_size=8),
                        seed=0, trust=trust)
    predtop = PredTOP(tiny_gpt, clustering, mesh, cfg, profiler=profiler)
    predtop.profiling_phase()
    predtop.training_phase()
    return predtop


@pytest.fixture
def make_predtop(tiny_gpt, tiny_gpt_clustering, mesh2, tiny_gpt_profiler):
    def make(trust):
        return _predtop(tiny_gpt, tiny_gpt_clustering, mesh2,
                        tiny_gpt_profiler, trust)
    return make


def _reference(predtop):
    """Per slice: (model mean, analytical estimate, exact re-profile)."""
    slices = [predtop.clustering.slice_range(i, j)
              for i in range(predtop.clustering.n_units)
              for j in range(i + 1, predtop.clustering.n_units + 1)]
    graphs = [predtop.profiler.predictor_graph(s, e) for s, e in slices]
    mean = (predtop.ensemble.predict_many(graphs)[0]
            if predtop.ensemble is not None else [None] * len(graphs))
    ana = predtop._analytical.predict_graphs(graphs)
    exact = [predtop.profiler.best_profile(s, e, predtop.mesh).latency
             for s, e in slices]
    return {sl: (None if m is None else float(m), float(a), x)
            for sl, m, a, x in zip(slices, mean, ana, exact)}


#: a tight uncertainty guard, so some entries of every fit are suspect
TIGHT = dict(enabled=True, ensemble_size=2, cv_threshold=0.05)


class TestPredTOPTrust:
    def test_budget_zero_escalates_suspects_to_analytical(self,
                                                          make_predtop):
        predtop = make_predtop(TrustConfig(**TIGHT))
        ref = _reference(predtop)
        profiling = predtop.costs.profiling_seconds
        preds = predtop.prediction_phase()
        stats = predtop.trust_stats
        assert stats.total == len(preds)
        assert 0 < stats.suspect
        assert stats.escalated_analytical == stats.suspect
        assert stats.escalated_profiled == 0 and stats.budget_spent == 0.0
        assert predtop.costs.profiling_seconds == profiling
        served = {"model": 0, "analytical": 0}
        for sl, value in preds.items():
            model, ana, _ = ref[sl]
            served["model" if value == model else "analytical"] += 1
            assert value in (model, ana)
        assert served["analytical"] == stats.suspect

    def test_budget_reprofiles_suspects(self, make_predtop):
        predtop = make_predtop(TrustConfig(**TIGHT, budget=1e9))
        ref = _reference(predtop)
        profiling = predtop.costs.profiling_seconds
        preds = predtop.prediction_phase()
        stats = predtop.trust_stats
        assert 0 < stats.suspect == stats.escalated_profiled
        assert stats.escalated_analytical == 0
        assert predtop.costs.profiling_seconds == pytest.approx(
            profiling + stats.budget_spent)
        exact = sum(preds[sl] == x for sl, (_, _, x) in ref.items())
        assert exact >= stats.suspect

    @pytest.mark.parametrize("budget", [0.0, 1e9])
    def test_degraded_predictor_follows_the_budget(self, make_predtop,
                                                   monkeypatch, budget):
        """Every member diverged: each stage is re-profiled within the
        budget, else served its analytical estimate — the rule the plan
        search applies."""
        monkeypatch.setenv("REPRO_FAULTS", "train_diverge:attempts=*")
        predtop = make_predtop(TrustConfig(**TIGHT, budget=budget))
        assert predtop.predictor is None and predtop.ensemble is None
        ref = _reference(predtop)
        preds = predtop.prediction_phase()
        stats = predtop.trust_stats
        assert stats.degraded == 1 and stats.total == 0
        pick = 2 if budget else 1
        assert preds == {sl: r[pick] for sl, r in ref.items()}
        assert stats.escalated_profiled == (len(preds) if budget else 0)
        assert stats.escalated_analytical == (0 if budget else len(preds))
