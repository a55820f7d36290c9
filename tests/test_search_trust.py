"""Chaos + trust tests for the guarded PredTOP plan search.

The acceptance scenario of the trust layer: with a lying predictor
(``predict_garbage``), a throwing predictor (``predictor_error``), and a
diverging trainer (``train_diverge``) injected, ``search_predtop`` must
finish without an exception, record its degradations, and — with the
escalation budget available — select a plan whose *simulated* latency is
within 5 % of the fault-free run's plan.
"""

import numpy as np
import pytest

from repro.cluster.platforms import get_platform
from repro.core.search import PlanSearcher
from repro.predictors.trainer import TrainConfig
from repro.predictors.trust import TrustConfig

PLATFORM2 = get_platform("platform2")

#: aggressive guarding + effectively unlimited re-profiling budget
CHAOS_TRUST = TrustConfig(enabled=True, ensemble_size=2, budget=1e9)


def make_searcher(tiny_gpt, tiny_gpt_clustering, tiny_gpt_profiler,
                  trust=None, jobs=1):
    return PlanSearcher(
        tiny_gpt, tiny_gpt_clustering, PLATFORM2.cluster(),
        n_microbatches=4,
        profiler=tiny_gpt_profiler,
        sample_fraction=0.5,
        train_config=TrainConfig(epochs=6, patience=6, batch_size=8),
        seed=0,
        jobs=jobs,
        trust=trust,
    )


@pytest.fixture(scope="module")
def clean_result(tiny_gpt, tiny_gpt_clustering, tiny_gpt_profiler):
    """Fault-free baseline (trust disabled: the unguarded fast path)."""
    searcher = make_searcher(tiny_gpt, tiny_gpt_clustering,
                             tiny_gpt_profiler, trust=TrustConfig())
    return searcher.search_predtop("gcn")


class TestCleanPath:
    def test_trust_stats_attached_but_empty(self, clean_result):
        assert clean_result.trust is not None
        assert clean_result.trust.total == 0  # guards off: nothing assessed
        assert clean_result.trust.degraded == 0
        assert clean_result.degradations == []

    def test_trust_enabled_keeps_plan_quality(self, tiny_gpt,
                                              tiny_gpt_clustering,
                                              tiny_gpt_profiler,
                                              clean_result):
        searcher = make_searcher(tiny_gpt, tiny_gpt_clustering,
                                 tiny_gpt_profiler, trust=CHAOS_TRUST)
        r = searcher.search_predtop("gcn")
        assert r.trust.total > 0  # every predicted entry was assessed
        assert r.true_iteration_latency <= clean_result.true_iteration_latency * 1.05


class TestWorkerCounts:
    def test_parallel_search_commits_the_serial_plan(
            self, tiny_gpt, tiny_gpt_clustering, tiny_gpt_profiler,
            monkeypatch):
        """``REPRO_JOBS`` sets the workers of every sweep a search fans
        out, the ensemble member fits included (``jobs`` alone leaves
        those on ``REPRO_JOBS``); the worker count never changes the
        answer."""
        trust = TrustConfig(enabled=True, ensemble_size=2)

        def search(workers):
            monkeypatch.setenv("REPRO_JOBS", str(workers))
            r = make_searcher(tiny_gpt, tiny_gpt_clustering,
                              tiny_gpt_profiler, trust=trust,
                              jobs=None).search_predtop("gcn")
            return (tuple((st.layer_range, st.submesh.key())
                          for st in r.plan.stages),
                    r.true_iteration_latency, r.n_table_entries,
                    r.trust.as_dict())

        assert search(2) == search(1)


class TestChaosSearch:
    FAULTS = ("predict_garbage:at=0,attempts=*;"
              "predictor_error:at=1;"
              "train_diverge:at=1")

    def test_survives_predictor_faults_within_5pct(
            self, tiny_gpt, tiny_gpt_clustering, tiny_gpt_profiler,
            clean_result, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", self.FAULTS)
        searcher = make_searcher(tiny_gpt, tiny_gpt_clustering,
                                 tiny_gpt_profiler, trust=CHAOS_TRUST)
        r = searcher.search_predtop("gcn")
        # the search completed and the plan is feasible
        assert r.plan.feasible
        # the throwing predictor degraded one submesh, and it is recorded
        assert any("predictor error" in d or "InjectedFault" in d
                   for d in r.degradations)
        assert r.trust.degraded >= 1
        # the garbage submesh's entries were caught by the guards and
        # escalated (bounds violations at x1000 / /1000 cannot be missed)
        assert r.trust.out_of_bounds + r.trust.escalated_profiled > 0
        # with budget available, escalation re-profiles suspect entries
        assert r.trust.escalated_profiled > 0
        assert r.trust.budget_spent > 0
        # acceptance criterion: simulated plan latency within 5% of clean
        assert (r.true_iteration_latency
                <= clean_result.true_iteration_latency * 1.05)

    def test_garbage_without_trust_is_survivable_but_worse(
            self, tiny_gpt, tiny_gpt_clustering, tiny_gpt_profiler,
            monkeypatch):
        # guards off: the search still completes (robustness floor) even
        # though every submesh's predictions are scrambled
        monkeypatch.setenv("REPRO_FAULTS", "predict_garbage:attempts=*")
        searcher = make_searcher(tiny_gpt, tiny_gpt_clustering,
                                 tiny_gpt_profiler, trust=TrustConfig())
        r = searcher.search_predtop("gcn")
        assert r.plan.feasible
        assert np.isfinite(r.true_iteration_latency)

    def test_train_divergence_retrains_then_degrades(
            self, tiny_gpt, tiny_gpt_clustering, tiny_gpt_profiler,
            monkeypatch):
        # transient divergence: one fresh-seed retraining absorbs it
        monkeypatch.setenv("REPRO_FAULTS", "train_diverge:at=1")
        searcher = make_searcher(tiny_gpt, tiny_gpt_clustering,
                                 tiny_gpt_profiler, trust=TrustConfig())
        r = searcher.search_predtop("gcn")
        assert r.trust.retrained > 0
        assert r.trust.degraded == 0 and r.plan.feasible

        # persistent divergence: retraining fails too -> the submesh
        # degrades to the analytical fallback, search still completes
        monkeypatch.setenv("REPRO_FAULTS", "train_diverge:at=1,attempts=*")
        searcher = make_searcher(tiny_gpt, tiny_gpt_clustering,
                                 tiny_gpt_profiler, trust=TrustConfig())
        r = searcher.search_predtop("gcn")
        assert r.trust.degraded > 0
        assert any("diverged" in d for d in r.degradations)
        assert r.plan.feasible
        assert np.isfinite(r.true_iteration_latency)
