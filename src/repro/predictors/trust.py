"""Gray-box trust layer: guarded stage-latency predictions.

PredTOP replaces exhaustive stage profiling with black-box predictions
inside the plan search — which is only sound while those predictions are
*detectably* good.  This module turns every raw prediction into a guarded
one:

* **uncertainty** — a small deep ensemble (:class:`EnsemblePredictor`:
  K independently-seeded fits of the same architecture) whose spread
  flags predictions the model family itself cannot agree on;
* **OOD detection** — per-feature ranges of the training corpus are
  recorded at fit time (:class:`FeatureStats`); a query graph whose node
  features fall outside those ranges is outside the sampled training
  distribution and its prediction is suspect regardless of confidence;
* **physical-bounds guards** — the calibrated roofline sum from
  :mod:`repro.predictors.analytical` bounds any physically plausible
  stage latency to ``[analytical/α, analytical·α]``; predictions outside
  the envelope are clamped and flagged (:func:`assess`);
* **escalation bookkeeping** — :class:`TrustStats` records every
  decision so search results and ``repro bench report`` can show how
  often the model was trusted, clamped, or escalated to the analytical
  predictor / re-profiling.

The layer is opt-in (``REPRO_TRUST=1``; :meth:`TrustConfig.from_env`).
With it disabled — the default — the prediction path is bit-identical to
the unguarded one, and an ensemble of size 1 *is* the plain single
predictor (member 0 always uses the caller's exact seed and config).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ..env import env_setting, flag
from ..ir.graph import Graph
from .base import LatencyPredictor, build_model
from .dataset import Normalizer, StageSample
from .encoding_cache import cached_encoding
from .trainer import TrainConfig, TrainResult

#: physical-bounds envelope factor: ground truth stays within this factor
#: of the calibrated analytical estimate across the fast-profile corpus
#: (pinned by ``tests/test_analytical_bounds.py``)
DEFAULT_ALPHA = 8.0

#: seed offset for retraining after a detected divergence ("fresh seed")
RETRY_SEED_OFFSET = 1009

#: verdicts :func:`assess` can reach, most severe first
VERDICTS = ("invalid", "ood", "uncertain", "out_of_bounds", "trusted")


@dataclass(frozen=True)
class TrustConfig:
    """Knobs of the trust layer (all overridable via ``REPRO_TRUST_*``)."""

    #: guard predictions at all (``REPRO_TRUST``); disabled keeps the
    #: prediction path bit-identical to the unguarded implementation
    enabled: bool = False
    #: deep-ensemble size K (``REPRO_TRUST_ENSEMBLE``)
    ensemble_size: int = 3
    #: physical-bounds envelope factor α (``REPRO_TRUST_ALPHA``)
    alpha: float = DEFAULT_ALPHA
    #: suspect when ensemble std exceeds this fraction of the mean
    #: (``REPRO_TRUST_CV``)
    cv_threshold: float = 0.5
    #: suspect when this fraction of feature values is out of the
    #: training ranges (``REPRO_TRUST_OOD``)
    ood_threshold: float = 0.25
    #: simulated profiling seconds the escalation policy may spend
    #: re-profiling suspect predictions (``REPRO_TRUST_BUDGET``; 0 =
    #: suspect predictions fall back to the analytical estimate only)
    budget: float = 0.0

    def __post_init__(self) -> None:
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        if self.alpha <= 1.0:
            raise ValueError("alpha must be > 1 (a multiplicative envelope)")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")

    @staticmethod
    def from_env() -> "TrustConfig":
        return TrustConfig(
            enabled=env_setting("REPRO_TRUST", False, flag),
            ensemble_size=max(1, int(env_setting("REPRO_TRUST_ENSEMBLE",
                                                 3))),
            alpha=env_setting("REPRO_TRUST_ALPHA", DEFAULT_ALPHA),
            cv_threshold=env_setting("REPRO_TRUST_CV", 0.5),
            ood_threshold=env_setting("REPRO_TRUST_OOD", 0.25),
            budget=env_setting("REPRO_TRUST_BUDGET", 0.0),
        )


# ------------------------------------------------------------ OOD detection
@dataclass
class FeatureStats:
    """Per-feature ranges of the training corpus, recorded at fit time."""

    lo: np.ndarray
    hi: np.ndarray
    n_nodes_lo: int
    n_nodes_hi: int
    #: tolerance widening each range by this fraction of its span
    margin: float = 0.1

    @staticmethod
    def fit(graphs: list[Graph], margin: float = 0.1) -> "FeatureStats":
        if not graphs:
            raise ValueError("cannot record feature stats of an empty corpus")
        # raw (float64) features through the shared encoding cache — the
        # same graphs are encoded again for training right after this
        stacked = np.concatenate([cached_encoding(g).raw_features
                                  for g in graphs], axis=0)
        sizes = [len(g) for g in graphs]
        return FeatureStats(stacked.min(axis=0), stacked.max(axis=0),
                            min(sizes), max(sizes), margin)

    def ood_score(self, graph: Graph) -> float:
        """Fraction of the graph's nodes with any feature value outside
        the recorded ranges (1.0 when the graph size itself is far out
        of range).

        Aggregating per *node* rather than per value matters: most
        feature dimensions are one-hot or zero for most nodes, so a
        graph full of alien operators would still have a tiny fraction
        of out-of-range *values* — but every one of its nodes trips at
        least one dimension.
        """
        n = len(graph)
        if n == 0:
            return 1.0
        if n < self.n_nodes_lo / 2 or n > self.n_nodes_hi * 2:
            return 1.0
        feats = cached_encoding(graph).raw_features
        tol = self.margin * (self.hi - self.lo) + 1e-9
        outside = (feats < self.lo - tol) | (feats > self.hi + tol)
        return float(outside.any(axis=1).mean())

    def ood_scores(self, graphs: list[Graph]) -> np.ndarray:
        """Vector of :meth:`ood_score` over a list of query graphs."""
        return np.array([self.ood_score(g) for g in graphs], np.float64)


# ---------------------------------------------------------------- ensembles
def _normalizers_equal(a: Normalizer | None, b: Normalizer | None) -> bool:
    """Value equality of two fitted normalizers (shared-batch precondition)."""
    return (a is not None and b is not None
            and a.target_transform == b.target_transform
            and a.target_scale == b.target_scale
            and a.target_shift == b.target_shift
            and np.array_equal(a.feat_mean, b.feat_mean)
            and np.array_equal(a.feat_std, b.feat_std))


@dataclass
class EnsembleFitResult:
    """Bookkeeping of one ensemble fit."""

    results: list[TrainResult] = field(default_factory=list)
    #: members whose first fit diverged and were refit with a fresh seed
    retrained: int = 0
    #: members dropped because the retrained fit diverged too
    dropped: int = 0

    @property
    def wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.results)

    @property
    def degraded(self) -> bool:
        """True when no healthy member survived — callers must fall back
        to the analytical predictor."""
        return self.dropped >= len(self.results) and bool(self.results)


class EnsemblePredictor:
    """K independently-seeded :class:`LatencyPredictor` fits.

    Member ``i`` uses model seed ``seed + i`` and training seed
    ``cfg.seed + i``; member 0 therefore reproduces a plain single
    predictor bit-for-bit, so an ensemble of size 1 is a zero-cost
    drop-in.  Fits reuse the trainer's checkpoint/resume machinery —
    member ``i`` checkpoints to ``<path>.k<i>`` — so interrupted
    ensembles resume bit-reproducibly.

    A member whose training diverges (non-finite loss) is refit once
    with a fresh seed (``+ RETRY_SEED_OFFSET``); if that fit diverges
    too the member is dropped from the ensemble.
    """

    def __init__(self, kind: str = "dag_transformer", seed: int = 0,
                 size: int = 3) -> None:
        if size < 1:
            raise ValueError("ensemble size must be >= 1")
        self.kind = kind
        self.seed = seed
        self.size = size
        self.members: list[LatencyPredictor] = []
        self.feature_stats: FeatureStats | None = None
        self.fit_result: EnsembleFitResult | None = None

    @classmethod
    def from_members(cls, members: list[LatencyPredictor],
                     feature_stats: FeatureStats | None = None,
                     ) -> "EnsemblePredictor":
        """Wrap already-fitted predictors (e.g. loaded checkpoints) into
        an ensemble — the serving daemon's load path.

        The members must be fitted; ``feature_stats`` (for OOD scoring)
        can be recorded separately from any representative corpus.
        """
        if not members:
            raise ValueError("need at least one fitted member")
        for m in members:
            if m.model is None or m.normalizer is None:
                raise ValueError("every ensemble member must be fitted")
        out = cls(members[0].kind, seed=members[0].seed, size=len(members))
        out.members = list(members)
        out.feature_stats = feature_stats
        return out

    def fit(
        self,
        train: list[StageSample],
        val: list[StageSample],
        cfg: TrainConfig | None = None,
        *,
        checkpoint_path: str | None = None,
        resume: bool = False,
        retrain_on_divergence: bool = True,
        jobs: int | None = None,
    ) -> EnsembleFitResult:
        """Fit all K members, fanned across the engine's worker pool.

        Members are seeded independently and trained in isolation, so
        the fan-out is bit-identical to the serial loop; ``jobs``
        defaults to the engine's ``REPRO_JOBS`` resolution (serial for
        one member, inside a worker, or when ``REPRO_JOBS=1``).  The
        serial path runs fully in-process and keeps the live fitted
        members — no pool, no state-dict round-trip — so a 1-core
        ensemble fit costs exactly K single-predictor fits.
        """
        from ..experiments.engine import n_jobs, parallel_map

        cfg = cfg or TrainConfig(seed=self.seed)
        self.feature_stats = FeatureStats.fit(
            [s.graph for s in list(train) + list(val)])
        # warm every shared encoding once in the parent so forked member
        # fits inherit them instead of recomputing K times
        for s in list(train) + list(val):
            s.encode()
            s.sparse_adj()

        eff_jobs = n_jobs() if jobs is None else max(1, jobs)
        serial = min(eff_jobs, self.size) <= 1

        def _fit_member(i: int):
            member = LatencyPredictor(self.kind, seed=self.seed + i)
            # member 0 keeps the caller's exact seed, config, and
            # checkpoint path, so a size-1 ensemble IS the plain
            # single-predictor fit, resumable from the same file
            mcfg = cfg if i == 0 else replace(cfg, seed=cfg.seed + i)
            mpath = (checkpoint_path if i == 0 or checkpoint_path is None
                     else f"{checkpoint_path}.k{i}")
            result = member.fit(train, val, mcfg, checkpoint_path=mpath,
                                resume=resume)
            retrained = 0
            if result.diverged and retrain_on_divergence:
                retrained = 1
                member = LatencyPredictor(
                    self.kind, seed=self.seed + i + RETRY_SEED_OFFSET)
                retry_path = None if mpath is None else f"{mpath}.retry"
                retry_cfg = replace(mcfg, seed=mcfg.seed + RETRY_SEED_OFFSET)
                retry = member.fit(train, val, retry_cfg,
                                   checkpoint_path=retry_path, resume=resume,
                                   fault_attempt=1)
                retry.wall_seconds += result.wall_seconds
                result = retry
            if result.diverged:
                return None, result, retrained
            if serial:
                # in-process: the live member is the product, as-is
                member.train_result = result
                return member, result, retrained
            # workers return plain picklable state (Tensor closures are
            # not); the parent reconstructs the member deterministically
            state = (member.seed, member.model.state_dict(),
                     member.normalizer)
            return state, result, retrained

        if serial:
            fitted = [_fit_member(i) for i in range(self.size)]
        else:
            fitted = parallel_map(_fit_member, list(range(self.size)),
                                  eff_jobs)
        out = EnsembleFitResult()
        self.members = []
        for payload, result, retrained in fitted:
            out.retrained += retrained
            if payload is None:
                out.dropped += 1
            elif isinstance(payload, LatencyPredictor):
                self.members.append(payload)
            else:
                seed, weights, normalizer = payload
                member = LatencyPredictor(self.kind, seed=seed)
                member.normalizer = normalizer
                member.model = build_model(self.kind, seed=seed)
                member.model.load_state_dict(weights)
                member.train_result = result
                self.members.append(member)
            out.results.append(result)
        self.fit_result = out
        return out

    def predict_graphs(self, graphs: list[Graph]
                       ) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) of the healthy members' predictions, in seconds."""
        preds = self._member_predictions(graphs)
        return preds.mean(axis=0), preds.std(axis=0)

    def predict_many(self, graphs: list[Graph]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(mean, std, ood) for all pending graphs in one batched pass.

        Batch construction is shared across members (their normalizers
        are value-identical — deterministic fits on the same train
        split), so the padded batches are built once instead of K times;
        predictions are bit-identical to per-member
        :meth:`predict_graphs`.  OOD scores reuse the cached encodings.
        """
        preds = self._member_predictions(graphs)
        ood = (self.feature_stats.ood_scores(graphs)
               if self.feature_stats is not None
               else np.zeros(len(graphs)))
        return preds.mean(axis=0), preds.std(axis=0), ood

    def _member_predictions(self, graphs: list[Graph]) -> np.ndarray:
        """(K, n) member predictions with one shared batch construction."""
        if not self.members:
            raise RuntimeError(
                "ensemble has no healthy members (not fitted, or every "
                "member diverged — fall back to the analytical predictor)")
        first = self.members[0]
        if not graphs or any(not _normalizers_equal(first.normalizer,
                                                    m.normalizer)
                             for m in self.members[1:]):
            # hand-built members with differing normalizers (or nothing
            # to predict): the per-member path is the oracle
            return np.stack([m.predict_graphs(graphs)
                             for m in self.members])
        samples = [StageSample(g, latency=1.0) for g in graphs]
        order, batches = first._ordered_batches(samples, 32)
        idx = np.asarray(order)
        rows = []
        for m in self.members:
            flat = m._forward_batches(batches)
            row = np.empty(len(samples), np.float32)
            row[idx] = flat
            rows.append(np.maximum(row, 1e-6))
        return np.stack(rows)


# ------------------------------------------------------------------- guards
@dataclass(frozen=True)
class GuardedPrediction:
    """One prediction after the uncertainty / OOD / bounds guards."""

    #: guard-adjusted value (clamped into the envelope when flagged)
    value: float
    #: the raw ensemble mean
    raw: float
    #: ensemble standard deviation
    std: float
    #: OOD score of the query graph in [0, 1]
    ood: float
    #: physical-bounds envelope [lower, upper]
    lower: float
    upper: float
    #: one of :data:`VERDICTS`
    verdict: str

    @property
    def trusted(self) -> bool:
        return self.verdict == "trusted"


def assess(raw: float, std: float, ood: float, analytical: float,
           cfg: TrustConfig) -> GuardedPrediction:
    """Run one raw prediction through the three guards.

    Severity order: a non-finite/non-positive value is ``invalid``; an
    out-of-distribution query is ``ood``; an ensemble that cannot agree
    is ``uncertain``; a value outside the physical envelope is
    ``out_of_bounds``; everything else is ``trusted``.  Flagged values
    are clamped into ``[analytical/α, analytical·α]`` so even a caller
    without an escalation path never consumes a physically impossible
    number.
    """
    lower = analytical / cfg.alpha
    upper = analytical * cfg.alpha
    raw_f = float(raw)
    finite = math.isfinite(raw_f) and raw_f > 0.0
    if not finite:
        verdict = "invalid"
    elif ood > cfg.ood_threshold:
        verdict = "ood"
    elif std > cfg.cv_threshold * raw_f:
        verdict = "uncertain"
    elif not (lower <= raw_f <= upper):
        verdict = "out_of_bounds"
    else:
        verdict = "trusted"
    if verdict == "trusted":
        value = raw_f
    else:
        value = min(max(raw_f if finite else analytical, lower), upper)
    return GuardedPrediction(value, raw_f, float(std), float(ood),
                             lower, upper, verdict)


# ------------------------------------------------------------------- stats
@dataclass
class TrustStats:
    """Decision accounting for one guarded prediction pass."""

    total: int = 0
    trusted: int = 0
    invalid: int = 0
    ood: int = 0
    uncertain: int = 0
    out_of_bounds: int = 0
    #: suspect predictions replaced by an exact re-profile
    escalated_profiled: int = 0
    #: suspect predictions replaced by the analytical estimate
    escalated_analytical: int = 0
    #: diverged fits retrained with a fresh seed
    retrained: int = 0
    #: predictors that failed wholesale (threw, or diverged twice) and
    #: were replaced by the analytical predictor
    degraded: int = 0
    #: simulated profiling seconds spent by the escalation policy
    budget_spent: float = 0.0

    def record(self, guarded: GuardedPrediction) -> None:
        self.total += 1
        setattr(self, guarded.verdict,
                getattr(self, guarded.verdict) + 1)

    @property
    def suspect(self) -> int:
        return self.invalid + self.ood + self.uncertain + self.out_of_bounds

    def merge(self, other: "TrustStats") -> None:
        for f in ("total", "trusted", "invalid", "ood", "uncertain",
                  "out_of_bounds", "escalated_profiled",
                  "escalated_analytical", "retrained", "degraded"):
            setattr(self, f, getattr(self, f) + getattr(other, f))
        self.budget_spent += other.budget_spent

    def as_dict(self) -> dict:
        return {
            "total": self.total, "trusted": self.trusted,
            "invalid": self.invalid, "ood": self.ood,
            "uncertain": self.uncertain,
            "out_of_bounds": self.out_of_bounds,
            "escalated_profiled": self.escalated_profiled,
            "escalated_analytical": self.escalated_analytical,
            "retrained": self.retrained, "degraded": self.degraded,
            "budget_spent": round(self.budget_spent, 3),
        }

    def summary(self) -> str:
        if self.total == 0 and not (self.degraded or self.retrained):
            return "trust: no guarded predictions"
        return (f"trust: {self.trusted}/{self.total} trusted, "
                f"{self.suspect} suspect "
                f"(invalid {self.invalid}, ood {self.ood}, "
                f"uncertain {self.uncertain}, "
                f"out-of-bounds {self.out_of_bounds}); "
                f"escalated {self.escalated_profiled} profiled / "
                f"{self.escalated_analytical} analytical "
                f"({self.budget_spent:.1f}s budget), "
                f"{self.retrained} retrained, {self.degraded} degraded")
