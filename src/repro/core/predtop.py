"""PredTOP: the gray-box latency prediction framework (§III & §VI).

Three phases, per the system workflow (Fig 7):

1. **Profiling** — sample stages of different sizes, run the intra-op
   optimizer on each, and profile them on each mesh
   (:meth:`PredTOP.profiling_phase`);
2. **Training** — build stage DAGs, train one DAG Transformer per
   (mesh, configuration) on the profiled latencies
   (:meth:`PredTOP.training_phase`);
3. **Prediction** — predict the optimal intra-stage latency of *all*
   candidate stages on the mesh (:meth:`PredTOP.prediction_phase`), then
   combine with the white-box pipeline model (Eqn 4) for end-to-end
   iteration latency (:meth:`PredTOP.predict_iteration_latency`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cluster.mesh import DeviceMesh
from ..models.clustering import Clustering
from ..models.model import Model
from ..predictors.analytical import AnalyticalPredictor
from ..predictors.base import LatencyPredictor
from ..predictors.dataset import StageSample
from ..predictors.trainer import TrainConfig
from ..predictors.trust import (EnsemblePredictor, TrustConfig, TrustStats,
                                fit_guarded, resolve)
from ..runtime.profiler import ProfiledStage, StageProfiler
from ..runtime.schedules import get_schedule
from .sampling import stratified_sample


@dataclass
class PredTOPConfig:
    """Framework knobs (§VI defaults)."""

    predictor_kind: str = "dag_transformer"
    #: fraction of candidate stages profiled for training
    sample_fraction: float = 0.3
    val_fraction: float = 0.1
    train: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0
    #: persist training state here after every epoch (atomic ``.npz``);
    #: with ``resume`` set, an interrupted training phase picks up from
    #: the checkpoint and reproduces the uninterrupted run bit-for-bit
    checkpoint_path: str | None = None
    resume: bool = False
    #: gray-box trust layer knobs (defaults read ``REPRO_TRUST_*``;
    #: disabled unless ``REPRO_TRUST`` is set)
    trust: TrustConfig = field(default_factory=TrustConfig.from_env)


@dataclass
class PhaseCosts:
    """Cost bookkeeping across the three phases.

    Profiling cost is in *simulated* seconds (the substituted testbed's
    compile + measure time); training and inference costs are real wall
    seconds of the predictor stack, which is the same machine class the
    paper trains on.
    """

    profiling_seconds: float = 0.0
    training_seconds: float = 0.0
    inference_seconds: float = 0.0

    @property
    def total(self) -> float:
        return self.profiling_seconds + self.training_seconds + self.inference_seconds


class PredTOP:
    """Latency predictor for one model on one mesh."""

    def __init__(
        self,
        model: Model,
        clustering: Clustering,
        mesh: DeviceMesh,
        config: PredTOPConfig | None = None,
        profiler: StageProfiler | None = None,
    ) -> None:
        self.model = model
        self.clustering = clustering
        self.mesh = mesh
        self.config = config or PredTOPConfig()
        self.profiler = profiler or StageProfiler(model)
        self.costs = PhaseCosts()
        self.predictor: LatencyPredictor | None = None
        self.ensemble: EnsemblePredictor | None = None
        #: guard/escalation accounting across the prediction phase
        self.trust_stats = TrustStats()
        #: calibrated analytical predictor; the fallback when the whole
        #: learned predictor degrades, the bounds oracle otherwise
        self._analytical: AnalyticalPredictor | None = None
        self._profiled: list[ProfiledStage] = []

    # ------------------------------------------------------------- phase 1
    def profiling_phase(
        self,
        dp: int | None = None,
        mp: int | None = None,
    ) -> list[ProfiledStage]:
        """Profile a stratified sample of stages on the mesh.

        With explicit ``(dp, mp)`` the measurement fixes that Table-III
        configuration; otherwise each stage is profiled across all logical
        views and the *optimal* latency is kept (what Alpa's intra-op
        compiler would emit, §III).
        """
        from ..experiments.engine import parallel_map

        slices = stratified_sample(self.clustering.all_slices(),
                                   self.config.sample_fraction,
                                   self.config.seed)
        # independent measurements fan out across the engine's workers
        # (serial when REPRO_JOBS=1); priming the profiler's memo keeps
        # later in-process lookups of the same stages free
        self._profiled = parallel_map(
            lambda se: self._measure(se[0], se[1], dp, mp), slices)
        for p in self._profiled:
            self.profiler.prime(p)
        self.costs.profiling_seconds += sum(p.profiling_cost
                                            for p in self._profiled)
        return self._profiled

    def _measure(self, s: int, e: int, dp: int | None,
                 mp: int | None) -> ProfiledStage:
        if dp is not None and mp is not None:
            return self.profiler.profile_stage(s, e, self.mesh, dp, mp)
        return self.profiler.best_profile(s, e, self.mesh)

    # ------------------------------------------------------------- phase 2
    def training_phase(self) -> LatencyPredictor | None:
        """Train the predictor (ensemble) on the profiled sample.

        With trust enabled this fits a deep ensemble of
        ``config.trust.ensemble_size`` members (member 0 bit-identical
        to the plain single fit); a fit that diverges is retrained once
        with a fresh seed.  If *every* member diverges the framework
        degrades: ``predictor`` stays ``None`` and the prediction phase
        escalates every stage instead of crashing.
        """
        if not self._profiled:
            raise RuntimeError("run profiling_phase first")
        samples = [StageSample(p.graph, p.latency, p.stage_id)
                   for p in self._profiled]
        if len(samples) < 3:
            raise RuntimeError("need at least 3 profiled stages to train")
        # the held-out slice only stops training early: accuracy
        # evaluation lives in the experiments layer
        self.ensemble, self._analytical, fit = fit_guarded(
            samples, self.mesh.gpu, self.config.trust, self.config.train,
            kind=self.config.predictor_kind, seed=self.config.seed,
            n_val=round(self.config.val_fraction * len(samples)),
            checkpoint_path=self.config.checkpoint_path,
            resume=self.config.resume)
        self.costs.training_seconds += fit.wall_seconds
        self.trust_stats.retrained += fit.retrained
        self.trust_stats.degraded += fit.degraded
        self.predictor = (None if self.ensemble is None
                          else self.ensemble.members[0])
        return self.predictor

    # ------------------------------------------------------------- phase 3
    def prediction_phase(
        self,
        slices: list[tuple[int, int]] | None = None,
        microbatch: int | None = None,
    ) -> dict[tuple[int, int], float]:
        """Predict optimal stage latency for all (or given) slices.

        With trust enabled each prediction passes the uncertainty /
        OOD / physical-bounds guards (:func:`~repro.predictors.trust.
        resolve`).  Suspect entries, and every entry of a fully degraded
        predictor (every ensemble member diverged, trust on or off),
        are re-profiled while ``trust.budget`` lasts, then replaced by
        the calibrated analytical estimate.  The budget is shared by
        every call on this instance.
        """
        if self._analytical is None:
            raise RuntimeError("run training_phase first")
        slices = slices or [self.clustering.slice_range(i, j)
                            for i in range(self.clustering.n_units)
                            for j in range(i + 1, self.clustering.n_units + 1)]
        t0 = time.perf_counter()
        graphs = [self.profiler.predictor_graph(s, e, microbatch)
                  for (s, e) in slices]

        def reprofile(k: int) -> tuple[float, float]:
            p = self._measure(*slices[k], None, None)
            self.costs.profiling_seconds += p.profiling_cost
            return p.latency, p.profiling_cost

        raw = (None if self.ensemble is None
               else self.ensemble.predict_many(graphs))
        preds = resolve(raw, graphs, self._analytical, self.config.trust,
                        self.trust_stats, reprofile)
        self.costs.inference_seconds += time.perf_counter() - t0
        return dict(zip(slices, preds))

    # ------------------------------------------------------------ white box
    @staticmethod
    def predict_iteration_latency(stage_latencies: list[float],
                                  n_microbatches: int,
                                  schedule: str = "1f1b") -> float:
        """Gray-box composition: the schedule's closed form over predicted
        stage latencies (Eqn 4 for the default 1F1B)."""
        return get_schedule(schedule).closed_form(stage_latencies,
                                                  n_microbatches)

    # ---------------------------------------------------------- convenience
    def run_all_phases(self, dp: int | None = None, mp: int | None = None,
                       ) -> dict[tuple[int, int], float]:
        """Profile, train, and predict every candidate stage."""
        self.profiling_phase(dp, mp)
        self.training_phase()
        return self.prediction_phase()
