"""The daemon's predictor runtime: one loaded model family + mesh.

Built once at startup (``repro serve``), then shared by every request
thread.  It owns:

* the benchmark **model / clustering / profiler** the service answers
  questions about;
* a fitted **ensemble** — loaded from ``--checkpoint`` files or fitted
  in-process from a profiled startup corpus — guarded by the PR-4 trust
  layer (:func:`repro.predictors.trust.assess`);
* the calibrated **analytical estimator**, which is both the trust
  layer's bounds oracle and the degradation path the circuit breaker
  flips to;
* **fault hooks** (``predictor_error`` / ``predict_garbage``) keyed on a
  model-call counter, so chaos specs deterministically poison the model
  path of a serial request stream;
* a **model lock** — the nn forward stack and ensemble bookkeeping are
  not reentrant, so model-path calls serialize; the analytical path is
  lock-free and stays fast under degradation (exactly when it matters).

Request-shaped helpers (:meth:`PredictorRuntime.resolve_graphs`,
:meth:`whatif`, :meth:`evaluate_candidate`) raise
:class:`~repro.serving.protocol.ProtocolError` on bad parameters so the
server can answer rather than crash.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..cluster.mesh import DeviceMesh
from ..cluster.platforms import MESH_CONFIGS, PLATFORMS, get_platform
from ..core.sampling import stratified_sample
from ..ir.graph import Graph
from ..ir.serialize import canonical_hash, graph_from_dict
from ..memo import fork_safe_lock
from ..models.clustering import Clustering, cluster_layers
from ..models.configs import BENCHMARKS, benchmark_config
from ..models.model import build_model
from ..predictors.analytical import AnalyticalPredictor
from ..predictors.dataset import StageSample
from ..predictors.serialize import load_predictor
from ..predictors.trainer import TrainConfig
from ..predictors.trust import (EnsemblePredictor, FeatureStats, TrustConfig,
                                assess)
from ..runtime.profiler import StageProfiler
from ..runtime.schedules import get_schedule, schedule_names
from .protocol import ProtocolError

#: upper bound on graphs per predict_many / whatif / search candidate
MAX_BATCH_GRAPHS = 64


@dataclass(frozen=True)
class RuntimeConfig:
    """What the daemon loads and how (CLI flags map 1:1)."""

    family: str = "gpt"
    layers: int = 2
    platform: str = "platform2"
    mesh: int = 2
    units: int = 4
    seed: int = 0
    predictor: str = "dag_transformer"
    sample_fraction: float = 0.5
    #: startup-fit epochs (ignored when checkpoints are given)
    epochs: int = 8
    checkpoints: tuple[str, ...] = ()
    trust: TrustConfig = field(default_factory=lambda: TrustConfig(
        enabled=True, ensemble_size=1))
    schedule: str = "1f1b"

    def __post_init__(self) -> None:
        if self.family not in BENCHMARKS:
            raise ValueError(f"unknown family {self.family!r}")
        if self.platform not in PLATFORMS:
            raise ValueError(f"unknown platform {self.platform!r}")
        if self.mesh not in MESH_CONFIGS:
            raise ValueError(f"unknown mesh config {self.mesh!r}")


class PredictorRuntime:
    """Loaded-once prediction state shared by all request threads."""

    def __init__(
        self,
        model,
        clustering: Clustering,
        profiler: StageProfiler,
        mesh: DeviceMesh,
        ensemble: EnsemblePredictor | None,
        analytical: AnalyticalPredictor,
        trust: TrustConfig,
        config: RuntimeConfig,
    ) -> None:
        self.model = model
        self.clustering = clustering
        self.profiler = profiler
        self.mesh = mesh
        self.ensemble = ensemble
        self.analytical = analytical
        self.trust = trust
        self.config = config
        self.model_lock = fork_safe_lock(threading.RLock)
        self._model_calls = 0
        #: bumped on every ensemble reload; cache keys embed it so a
        #: hot-swapped model invalidates cached search answers for free
        self.generation = 0
        self._structural_hash: str | None = None

    # --------------------------------------------------------------- build
    @classmethod
    def build(cls, cfg: RuntimeConfig) -> "PredictorRuntime":
        """Profile the startup corpus, then load or fit the ensemble.

        The corpus (a stratified sample of the clustering's stage
        slices, each profiled at its optimal logical view) calibrates
        the analytical estimator and records the OOD feature ranges;
        without ``checkpoints`` it also trains the serving ensemble.
        """
        model = build_model(benchmark_config(cfg.family, cfg.layers or None))
        clustering = cluster_layers(model, cfg.units)
        profiler = StageProfiler(model, aggressive_fusion=True)
        mesh = get_platform(cfg.platform).mesh(cfg.mesh)

        slices = stratified_sample(clustering.all_slices(),
                                   cfg.sample_fraction, cfg.seed)
        profiled = [profiler.best_profile(s, e, mesh) for s, e in slices]
        samples = [StageSample(p.graph, p.latency, p.stage_id)
                   for p in profiled]
        analytical = AnalyticalPredictor(mesh.gpu)
        analytical.fit(samples, [])
        feature_stats = FeatureStats.fit([s.graph for s in samples])

        if cfg.checkpoints:
            members = [load_predictor(path) for path in cfg.checkpoints]
            ensemble = EnsemblePredictor.from_members(members, feature_stats)
        else:
            size = cfg.trust.ensemble_size if cfg.trust.enabled else 1
            ensemble = EnsemblePredictor(cfg.predictor, seed=cfg.seed,
                                         size=size)
            rng = np.random.default_rng(cfg.seed)
            order = rng.permutation(len(samples))
            n_val = max(1, len(samples) // 10)
            fit = ensemble.fit(
                [samples[i] for i in order[n_val:]],
                [samples[i] for i in order[:n_val]],
                TrainConfig(epochs=cfg.epochs, patience=cfg.epochs,
                            batch_size=8, lr=2e-3, seed=cfg.seed))
            ensemble.feature_stats = feature_stats
            if fit.degraded:
                # every member diverged: analytical-only service (the
                # breaker will observe the dead model path and stay open)
                ensemble = None
        return cls(model, clustering, profiler, mesh, ensemble, analytical,
                   cfg.trust, cfg)

    def describe(self) -> dict:
        return {
            "family": self.config.family,
            "layers": self.config.layers,
            "platform": self.config.platform,
            "mesh": self.config.mesh,
            "units": self.clustering.n_units,
            "predictor": self.config.predictor,
            "members": len(self.ensemble.members) if self.ensemble else 0,
            "checkpoints": list(self.config.checkpoints),
            "schedule": self.config.schedule,
        }

    # ------------------------------------------------------ graph resolution
    def _slice_graph(self, pair, microbatch=None) -> Graph:
        if (not isinstance(pair, (list, tuple)) or len(pair) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool)
                           for x in pair)):
            raise ProtocolError("bad_params",
                                f"a slice must be [unit_start, unit_end], "
                                f"got {pair!r}")
        u0, u1 = pair
        n = self.clustering.n_units
        if not (0 <= u0 < u1 <= n):
            raise ProtocolError("bad_params",
                                f"slice [{u0}, {u1}) outside the model's "
                                f"{n} clustering units")
        s, e = self.clustering.slice_range(u0, u1)
        return self.profiler.predictor_graph(s, e, microbatch)

    def _dict_graph(self, data) -> Graph:
        if not isinstance(data, dict):
            raise ProtocolError("bad_params", "'graph' must be an object")
        try:
            g = graph_from_dict(data)
            g.validate()
        except ProtocolError:
            raise
        except Exception as exc:  # malformed payloads must not crash us
            raise ProtocolError("bad_params",
                                f"bad graph payload: {exc}") from None
        return g

    def resolve_graphs(self, params: dict, many: bool) -> list[Graph]:
        """The graphs a predict/predict_many request asks about."""
        microbatch = params.get("microbatch")
        if microbatch is not None and (not isinstance(microbatch, int)
                                       or isinstance(microbatch, bool)
                                       or microbatch < 1):
            raise ProtocolError("bad_params",
                                "'microbatch' must be a positive integer")
        graphs: list[Graph] = []
        if many:
            for pair in params.get("slices", ()):
                graphs.append(self._slice_graph(pair, microbatch))
            for data in params.get("graphs", ()):
                graphs.append(self._dict_graph(data))
        else:
            if "slice" in params:
                graphs.append(self._slice_graph(params["slice"], microbatch))
            elif "graph" in params:
                graphs.append(self._dict_graph(params["graph"]))
            else:
                graphs.append(self._slice_graph(
                    [0, self.clustering.n_units], microbatch))
        if not graphs:
            raise ProtocolError("bad_params",
                                "nothing to predict: give 'slices' and/or "
                                "'graphs'")
        if len(graphs) > MAX_BATCH_GRAPHS:
            raise ProtocolError("bad_params",
                                f"at most {MAX_BATCH_GRAPHS} graphs per "
                                f"request (got {len(graphs)})")
        return graphs

    # ------------------------------------------------------------ predicting
    def predict_batch(self, graphs: list[Graph], use_model: bool,
                      ) -> tuple[list[dict], int, str]:
        """Predict all graphs → (per-graph results, n_suspect, served_by).

        ``use_model=False`` (breaker open / model dead) serves the
        calibrated analytical estimate.  The model path may raise — an
        injected ``predictor_error``, a dead ensemble — and the *caller*
        decides whether to retry, degrade, or fail the request.
        """
        if not use_model or self.ensemble is None:
            return self._analytical_batch(graphs), 0, "analytical"
        with self.model_lock:
            idx = self._model_calls
            self._model_calls += 1
            faults.fire("predictor_error", idx)
            mean, std, ood = self.ensemble.predict_many(graphs)
            rule = faults.check("predict_garbage", idx)
            if rule is not None:
                mean = faults.garbage_predictions(mean, idx, rule)
        ana = self.analytical.predict_graphs(graphs)
        results, suspect = [], 0
        for k in range(len(graphs)):
            guarded = assess(float(mean[k]), float(std[k]), float(ood[k]),
                             float(ana[k]), self.trust)
            if not guarded.trusted:
                suspect += 1
            results.append({
                "latency_s": guarded.value,
                "raw": guarded.raw,
                "std": guarded.std,
                "ood": guarded.ood,
                "verdict": guarded.verdict,
                "bounds_s": [guarded.lower, guarded.upper],
            })
        return results, suspect, "model"

    def _analytical_batch(self, graphs: list[Graph]) -> list[dict]:
        values = self.analytical.predict_graphs(graphs)
        return [{"latency_s": float(v), "raw": float(v), "std": 0.0,
                 "ood": 0.0, "verdict": "analytical",
                 "bounds_s": [float(v) / self.trust.alpha,
                              float(v) * self.trust.alpha]}
                for v in values]

    # --------------------------------------------------------------- whatif
    def _partition(self, n_stages: int) -> list[tuple[int, int]]:
        n = self.clustering.n_units
        if not (1 <= n_stages <= n):
            raise ProtocolError("bad_params",
                                f"'n_stages' must be in [1, {n}]")
        bounds = [round(i * n / n_stages) for i in range(n_stages + 1)]
        return [(bounds[i], bounds[i + 1]) for i in range(n_stages)
                if bounds[i] < bounds[i + 1]]

    @staticmethod
    def _int_param(params: dict, key: str, default: int, lo: int) -> int:
        value = params.get(key, default)
        if (not isinstance(value, int) or isinstance(value, bool)
                or value < lo):
            raise ProtocolError("bad_params",
                                f"{key!r} must be an integer >= {lo}")
        return value

    def whatif(self, params: dict, use_model: bool,
               ) -> tuple[dict, int, str]:
        """Predicted iteration latency of one stage partition across
        pipeline schedules (a cheap Daydream-style schedule what-if)."""
        n_micro = self._int_param(params, "n_microbatches", 8, 1)
        n_stages = self._int_param(params, "n_stages",
                                   min(2, self.clustering.n_units), 1)
        schedules = params.get("schedules") or list(schedule_names())
        if (not isinstance(schedules, list)
                or not all(isinstance(s, str) for s in schedules)):
            raise ProtocolError("bad_params",
                                "'schedules' must be a list of names")
        unknown = [s for s in schedules if s not in schedule_names()]
        if unknown:
            raise ProtocolError("bad_params",
                                f"unknown schedule(s) {unknown}; known: "
                                f"{', '.join(schedule_names())}")
        units = self._partition(n_stages)
        graphs = [self._slice_graph(pair) for pair in units]
        preds, suspect, served_by = self.predict_batch(graphs, use_model)
        stage_lat = [p["latency_s"] for p in preds]
        latencies = {name: get_schedule(name).closed_form(stage_lat, n_micro)
                     for name in schedules}
        best = min(latencies, key=latencies.get)
        result = {
            "n_stages": len(units),
            "n_microbatches": n_micro,
            "stage_latencies_s": stage_lat,
            "iteration_latency_s": latencies,
            "best_schedule": best,
            "suspect": suspect,
        }
        return result, suspect, served_by

    # --------------------------------------------------------------- search
    def search_candidates(self, params: dict) -> list[int]:
        counts = params.get("stage_counts")
        if counts is None:
            return list(range(1, self.clustering.n_units + 1))
        if (not isinstance(counts, list) or not counts
                or not all(isinstance(k, int) and not isinstance(k, bool)
                           and 1 <= k <= self.clustering.n_units
                           for k in counts)):
            raise ProtocolError(
                "bad_params",
                f"'stage_counts' must be a non-empty list of integers in "
                f"[1, {self.clustering.n_units}]")
        return sorted(set(counts))

    def structural_hash(self) -> str:
        """Canonical hash of the full-model predictor graph — the same
        structural identity ``plan_cache`` keys on — memoized because
        the loaded model never changes shape in-process."""
        if self._structural_hash is None:
            s, e = self.clustering.slice_range(0, self.clustering.n_units)
            graph = self.profiler.predictor_graph(s, e)
            self._structural_hash = canonical_hash(graph)
        return self._structural_hash

    def search_key(self, candidates: list[int], n_micro: int,
                   schedule: str) -> tuple:
        """Cache key identifying one search answer: structural graph
        hash + mesh + schedule + the exact candidate set, stamped with
        the ensemble generation (a reload invalidates every entry)."""
        return (self.structural_hash(), self.mesh.key(), schedule,
                tuple(candidates), n_micro, self.generation)

    def search_schedule(self, params: dict) -> str:
        schedule = params.get("schedule", self.config.schedule)
        if schedule not in schedule_names():
            raise ProtocolError("bad_params",
                                f"unknown schedule {schedule!r}; known: "
                                f"{', '.join(schedule_names())}")
        return schedule

    def evaluate_candidate(self, spec: tuple) -> dict:
        """One search candidate → its predicted plan (picklable).

        Runs inside a supervised worker fork for real searches (killable
        past the request deadline, crash-retried), or inline for the
        degraded analytical fallback.
        """
        n_stages, n_micro, schedule, use_model = spec
        units = self._partition(n_stages)
        graphs = [self._slice_graph(pair) for pair in units]
        preds, suspect, served_by = self.predict_batch(graphs, use_model)
        stage_lat = [p["latency_s"] for p in preds]
        latency = get_schedule(schedule).closed_form(stage_lat, n_micro)
        return {
            "n_stages": len(units),
            "stage_units": [list(pair) for pair in units],
            "stage_latencies_s": stage_lat,
            "iteration_latency_s": latency,
            "suspect": suspect,
            "served_by": served_by,
        }

    # --------------------------------------------------------------- reload
    def reload(self, checkpoints: tuple[str, ...]) -> None:
        """Supervised in-place swap to freshly loaded checkpoint members.

        Loading happens fully off to the side; only a successful load
        takes the lock and swaps, so a torn/corrupt checkpoint can never
        take down the serving ensemble (the caller journals the failure).
        """
        members = [load_predictor(path) for path in checkpoints]
        stats = self.ensemble.feature_stats if self.ensemble else None
        fresh = EnsemblePredictor.from_members(members, stats)
        with self.model_lock:
            self.ensemble = fresh
            self.generation += 1
