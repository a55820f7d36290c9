"""Parallelization-plan search: the Fig-10 use case.

Five ways to fill the inter-op DP's stage-latency table, as compared in
§VIII-B:

* ``full``    — vanilla Alpa, exhaustive profiling of every
  (slice, submesh);
* ``partial`` — vanilla Alpa's heuristic: only profile slices whose
  model-fraction roughly matches the submesh's device-fraction
  (stage–device balance);
* ``predtop-dag_transformer`` / ``predtop-gcn`` / ``predtop-gat`` — PredTOP:
  profile a sampled subset per submesh, train the predictor, predict the
  rest.

Every approach then runs the same Alpa inter-op DP and its plan is scored
by *ground-truth* stage latencies on the 1F1B pipeline simulator, so
Fig 10a (optimization cost) and Fig 10b (plan iteration latency) fall out
of the same structure.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .. import faults
from ..cluster.mesh import DeviceMesh, enumerate_submeshes
from ..models.clustering import Clustering
from ..models.model import Model
from ..parallel.inter_op import INFEASIBLE, LatencyTable, slice_stages
from ..parallel.plans import ParallelPlan
from ..predictors.dataset import StageSample
from ..predictors.trainer import TrainConfig
from ..predictors.trust import (TrustConfig, TrustStats, calibrated_analytical,
                                fit_guarded, resolve)
from ..runtime.pipeline import PipelineSimulator
from ..runtime.profiler import StageProfiler
from .sampling import stratified_sample

APPROACHES = ("full", "partial", "predtop-dag_transformer",
              "predtop-gcn", "predtop-gat")


@dataclass
class SearchResult:
    """Outcome of one plan search."""

    approach: str
    plan: ParallelPlan
    #: simulated profiling seconds + real training/inference seconds
    optimization_cost: float
    cost_breakdown: dict[str, float] = field(default_factory=dict)
    #: plan latency under ground-truth stage measurements (1F1B simulation)
    true_iteration_latency: float = float("inf")
    #: per-(slice, submesh) predicted/measured table used by the DP
    n_table_entries: int = 0
    #: guard/escalation accounting of the trust layer (PredTOP approaches)
    trust: TrustStats | None = None
    #: human-readable notes on components that failed and fell back to
    #: re-profiling or the analytical predictor
    degradations: list[str] = field(default_factory=list)


class PlanSearcher:
    """Runs the five search variants on one (model, cluster) pair."""

    def __init__(
        self,
        model: Model,
        clustering: Clustering,
        cluster: DeviceMesh,
        n_microbatches: int = 8,
        profiler: StageProfiler | None = None,
        sample_fraction: float = 0.3,
        train_config: TrainConfig | None = None,
        balance_tolerance: float = 0.34,
        enforce_memory: bool = True,
        seed: int = 0,
        jobs: int | None = None,
        trust: TrustConfig | None = None,
        schedule: str = "1f1b",
    ) -> None:
        from ..runtime.schedules import get_schedule

        self.model = model
        self.clustering = clustering
        self.cluster = cluster
        self.submeshes = enumerate_submeshes(cluster)
        self.n_microbatches = n_microbatches
        #: pipeline schedule for the DP objective and plan scoring; the
        #: default 1F1B scores plans on the seed ``PipelineSimulator``
        self.schedule = get_schedule(schedule)
        self.profiler = profiler or StageProfiler(model)
        self.sample_fraction = sample_fraction
        self.train_config = train_config or TrainConfig()
        self.balance_tolerance = balance_tolerance
        #: reject (stage, submesh) placements whose per-device training
        #: state + activations exceed GPU memory (Alpa does the same)
        self.enforce_memory = enforce_memory
        self.seed = seed
        #: engine worker count for every sweep a search fans out, the
        #: ensemble member fits included (None = REPRO_JOBS)
        self.jobs = jobs
        #: trust-layer knobs (None = read ``REPRO_TRUST_*``; disabled by
        #: default, keeping predictions bit-identical to the unguarded path)
        self.trust = trust or TrustConfig.from_env()
        #: stable task callable for the engine's persistent pool — a fresh
        #: lambda per sweep would change the fn identity and force a pool
        #: restart on every ``_measure_many`` call.  It holds the searcher
        #: weakly: a strong reference would make every searcher cyclic
        #: garbage (with its profiler and graphs), and the pool, which
        #: keeps its last ``fn``, would pin the last one
        measure = weakref.WeakMethod(self._measure)
        self._measure_task = lambda pair: measure()(*pair)
        self._slices = clustering.all_slices()
        self._unit_slices = [
            (i, j) for i in range(clustering.n_units)
            for j in range(i + 1, clustering.n_units + 1)]
        #: (layer slice, submesh key) -> (latency, profiling cost); fills
        #: from the parallel sweeps so plan scoring never re-profiles
        self._measured: dict[tuple[tuple[int, int], str], tuple[float, float]] = {}

    # ------------------------------------------------------------- plumbing
    def _measure(self, layer_slice: tuple[int, int],
                 submesh: DeviceMesh) -> tuple[float, float]:
        """(optimal latency, profiling cost) for one slice on one submesh."""
        from ..cluster.mesh import logical_views

        memo_key = (layer_slice, submesh.key())
        hit = self._measured.get(memo_key)
        if hit is not None:
            return hit
        best_lat, best_cost = INFEASIBLE, 0.0
        for lv in logical_views(submesh):
            p = self.profiler.profile_stage(layer_slice[0], layer_slice[1],
                                            submesh, lv.dp, lv.mp)
            if (self.enforce_memory
                    and p.profile.memory_bytes > submesh.gpu.mem_capacity):
                continue
            if p.latency < best_lat:
                best_lat, best_cost = p.latency, p.profiling_cost
        self._measured[memo_key] = (best_lat, best_cost)
        return best_lat, best_cost

    def _measure_many(
        self, pairs: list[tuple[tuple[int, int], DeviceMesh]],
    ) -> list[tuple[float, float]]:
        """Measure (slice, submesh) pairs through the engine's pool.

        Results land in ``self._measured`` in submission order, so the
        parallel sweep is interchangeable with the serial loop; workers
        inherit the profiler via fork and return plain floats.
        """
        from ..experiments.engine import parallel_map

        todo = [p for p in pairs
                if (p[0], p[1].key()) not in self._measured]
        results = parallel_map(self._measure_task, todo, self.jobs)
        for (layer_slice, submesh), r in zip(todo, results):
            self._measured[(layer_slice, submesh.key())] = r
        return [self._measured[(ls, sm.key())] for (ls, sm) in pairs]

    def _balanced(self, unit_slice: tuple[int, int],
                  submesh: DeviceMesh) -> bool:
        """Vanilla Alpa's partial-profiling heuristic (§VII-D)."""
        frac_model = (unit_slice[1] - unit_slice[0]) / self.clustering.n_units
        frac_devices = submesh.num_devices / self.cluster.num_devices
        return abs(frac_model - frac_devices) <= self.balance_tolerance

    def _score_plan(self, plan: ParallelPlan) -> float:
        """Ground-truth iteration latency of a plan under the schedule."""
        if not plan.feasible:
            return float("inf")
        true_times = [lat for (lat, _) in self._measure_many(
            [(st.layer_range, st.submesh) for st in plan.stages])]
        if self.schedule.name == "1f1b":
            # the seed path, kept verbatim so 1F1B scores stay bit-identical
            sim = PipelineSimulator(
                true_times, self.n_microbatches,
                transfer_bytes=self.model.activation_bytes(),
                link=self.cluster.inter_link)
            return sim.run().makespan
        transfer = self.cluster.inter_link.transfer_time(
            self.model.activation_bytes())
        return self.schedule.simulated_latency(
            true_times, self.n_microbatches, transfer_time=transfer)

    def _run_dp(self, table: LatencyTable) -> ParallelPlan:
        return slice_stages(self.clustering, self.submeshes, table,
                            self.n_microbatches,
                            total_devices=self.cluster.num_devices,
                            schedule=self.schedule)

    # ------------------------------------------------------------ approaches
    def search_full(self) -> SearchResult:
        work = [((ui, uj), mi) for (ui, uj) in self._unit_slices
                for mi in range(len(self.submeshes))]
        return self._profiled_search("full", work)

    def search_partial(self) -> SearchResult:
        work = [((ui, uj), mi) for (ui, uj) in self._unit_slices
                for mi in range(len(self.submeshes))
                if self._balanced((ui, uj), self.submeshes[mi])]
        return self._profiled_search("partial", work)

    def _profiled_search(self, approach: str,
                         work: list[tuple[tuple[int, int], int]]) -> SearchResult:
        """Profile every (slice, submesh) work item, then run the DP."""
        table = LatencyTable()
        pairs = [(self.clustering.slice_range(ui, uj), self.submeshes[mi])
                 for ((ui, uj), mi) in work]
        measured = self._measure_many(pairs)
        cost = 0.0
        for ((ui, uj), mi), (lat, c) in zip(work, measured):
            table.set(ui, uj, mi, lat)
            cost += c
        plan = self._run_dp(table)
        return SearchResult(approach, plan, cost,
                            {"profiling": cost},
                            self._score_plan(plan), len(table.values))

    def search_predtop(self, kind: str = "dag_transformer") -> SearchResult:
        """PredTOP: sample + profile, train per submesh, predict the rest.

        Predictions flow through the gray-box trust layer
        (:mod:`repro.predictors.trust`).  With trust disabled — the
        default — the happy path is bit-identical to the unguarded
        search, but even then the search survives a failing predictor:
        a fit whose training diverges is retrained once with a fresh
        seed, and a submesh whose predictor throws or diverges twice
        degrades to re-profiling (within ``trust.budget``) or to the
        per-submesh-calibrated analytical predictor.  With trust
        enabled every predicted entry additionally passes the ensemble
        uncertainty, OOD, and physical-bounds guards; suspect entries
        escalate through the same budget policy.
        """
        from ..experiments.engine import parallel_map

        tcfg = self.trust
        table = LatencyTable()
        sampled = stratified_sample(self._unit_slices, self.sample_fraction,
                                    self.seed)
        sampled_set = set(sampled)
        rest = [us for us in self._unit_slices if us not in sampled_set]

        # profile the sampled (slice, submesh) grid — fanned across workers
        pairs = [(self.clustering.slice_range(ui, uj), sm)
                 for sm in self.submeshes for (ui, uj) in sampled]
        measured = self._measure_many(pairs)
        prof_cost = sum(c for (_, c) in measured)
        it = iter(measured)
        per_submesh: list[list[StageSample]] = []
        for mi, sm in enumerate(self.submeshes):
            samples: list[StageSample] = []
            for (ui, uj) in sampled:
                ls = self.clustering.slice_range(ui, uj)
                lat, _ = next(it)
                table.set(ui, uj, mi, lat)  # measured entries are exact
                g = self.profiler.predictor_graph(*ls)
                samples.append(StageSample(g, lat, f"{ls}@{sm.key()}"))
            per_submesh.append(samples)

        rest_graphs = [self.profiler.predictor_graph(
            *self.clustering.slice_range(ui, uj)) for (ui, uj) in rest]
        gpus = [sm.gpu for sm in self.submeshes]
        seed, train_config, jobs = self.seed, self.train_config, self.jobs

        def fit_and_predict(item: tuple[int, list[StageSample]]):
            """Fit one submesh's guarded predictor and predict the rest.

            Returns ``(status, raw, analytical, train_s, infer_s,
            retrained, detail)``, ``raw`` being the ensemble's ``(mean,
            std, ood)`` arrays; any exception — including an injected
            ``predictor_error`` — degrades the submesh instead of
            aborting the search.  It reads no ``self``: the pool keeps
            its last task, which must not pin the searcher.
            """
            mi, samples = item
            analytical = fit = None
            try:
                ensemble, analytical, fit = fit_guarded(
                    samples, gpus[mi], tcfg, train_config, kind=kind,
                    seed=seed, n_val=len(samples) // 6, jobs=jobs)
                if ensemble is None:
                    return ("degraded", None, analytical, fit.wall_seconds,
                            0.0, fit.retrained,
                            "every ensemble member diverged")
                t0 = time.perf_counter()
                faults.fire("predictor_error", mi)
                # one batched pass over every unprofiled stage
                raw = (ensemble.predict_many(rest_graphs) if rest_graphs
                       else (np.empty(0),) * 3)
                return ("ok", raw, analytical, fit.wall_seconds,
                        time.perf_counter() - t0, fit.retrained, "")
            except Exception as exc:  # noqa: BLE001 — degrade, don't abort
                return ("error", None, analytical,
                        fit.wall_seconds if fit else 0.0, 0.0, 0,
                        f"{type(exc).__name__}: {exc}")

        # one independent training per submesh — also engine-parallel
        trained = parallel_map(fit_and_predict,
                               list(enumerate(per_submesh)), self.jobs)
        train_cost = sum(t[3] for t in trained)
        infer_cost = sum(t[4] for t in trained)

        stats = TrustStats()
        degradations: list[str] = []
        for mi, (status, raw, analytical, _, _, retrained, detail) \
                in enumerate(trained):
            stats.retrained += retrained
            submesh = self.submeshes[mi]
            if status != "ok":
                # predictor threw or diverged past retraining: every entry
                # of the submesh escalates
                stats.degraded += 1
                degradations.append(f"submesh {submesh.key()} "
                                    f"predictor {status}: {detail}")
                analytical = analytical or calibrated_analytical(
                    per_submesh[mi], submesh.gpu)
            else:
                rule = faults.check("predict_garbage", mi)
                if rule is not None and len(raw[0]):
                    raw = (faults.garbage_predictions(raw[0], mi, rule),
                           *raw[1:])
            values = resolve(
                raw, rest_graphs, analytical, tcfg, stats,
                lambda k: self._measure(
                    self.clustering.slice_range(*rest[k]), submesh))
            for (ui, uj), value in zip(rest, values):
                table.set(ui, uj, mi, max(value, 1e-6))

        plan = self._run_dp(table)
        # every re-profile's cost goes to the budget, and nowhere else
        extra_prof = stats.budget_spent
        total = prof_cost + train_cost + infer_cost + extra_prof
        breakdown = {"profiling": prof_cost, "training": train_cost,
                     "inference": infer_cost}
        if extra_prof:
            breakdown["escalation"] = extra_prof
        return SearchResult(
            f"predtop-{kind}", plan, total, breakdown,
            self._score_plan(plan), len(table.values),
            trust=stats, degradations=degradations)

    # -------------------------------------------------------------- frontend
    def run(self, approach: str) -> SearchResult:
        if approach == "full":
            return self.search_full()
        if approach == "partial":
            return self.search_partial()
        if approach.startswith("predtop-"):
            return self.search_predtop(approach.removeprefix("predtop-"))
        raise ValueError(f"unknown approach {approach!r}; "
                         f"known: {APPROACHES}")

    def run_all(self) -> dict[str, SearchResult]:
        return {a: self.run(a) for a in APPROACHES}
