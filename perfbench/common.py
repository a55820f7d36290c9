"""Pieces shared by the workloads: metric catalog, environment, statistics."""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

import spans

#: end-to-end metrics (printed with ``--trace 0``) → unit.  Every workload
#: reports every one of them; README.md says what each means per workload.
E2E_UNITS = {
    "setup_s": "s",
    "search_s": "s",
    "search_warm_s": "s",
    "plan_latency_s": "sim_sec",
    "plan_vs_full_pct": "%",
    "opt_cost_s": "s",
    "predict_p50_ms": "ms",
    "predict_p95_ms": "ms",
    "predict_slo_share": "share",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "ok_share": "share",
    "undegraded_share": "share",
}

#: per-layer metrics (printed with ``--trace 1``) → unit
LAYER_UNITS = {
    "ir.graph_s": "s",
    "parallel.intra_op_s": "s",
    "parallel.intra_op_solves": "count",
    "parallel.plan_cache_hit_ratio": "ratio",
    "parallel.collapse_hit_ratio": "ratio",
    "parallel.inter_op_s": "s",
    "runtime.execute_s": "s",
    "runtime.score_s": "s",
    "predictors.fit_s": "s",
    "predictors.fit_members": "count",
    "predictors.predict_s": "s",
    "predictors.predict_many_ms": "ms",
    "predictors.encode_hit_ratio": "ratio",
    "predictors.suspect_share": "share",
    "predictors.escalations": "count",
    "serving.predict_batch_ms": "ms",
    "serving.wait_ms_p50": "ms",
    "serving.wait_ms_p99": "ms",
    "serving.batch_size_mean": "count",
    "serving.search_cache_hit_ratio": "ratio",
    "serving.candidate_ms": "ms",
    "serving.deadline_exceeded": "count",
    "serving.shed": "count",
    "serving.breaker_transitions": "count",
    "experiments.supervised_map_ms_p50": "ms",
    "experiments.supervised_map_ms_p90": "ms",
    "experiments.pool_respawns": "count",
    "experiments.cell_retries": "count",
    "unattributed_s": "s",
    "trace_overhead_pct": "%",
    "gen.late_ms_p99": "ms",
}

#: (dotted owner, attribute, span name) of every layer entry point the
#: traced runs time.  ``runtime.profiler`` and ``core.search`` import
#: ``cached_optimize_stage``/``execute_plan``/``slice_stages`` by name, so
#: those are wrapped where they are called from.
LAYER_ENTRY_POINTS = (
    ("repro.runtime.profiler.StageProfiler", "training_graph", "ir.graph"),
    ("repro.runtime.profiler.StageProfiler", "predictor_graph", "ir.graph"),
    ("repro.runtime.profiler", "cached_optimize_stage", "parallel.intra_op"),
    ("repro.core.search", "slice_stages", "parallel.inter_op"),
    ("repro.runtime.profiler", "execute_plan", "runtime.execute"),
    ("repro.runtime.pipeline.PipelineSimulator", "run", "runtime.score"),
    ("repro.predictors.trust.EnsemblePredictor", "fit", "predictors.fit"),
    ("repro.predictors.base.LatencyPredictor", "fit", "predictors.fit.member"),
    ("repro.predictors.trust.EnsemblePredictor", "predict_many",
     "predictors.predict"),
    ("repro.serving.runtime.PredictorRuntime", "predict_batch",
     "serving.predict_batch"),
    ("repro.experiments.engine", "supervised_map",
     "experiments.supervised_map"),
)

#: span name → the per-layer time metric its self time adds to
LAYER_TIME_METRICS = {
    "ir.graph": "ir.graph_s",
    "parallel.intra_op": "parallel.intra_op_s",
    "parallel.inter_op": "parallel.inter_op_s",
    "runtime.execute": "runtime.execute_s",
    "runtime.score": "runtime.score_s",
    "predictors.fit": "predictors.fit_s",
    "predictors.fit.member": "predictors.fit_s",
    "predictors.predict": "predictors.predict_s",
}

#: BLAS pools sized to the machine oversubscribe the two cores the
#: benchmark assumes and make tiny-matrix training several times slower
#: and far noisier; every program process the benchmark starts runs them
#: single-threaded
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


#: the fast profile's Eqn-4 microbatch count
#: (``repro.experiments.profiles.FAST.n_microbatches``)
FAST_MICROBATCHES = 8


def n_microbatches(seed: int) -> int:
    """The pipeline microbatch count a seed asks the searches to plan for:
    the fast profile's for even seeds, one more for odd seeds.

    Only the inter-op DP objective and plan scoring read it, so seeds
    change the answer without changing how much profiling or training a
    search does.  The extra microbatch adds about 10 % to plan latencies.
    """
    return FAST_MICROBATCHES + seed % 2


def require_program(root: Path) -> None:
    """Exit non-zero, printing no result, when the program is missing."""
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {root / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        raise SystemExit(2)


def use_program(root: Path) -> None:
    """Make ``import repro`` load the checkout's sources."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def run_dir(root: Path, tag: str) -> Path:
    """A fresh scratch directory for one run, inside the checkout."""
    path = root / ".perfbench" / f"{tag}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def program_env(root: Path, scratch: Path, jobs: int | None = None) -> dict:
    """Environment for a program process: the checkout's sources, a
    per-run results cache (also where the manifest journal lands), and
    no inherited ``REPRO_*`` setting that could change results."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_CACHE"] = str(scratch / "cache")
    if jobs is not None:
        env["REPRO_JOBS"] = str(jobs)
    return env


def apply_env(env: dict) -> None:
    """Install ``env``'s ``REPRO_*`` and thread settings in this process."""
    for k in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[k]
    os.environ.update({k: v for k, v in env.items()
                       if k.startswith("REPRO_") or k in SINGLE_THREAD_ENV})


def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 when empty."""
    # imported here so callers can pin BLAS threads before numpy loads
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def process_counters() -> tuple[int, ...]:
    """Cache and pool counters of the program code in this process: plan
    cache, collapse memo and encoding cache (hits, misses), respawns."""
    from repro.experiments.pool import pool_stats
    from repro.parallel.intra_op import collapse_stats
    from repro.parallel.plan_cache import global_plan_cache
    from repro.predictors.encoding_cache import global_encoding_cache

    plan, enc = global_plan_cache().stats, global_encoding_cache().stats
    return (plan.hits, plan.misses, collapse_stats().hits,
            collapse_stats().misses, enc.hits, enc.misses,
            pool_stats().workers_respawned)


def layer_metrics(window: list[spans.Span], wall: float,
                  before: tuple[int, ...], after: tuple[int, ...]) -> dict:
    """Every per-layer metric, zero except those that the spans of
    ``window`` and the :func:`process_counters` deltas give."""
    metrics = dict.fromkeys(LAYER_UNITS, 0.0)
    own = spans.self_times(window)
    for name, seconds in own.items():
        if name in LAYER_TIME_METRICS:
            metrics[LAYER_TIME_METRICS[name]] += seconds
    d = [y - x for x, y in zip(before, after)]
    metrics.update({
        "unattributed_s": wall - sum(own.values()),
        "parallel.intra_op_solves": d[1],
        "parallel.plan_cache_hit_ratio": ratio(d[0], d[0] + d[1]),
        "parallel.collapse_hit_ratio": ratio(d[2], d[2] + d[3]),
        "predictors.encode_hit_ratio": ratio(d[4], d[4] + d[5]),
        "experiments.pool_respawns": d[6],
        "predictors.fit_members": len(spans.durations(
            window, "predictors.fit.member")),
        "predictors.predict_many_ms": 1e3 * pct(spans.durations(
            window, "predictors.predict"), 50),
        "trace_overhead_pct": spans.overhead_pct(window, wall),
    })
    return metrics
