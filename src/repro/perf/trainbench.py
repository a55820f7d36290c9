"""Predictor-pipeline micro-benchmark: fast hot path vs the seed baseline.

The workload is the fast-profile training corpus — every contiguous unit
slice of the profile's GPT clustering on the Platform-2 two-GPU mesh,
crossed with the profile's microbatch sweep — i.e. the per-search-cell
population one ``search_predtop`` submesh trains and predicts on.  Each
optimization site is timed in isolation and in composition, always
against the *seed* configuration of the same code
(``fastpath.set_fast(False)`` + fresh per-call graph encodings + serial
ensemble + per-member inference with a per-graph OOD loop):

* ``encoding``     — shared encoding cache (warm) vs fresh re-encoding;
* ``masks``        — precomputed additive attention bias on the batch vs
  the per-forward ``np.where`` mask build;
* ``training``     — one predictor fit, fast autograd engine vs the
  reference engine (covers gradient-buffer stealing, the acyclic tape,
  and the precomputed masks together);
* ``inference``    — one batched ``predict_many`` pass (shared batches +
  vectorized OOD) vs per-member ``predict_graphs`` + a per-graph
  ``ood_score`` loop;
* ``ensemble_fit`` — K member fits fanned across the engine's worker
  pool vs the serial loop (1× by construction on a single core);
* ``end_to_end``   — the full per-cell pipeline (K-member ensemble fit +
  guarded batched prediction over the corpus);
* ``search``       — ``PlanSearcher.search_predtop`` wall time with the
  trust layer on, the headline number.

Every composite A/B doubles as a differential test: losses, weights, and
predictions must be **bit-identical** between the fast and seed modes
(equality, not tolerance).  ``repro bench train`` writes the result as
``BENCH_train.json`` and exits nonzero on any mismatch.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import replace as dc_replace

import numpy as np

from ..cluster.platforms import PLATFORM2
from ..experiments.profiles import ExperimentProfile, active_profile
from ..models.clustering import cluster_layers
from ..models.configs import benchmark_config
from ..models.model import build_model as build_bench_model
from ..nn import fastpath
from ..predictors.base import LatencyPredictor
from ..predictors.dataset import StageSample, make_batches
from ..predictors.encoding_cache import global_encoding_cache
from ..predictors.trainer import TrainConfig
from ..predictors.trust import EnsemblePredictor, TrustConfig
from ..runtime.profiler import StageProfiler

SCHEMA = "predtop.bench_train/v2"

#: deep-ensemble size of the composite sites (the trust layer's default K)
ENSEMBLE_SIZE = 3

#: training epochs per fit — the fast profile's hyperparameters with the
#: epoch budget scaled down so one bench run times ~20 fits, not ~20
#: early-stopped 150-epoch runs; per-epoch engine cost is what the A/B
#: measures, so the ratio is representative of the full budget
EPOCHS = {"full": 20, "quick": 5}


@contextmanager
def seed_mode():
    """Run the enclosed block in the seed configuration.

    Reference autograd engine + per-forward mask builds
    (``fastpath.set_fast(False)``) and fresh per-call graph encodings
    (the encoding memo's lookup swapped for a plain compute, memo
    dropped).  Restores the previous configuration on exit; the fast
    side re-warms the memo.
    """
    prev_fast = fastpath.set_fast(False)
    memo = global_encoding_cache()
    memo.get = lambda key, compute: compute()
    memo.clear()
    try:
        yield
    finally:
        fastpath.set_fast(prev_fast)
        del memo.get


def seed_predict_many(ensemble: EnsemblePredictor, graphs
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seed inference path: per-member stacking + per-graph OOD loop.

    Reproduces what ``search_predtop`` did before batched inference:
    ``predict_graphs`` per member (each building its own padded batches)
    and one ``ood_score`` call per query graph.
    """
    preds = np.stack([m.predict_graphs(graphs) for m in ensemble.members])
    fs = ensemble.feature_stats
    ood = (np.array([fs.ood_score(g) for g in graphs], np.float64)
           if fs is not None else np.zeros(len(graphs)))
    return preds.mean(axis=0), preds.std(axis=0), ood


def bench_corpus(profile: ExperimentProfile | None = None,
                 quick: bool = False):
    """(graph, latency, stage_id) rows of the fast-profile GPT corpus."""
    profile = profile or active_profile()
    model = build_bench_model(benchmark_config("gpt", profile.gpt_layers))
    profiler = StageProfiler(model,
                             aggressive_fusion=profile.aggressive_fusion)
    clustering = cluster_layers(model, profile.gpt_units)
    mesh = PLATFORM2.mesh(2)
    microbatches = profile.corpus_microbatches
    if quick:
        microbatches = microbatches[:max(1, len(microbatches) // 2)]
    rows = []
    for mb in microbatches:
        for (s, e) in clustering.all_slices():
            p = profiler.profile_stage(s, e, mesh, 2, 1, microbatch=mb)
            rows.append((p.graph, p.latency, f"{p.stage_id}@mb{mb}"))
    return model, clustering, profiler, rows


def _median(fn, repeats: int) -> tuple[float, object]:
    """(median seconds, last return value) of ``repeats`` timed calls."""
    ts, out = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts), out


def _site(fast_s: float, seed_s: float, *, jobs: int = 1, **extra) -> dict:
    """Site record; ``jobs`` is the worker count the fast side ran with
    (1 for the sites that are serial by construction)."""
    return {"fast_ms": fast_s * 1e3, "seed_ms": seed_s * 1e3,
            "speedup": seed_s / fast_s if fast_s > 0 else float("inf"),
            "jobs": jobs, **extra}


def _state_equal(a: dict, b: dict) -> bool:
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def run_train_microbench(profile: ExperimentProfile | None = None,
                         quick: bool = False,
                         repeats: int | None = None,
                         jobs: int | None = None) -> dict:
    """Run the benchmark and return the ``BENCH_train.json`` payload."""
    from ..core.search import PlanSearcher
    from ..experiments.engine import n_jobs

    profile = profile or active_profile()
    repeats = repeats or (1 if quick else 3)
    jobs = jobs or n_jobs()
    epochs = EPOCHS["quick" if quick else "full"]
    cfg = TrainConfig(epochs=epochs, patience=epochs,
                      batch_size=profile.batch_size, lr=profile.lr, seed=0)

    model, clustering, profiler, rows = bench_corpus(profile, quick)
    graphs = [g for (g, _, _) in rows]

    def fresh_samples() -> list[StageSample]:
        return [StageSample(g, lat, sid) for (g, lat, sid) in rows]

    def split(samples):
        rng = np.random.default_rng(0)
        order = rng.permutation(len(samples))
        n_val = max(1, len(samples) // 6)
        return ([samples[i] for i in order[n_val:]],   # train
                [samples[i] for i in order[:n_val]])   # val

    identical = True
    sites: dict[str, dict] = {}

    # ------------------------------------------------- site: encoding cache
    def encode_all():
        for s in fresh_samples():
            s.encode()
            s.sparse_adj()

    encode_all()  # warm the shared cache
    t_fast, _ = _median(encode_all, max(3, repeats))
    cache = global_encoding_cache()
    stats = (len(cache), cache.stats.hits, cache.stats.misses)
    with seed_mode():  # clears the cache on entry — stats snapshot above
        t_seed, _ = _median(encode_all, max(3, repeats))
    sites["encoding"] = _site(t_fast, t_seed, corpus_size=len(rows),
                              cache_entries=stats[0],
                              cache_hits=stats[1],
                              cache_misses=stats[2])

    # ------------------------------------------------------- site: training
    def fit_once():
        samples = fresh_samples()
        train, val = split(samples)
        pred = LatencyPredictor(seed=0)
        res = pred.fit(train, val, cfg)
        return pred, res, pred.predict_graphs(graphs)

    t_fast, (pred_f, res_f, preds_f) = _median(fit_once, repeats)
    with seed_mode():
        t_seed, (pred_r, res_r, preds_r) = _median(fit_once, repeats)
    train_identical = (
        res_f.train_loss == res_r.train_loss
        and res_f.val_loss == res_r.val_loss
        and _state_equal(pred_f.model.state_dict(), pred_r.model.state_dict())
        and np.array_equal(preds_f, preds_r))
    identical &= train_identical
    sites["training"] = _site(t_fast, t_seed, epochs=epochs,
                              identical=train_identical)

    # ---------------------------------------------------------- site: masks
    # same trained model, same padded batches, fast engine on both sides;
    # only the mask site differs: precomputed additive bias on the batch
    # vs the bool-reach path that rebuilds np.where(...) in every
    # attention layer of every forward
    batches = make_batches(fresh_samples(), pred_f.normalizer,
                           cfg.batch_size)
    stripped = [dc_replace(b, attn_bias=None, _ablation_bias=None)
                for b in batches]

    def forward_over(bs):
        return pred_f._forward_batches(bs)

    forward_over(batches)  # warm both paths before timing
    forward_over(stripped)
    t_fast, out_f = _median(lambda: forward_over(batches), max(5, repeats))
    t_seed, out_s = _median(lambda: forward_over(stripped), max(5, repeats))
    masks_identical = np.array_equal(out_f, out_s)
    identical &= masks_identical
    sites["masks"] = _site(t_fast, t_seed, identical=masks_identical)

    # ------------------------------------------------ composite: ensemble
    def ensemble_fit(fit_jobs: int | None):
        samples = fresh_samples()
        train, val = split(samples)
        ens = EnsemblePredictor(seed=0, size=ENSEMBLE_SIZE)
        ens.fit(train, val, cfg, jobs=fit_jobs)
        return ens

    t_par, ens_par = _median(lambda: ensemble_fit(jobs), 1)
    t_ser, ens_ser = _median(lambda: ensemble_fit(1), 1)
    ens_identical = len(ens_par.members) == len(ens_ser.members) and all(
        _state_equal(a.model.state_dict(), b.model.state_dict())
        for a, b in zip(ens_par.members, ens_ser.members))
    identical &= ens_identical
    # "fast" is the parallel fan-out, "seed" the serial member loop
    sites["ensemble_fit"] = _site(t_par, t_ser, jobs=jobs,
                                  members=len(ens_par.members),
                                  identical=ens_identical)

    # ------------------------------------------------------ site: inference
    ens_par.predict_many(graphs)  # warm
    t_fast, many = _median(lambda: ens_par.predict_many(graphs),
                           max(3, repeats))
    with seed_mode():
        seed_predict_many(ens_par, graphs)  # warm
        t_seed, stacked = _median(lambda: seed_predict_many(ens_par, graphs),
                                  max(3, repeats))
    infer_identical = all(np.array_equal(a, b)
                          for a, b in zip(many, stacked))
    identical &= infer_identical
    sites["inference"] = _site(t_fast, t_seed, n_graphs=len(graphs),
                               identical=infer_identical)

    # --------------------------------------------- composite: end to end
    def pipeline(seed_side: bool):
        """One search cell: ensemble fit + guarded batched prediction."""
        ens = ensemble_fit(1 if seed_side else jobs)
        out = (seed_predict_many(ens, graphs) if seed_side
               else ens.predict_many(graphs))
        return out

    t_fast, out_f = _median(lambda: pipeline(False), 1)
    with seed_mode():
        t_seed, out_s = _median(lambda: pipeline(True), 1)
    e2e_identical = all(np.array_equal(a, b) for a, b in zip(out_f, out_s))
    identical &= e2e_identical
    sites["end_to_end"] = _site(t_fast, t_seed, identical=e2e_identical,
                                ensemble_size=ENSEMBLE_SIZE)

    # ----------------------------------------------- headline: plan search
    trust = TrustConfig(enabled=True, ensemble_size=ENSEMBLE_SIZE)

    def search_once(search_jobs: int):
        searcher = PlanSearcher(model, clustering, PLATFORM2.mesh(2),
                                n_microbatches=profile.n_microbatches,
                                profiler=profiler, sample_fraction=0.5,
                                train_config=cfg, seed=0, trust=trust,
                                jobs=search_jobs)
        return searcher.search_predtop()

    search_once(jobs)  # warm the profiler/plan caches on both sides
    t_fast, r_fast = _median(lambda: search_once(jobs), 1)
    with seed_mode():
        orig = EnsemblePredictor.predict_many
        EnsemblePredictor.predict_many = seed_predict_many
        try:
            # the seed side is the pre-pool baseline: one core, serial
            t_seed, r_seed = _median(lambda: search_once(1), 1)
        finally:
            EnsemblePredictor.predict_many = orig

    def plan_sig(r):
        return (r.true_iteration_latency, r.n_table_entries,
                tuple((st.layer_range, st.submesh.key())
                      for st in r.plan.stages))

    search_identical = plan_sig(r_fast) == plan_sig(r_seed)
    identical &= search_identical
    sites["search"] = _site(t_fast, t_seed, jobs=jobs,
                            identical=search_identical,
                            n_table_entries=r_fast.n_table_entries,
                            trusted=r_fast.trust.trusted,
                            suspect=r_fast.trust.suspect)

    return {
        "schema": SCHEMA,
        "profile": profile.name,
        "quick": quick,
        "repeats": repeats,
        "jobs": jobs,
        "config": {
            "epochs": epochs, "batch_size": cfg.batch_size, "lr": cfg.lr,
            "corpus_size": len(rows),
            "node_range": [min(len(g) for g in graphs),
                           max(len(g) for g in graphs)],
            "ensemble_size": ENSEMBLE_SIZE,
        },
        "sites": sites,
        "differential": {"identical": bool(identical)},
        "overall": {
            "headline_search_speedup": sites["search"]["speedup"],
            "pipeline_speedup": sites["end_to_end"]["speedup"],
            "training_speedup": sites["training"]["speedup"],
        },
    }
