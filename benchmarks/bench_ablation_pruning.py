"""Ablation §IV-B4 — graph pruning on vs off.

Pruning removes redundant data-movement equations; the paper argues it
keeps graphs small enough to train efficiently without losing accuracy.
We measure both the graph-size reduction and the accuracy/time effect.
"""

from repro.experiments import scenario_grid
from repro.experiments.corpus import benchmark_setup
from repro.predictors import LatencyPredictor, StageSample, split_dataset


def _corpus(profile, prune):
    """The stage corpus with the profiler's pruned and fused graphs, or
    with the traced graphs as they are (neither pruned nor fused)."""
    setup = benchmark_setup("gpt", profile)
    sc = scenario_grid("platform2")[1]
    mesh = sc.mesh()
    samples = []
    for mb in profile.corpus_microbatches:
        for (s, e) in setup.clustering.all_slices():
            p = setup.profiler.profile_stage(s, e, mesh, sc.dp, sc.mp,
                                             microbatch=mb)
            g = p.graph if prune else setup.model.stage_graph(s, e, mb)
            samples.append(StageSample(g, p.latency, p.stage_id))
    return samples


def test_ablation_pruning(benchmark, profile, save_result):
    from repro.experiments.cache import global_cache

    cache = global_cache()
    key = f"ablation_pruning/{profile.name}"

    def run():
        hit = cache.get(key)
        if hit:
            return {k == "True": tuple(v) for k, v in hit.items()}
        out = {}
        for prune in (True, False):
            samples = _corpus(profile, prune)
            split = split_dataset(samples, max(profile.fractions), 0.1,
                                  profile.seed)
            from dataclasses import replace

            cfg = replace(profile.train_config(),
                          epochs=min(80, profile.epochs),
                          patience=min(80, profile.patience))
            lp = LatencyPredictor("dag_transformer", seed=profile.seed)
            res = lp.fit(split.train, split.val, cfg)
            out[prune] = (lp.evaluate_mre(split.test),
                          max(s.n_nodes for s in samples), res.wall_seconds)
        cache.set(key, {str(k): v for k, v in out.items()})
        return out

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = ["Ablation — §IV-B4 graph pruning (DAG Transformer, GPT)",
             f"{'pruning':>9s} {'test MRE %':>11s} {'max nodes':>10s} {'train s':>8s}"]
    for prune, (mre, nodes, secs) in out.items():
        lines.append(f"{'on' if prune else 'off':>9s} {mre:11.2f} "
                     f"{nodes:10d} {secs:8.0f}")
    save_result("ablation_pruning", "\n".join(lines))
    # pruning must shrink graphs
    assert out[True][1] < out[False][1]
