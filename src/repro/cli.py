"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``info``     — platforms, meshes, benchmark specs, experiment profiles;
* ``profile``  — simulate one stage on one runtime configuration;
* ``predict``  — train a predictor on sampled stages and predict them all
  (optionally persisting the trained predictor);
* ``search``   — run the plan-search use case with a chosen approach;
* ``bench``    — regenerate Table V/VI, Fig-10 or schedule-grid artifacts
  through the fault-tolerant experiment engine (``--jobs`` /
  ``REPRO_JOBS`` workers, ``--timeout`` / ``--retries`` supervision
  knobs); ``bench report`` summarizes the run-manifest journal
  (attempts, retries, failures, quarantines, breaker transitions) of
  previous runs; ``bench serve`` load-tests the serving daemon and
  writes ``BENCH_serve.json``;
* ``serve``    — the resilient serving daemon: load/fit a predictor once
  and answer JSON-lines requests (predict / predict_many / whatif /
  search / health) with deadlines, backpressure, and circuit-breaker
  degradation to the analytical estimator.

Exit codes are uniform across commands (:data:`EXIT_OK` …):

* ``0`` — completed fully;
* ``1`` — bad invocation or hard failure;
* ``2`` — partial results (failed grid cells after retries, or a serve
  bench with unanswered/unserved requests);
* ``3`` — degraded-only service (every answer came from the analytical
  fallback; the learned model path never served).
"""

from __future__ import annotations

import argparse
import sys

from .cluster.platforms import MESH_CONFIGS, PARALLEL_CONFIGS, PLATFORMS, get_platform
from .models.clustering import cluster_layers
from .models.configs import BENCHMARKS, benchmark_config
from .models.model import build_model
from .predictors.trainer import TrainConfig
from .runtime.schedules import schedule_names

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARTIAL = 2
EXIT_DEGRADED = 3


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", choices=sorted(BENCHMARKS), default="gpt",
                   help="benchmark model family")
    p.add_argument("--layers", type=int, default=2,
                   help="transformer block count (0 = full Table-IV depth)")
    p.add_argument("--platform", choices=sorted(PLATFORMS),
                   default="platform2")
    p.add_argument("--units", type=int, default=4,
                   help="layer-clustering units (stage boundaries)")
    p.add_argument("--seed", type=int, default=0)


def _build(args):
    from .runtime.profiler import StageProfiler

    cfg = benchmark_config(args.family, args.layers or None)
    model = build_model(cfg)
    clustering = cluster_layers(model, args.units)
    profiler = StageProfiler(model, aggressive_fusion=True)
    return model, clustering, profiler


def cmd_info(args) -> int:
    print("platforms:")
    for name, plat in sorted(PLATFORMS.items()):
        print(f"  {name}: {plat.n_nodes} node(s) x {plat.gpus_per_node}x "
              f"{plat.gpu.name}, intra={plat.intra_link.name}, "
              f"inter={plat.inter_link.name}")
    print("\nTable-II meshes:", MESH_CONFIGS)
    print("Table-III configs:", PARALLEL_CONFIGS)
    print("\nbenchmarks:")
    for name, cfg in sorted(BENCHMARKS.items()):
        model = build_model(cfg)
        print(f"  {name}: {cfg.name} — {model.param_count() / 1e9:.2f} B "
              f"params, seq {cfg.seq_len}, hidden {cfg.hidden}, "
              f"{cfg.n_layers} layers, {cfg.n_heads} heads")
    from .experiments.profiles import PROFILES

    print("\nexperiment profiles:")
    for name, prof in sorted(PROFILES.items()):
        print(f"  {name}: {prof.epochs} epochs, fractions {prof.fractions}, "
              f"gpt_layers={prof.gpt_layers}, units={prof.gpt_units}")
    from .runtime.schedules import get_schedule, schedule_names

    print("\npipeline schedules:")
    for name in schedule_names():
        doc = (get_schedule(name).__class__.__doc__ or "").strip()
        print(f"  {name}: {doc.splitlines()[0] if doc else ''}")
    from .cluster.mesh import topology_enabled
    from .parallel.handlers import describe_handlers

    gate = "on" if topology_enabled() else "off"
    print(f"\nstrategy handlers (topology-aware search REPRO_TOPO={gate}):")
    for name, keys, summary in describe_handlers():
        print(f"  {name} [{keys}]: {summary}")
    from .faults import SITE_SUMMARIES
    from .serving.protocol import OP_SUMMARIES

    print("\nserving endpoints (repro serve, JSON-lines over TCP):")
    for op, doc in OP_SUMMARIES.items():
        print(f"  {op}: {doc}")
    print("\nfault-injection sites (REPRO_FAULTS):")
    for site, doc in SITE_SUMMARIES.items():
        print(f"  {site}: {doc}")
    from .memo import MEMO_BOUND, snapshot
    from .parallel import plan_cache  # noqa: F401 - registers its tiers
    from .predictors import encoding_cache  # noqa: F401
    from .serving.server import SEARCH_CACHE_SIZE

    print("\nin-process memo tiers (LRU bound; clear_all() empties all but "
          "pinned ones):")
    for name, tier in snapshot().items():
        pinned = ", pinned" if tier["pinned"] else ""
        print(f"  {name} [{tier['key']}]: bound {tier['bound']}{pinned}")
    print(f"  per profiler: runtime.stage_graphs bound {MEMO_BOUND}, "
          f"runtime.profiles bound None; per daemon: serving.search "
          f"bound {SEARCH_CACHE_SIZE}; per serving runtime: "
          f"serving.predictions and serving.estimates bound {MEMO_BOUND}")
    print("\nexit codes: 0 = ok, 1 = error, 2 = partial results, "
          "3 = degraded-only service")
    return EXIT_OK


def cmd_profile(args) -> int:
    model, clustering, profiler = _build(args)
    platform = get_platform(args.platform)
    mesh = platform.mesh(args.mesh)
    start, end = clustering.slice_range(args.unit_start, args.unit_end)
    p = profiler.profile_stage(start, end, mesh, args.dp, args.mp,
                               microbatch=args.microbatch or None)
    prof = p.profile
    print(f"stage {p.stage_id} on {mesh} (dp={args.dp}, mp={args.mp})")
    print(f"  latency       {p.latency * 1e3:10.3f} ms")
    print(f"  compute       {prof.compute_time * 1e3:10.3f} ms")
    print(f"  collectives   {prof.comm_time * 1e3:10.3f} ms")
    print(f"  resharding    {prof.reshard_time * 1e3:10.3f} ms")
    print(f"  memory/GPU    {prof.memory_bytes / 1e9:10.2f} GB")
    print(f"  graph nodes   {prof.n_nodes:10d}")
    print(f"  profiling cost{p.profiling_cost:10.1f} s (simulated)")
    return 0


def cmd_predict(args) -> int:
    from .core.predtop import PredTOP, PredTOPConfig
    from .predictors.serialize import save_predictor

    model, clustering, profiler = _build(args)
    platform = get_platform(args.platform)
    mesh = platform.mesh(args.mesh)
    predtop = PredTOP(
        model, clustering, mesh,
        PredTOPConfig(
            predictor_kind=args.predictor,
            sample_fraction=args.sample_fraction,
            train=TrainConfig(epochs=args.epochs, patience=args.epochs,
                              batch_size=8, lr=2e-3, seed=args.seed),
            seed=args.seed,
            checkpoint_path=args.checkpoint or None,
            resume=args.resume,
        ),
        profiler=profiler,
    )
    preds = predtop.run_all_phases(dp=args.dp, mp=args.mp)
    print(f"{'stage':>12s} {'predicted':>12s} {'profiled':>12s} {'err':>8s}")
    errs = []
    for (s, e), pred in sorted(preds.items()):
        true = profiler.profile_stage(s, e, mesh, args.dp, args.mp).latency
        err = abs(pred - true) / true
        errs.append(err)
        print(f"  [{s:3d},{e:3d}) {pred * 1e3:10.2f}ms {true * 1e3:10.2f}ms "
              f"{err * 100:7.2f}%")
    print(f"\nMRE {100 * sum(errs) / len(errs):.2f}%  |  costs: "
          f"profiling {predtop.costs.profiling_seconds:.0f}s (simulated), "
          f"training {predtop.costs.training_seconds:.0f}s, "
          f"inference {predtop.costs.inference_seconds:.2f}s")
    if args.save:
        path = save_predictor(predtop.predictor, args.save)
        print(f"predictor saved to {path}")
    return 0


def cmd_search(args) -> int:
    import dataclasses
    import json

    from .core.search import APPROACHES, PlanSearcher
    from .predictors.trust import TrustConfig

    model, clustering, profiler = _build(args)
    platform = get_platform(args.platform)
    trust = TrustConfig.from_env()
    if args.trust:
        trust = dataclasses.replace(trust, enabled=True)
    if args.trust_budget >= 0:
        trust = dataclasses.replace(trust, budget=args.trust_budget)
    searcher = PlanSearcher(
        model, clustering, platform.cluster(),
        n_microbatches=args.microbatches,
        profiler=profiler,
        sample_fraction=args.sample_fraction,
        train_config=TrainConfig(epochs=args.epochs, patience=args.epochs,
                                 batch_size=8, lr=2e-3, seed=args.seed),
        seed=args.seed,
        trust=trust,
        schedule=args.schedule,
    )
    approaches = APPROACHES if args.approach == "all" else (args.approach,)
    out = {}
    for approach in approaches:
        r = searcher.run(approach)
        out[approach] = {
            "latency_ms": r.true_iteration_latency * 1e3,
            "cost_s": r.optimization_cost,
            "stages": r.plan.n_stages,
            "table_entries": r.n_table_entries,
            "degradations": r.degradations,
            "trust": r.trust.as_dict() if r.trust is not None else None,
        }
        if args.json:
            continue
        print(f"== {approach}")
        print(r.plan.describe())
        print(f"   optimization cost {r.optimization_cost:9.1f} s, "
              f"true latency {r.true_iteration_latency * 1e3:8.1f} ms")
        if r.trust is not None and (r.trust.total or r.trust.retrained
                                    or r.trust.degraded):
            print(f"   {r.trust.summary()}")
        for note in r.degradations:
            print(f"   degraded: {note}")
        print()
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def cmd_serve(args) -> int:
    import dataclasses

    from .experiments.cache import global_cache
    from .predictors.trust import TrustConfig
    from .serving import (PredictorRuntime, ReproRouter, ReproServer,
                          RouterConfig, RuntimeConfig, ServerConfig,
                          TenancyConfig)

    if args.router:
        router = ReproRouter(
            [(args.host, port) for port in args.router],
            RouterConfig(host=args.host, port=args.port),
            journal_root=global_cache().root)
        router.start()
        host, port = router.address
        print(f"routing on {host}:{port} across "
              f"{len(args.router)} replica(s) "
              f"({', '.join(f'{args.host}:{p}' for p in args.router)}); "
              f"SIGTERM/SIGINT drains gracefully")
        return router.serve_forever()

    tenancy = TenancyConfig.load(args.tenants) if args.tenants else None
    trust = dataclasses.replace(TrustConfig.from_env(), enabled=True,
                                ensemble_size=max(1, args.ensemble))
    cfg = RuntimeConfig(
        family=args.family, layers=args.layers, platform=args.platform,
        mesh=args.mesh, units=args.units, seed=args.seed,
        predictor=args.predictor, sample_fraction=args.sample_fraction,
        epochs=args.epochs, checkpoints=tuple(args.checkpoint),
        trust=trust, schedule=args.schedule)
    source = (f"checkpoints {', '.join(cfg.checkpoints)}"
              if cfg.checkpoints else
              f"startup fit ({cfg.epochs} epochs, K={trust.ensemble_size})")
    print(f"loading predictor runtime: {cfg.family}/{cfg.layers} layers on "
          f"{cfg.platform} mesh{cfg.mesh}, {source} ...")
    runtime = PredictorRuntime.build(cfg)
    server = ReproServer(
        runtime,
        ServerConfig(host=args.host, port=args.port, workers=args.workers,
                     max_queue=args.max_queue,
                     default_deadline_ms=args.deadline_ms,
                     reload_poll_s=args.reload_poll,
                     tenancy=tenancy),
        journal_root=global_cache().root)
    server.start()
    host, port = server.address
    print(f"serving on {host}:{port} "
          f"({'model+analytical' if runtime.ensemble else 'ANALYTICAL ONLY'}"
          f"); SIGTERM/SIGINT drains gracefully")
    return server.serve_forever()


def cmd_bench(args) -> int:
    from pathlib import Path

    from .experiments import run_use_case
    from .experiments.engine import n_jobs, run_grid_report
    from .experiments.export import export_mre_grid, export_use_case
    from .experiments.manifest import read_events, summarize
    from .experiments.profiles import PROFILES, active_profile
    from .experiments.reporting import render_mre_table, render_use_case
    from .predictors.base import PREDICTOR_KINDS

    if args.target == "report":
        from .experiments.cache import global_cache

        cache = global_cache()
        if cache.root is None:
            print("manifest: cache disabled (REPRO_CACHE=off), no journal")
            return EXIT_ERROR
        print(summarize(read_events(cache.root)))
        quarantined = cache.quarantined()
        if quarantined:
            print("quarantined shards:")
            for path in quarantined:
                print(f"  {path}")
        return EXIT_OK

    if args.target == "serve":
        import json

        from .experiments.cache import global_cache
        from .perf import run_noisy_neighbor_bench, run_serve_bench

        journal_root = global_cache().root
        address = (args.host, args.port) if args.port else None
        result = run_serve_bench(quick=args.quick, address=address,
                                 clients=args.clients or None,
                                 requests_per_client=args.requests or None,
                                 router_replicas=args.replicas,
                                 journal_root=journal_root)
        if address is None and not args.replicas and not args.no_noisy:
            result["noisy_neighbor"] = run_noisy_neighbor_bench(
                quick=args.quick, journal_root=journal_root)
        out = Path(args.output or Path(__file__).resolve().parents[2]
                   ) / "BENCH_serve.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
        t = result["totals"]
        print(f"serve bench: {result['answered']}/{result['requests_sent']} "
              f"answered at {result['throughput_rps']:.1f} rps "
              f"(ok {t['ok']}, model-served {t['ok_model']}, degraded "
              f"{t['degraded']}, shed-final {t['shed_final']}, unanswered "
              f"{t['unanswered']}; chaos: {t['conn_drops']} conn drops, "
              f"{t['slow_loris']} slow-loris, {t['garbage_sent']} garbage) "
              f"[saved to {out}]")
        for tr in result["breaker_transitions"]:
            print(f"  breaker {tr['route']}: {tr['from']} -> {tr['to']} "
                  f"({tr['reason']})")
        if "router" in result:
            r = result["router"]
            print(f"  router: {r['replicas']} replicas, "
                  f"{r['failovers']} failover(s), chaos events: "
                  f"{[e['event'] for e in r['chaos']]}")
        noisy_ok = True
        if "noisy_neighbor" in result:
            n = result["noisy_neighbor"]
            noisy_ok = bool(n["isolation_holds"])
            print(f"  noisy neighbor: victim p99 "
                  f"{n['solo']['victim_p99_ms']} ms solo, "
                  f"{n['isolated']['victim_p99_ms']} ms isolated "
                  f"(x{n['isolated_p99_ratio']}), "
                  f"{n['unisolated']['victim_p99_ms']} ms unisolated "
                  f"(x{n['unisolated_p99_ratio']}) — isolation "
                  f"{'holds' if noisy_ok else 'VIOLATED'}")
        if not result["zero_unanswered"] or t["ok"] == 0 or not noisy_ok:
            return EXIT_PARTIAL
        if t["ok_model"] == 0 and t["degraded"] > 0:
            return EXIT_DEGRADED
        return EXIT_OK

    profile = PROFILES[args.profile] if args.profile else active_profile()

    jobs = args.jobs if args.jobs else n_jobs()
    if args.family == "both":
        families: tuple[str, ...] = ("gpt", "moe")
    elif args.family == "all":
        families = ("gpt", "moe", "bert", "vit")
    else:
        families = (args.family,)
    out_dir = Path(args.output or
                   Path(__file__).resolve().parents[2] / "results") / profile.name
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.target == "schedules":
        from .experiments.export import export_schedule_grid
        from .experiments.reporting import render_schedule_grid
        from .experiments.schedule_grid import run_schedule_grid
        from .runtime.schedules import schedule_names

        if args.quick:
            families = families[:1]
        schedules = (schedule_names() if args.schedule == "all"
                     else (args.schedule,))
        report = run_schedule_grid(
            families, profile, schedules, jobs=jobs,
            timeout=args.timeout or None,
            retries=args.retries if args.retries >= 0 else None)
        for family in families:
            cells = [c for (fam, _), c in report.cells.items()
                     if fam == family]
            stem = f"schedule_grid_{family}"
            text = render_schedule_grid(cells, family, profile.name)
            export_schedule_grid(cells, out_dir / f"{stem}.csv")
            (out_dir / f"{stem}.txt").write_text(text + "\n")
            print(f"{text}\n[{stem}: profile={profile.name} jobs={jobs}, "
                  f"saved under {out_dir}]\n")
        if report.failures:
            print(f"!! {len(report.failures)}/{report.n_cells} schedule "
                  f"cells failed after retries ({report.attempts} attempts, "
                  f"mode={report.mode}); see `repro bench report`")
        return EXIT_PARTIAL if report.failures else EXIT_OK

    tables = {"table5": "platform1", "table6": "platform2"}
    targets = tables if args.target == "tables" else {args.target: tables.get(args.target)}
    failed_cells = 0

    for target, platform in targets.items():
        for family in families:
            if target == "usecase":
                result = run_use_case(family, profile, jobs=jobs)
                text = render_use_case(result)
                data = {a: {"cost": r.optimization_cost,
                            "latency": r.true_iteration_latency,
                            "stages": r.plan.n_stages}
                        for a, r in result.results.items()}
                stem = f"fig10_{family}"
                export_use_case(data, out_dir / f"{stem}.csv")
            else:
                report = run_grid_report(
                    platform, family, profile, PREDICTOR_KINDS,
                    profile.fractions, jobs=jobs,
                    timeout=args.timeout or None,
                    retries=args.retries if args.retries >= 0 else None)
                grid = report.results
                text = render_mre_table(grid, platform, family,
                                        profile.fractions)
                stem = f"{target}_{family}"
                export_mre_grid(grid, out_dir / f"{stem}.csv")
                if report.failures:
                    failed_cells += len(report.failures)
                    text += (f"\n!! {len(report.failures)}/{report.cells} "
                             f"cells failed after retries "
                             f"({report.attempts} attempts, mode="
                             f"{report.mode}); see `repro bench report`")
                if report.retrained or report.diverged:
                    text += (f"\n!! divergence guard: {report.retrained} "
                             f"cell(s) retrained with a fresh seed, "
                             f"{report.diverged} still diverged")
            (out_dir / f"{stem}.txt").write_text(text + "\n")
            print(f"{text}\n[{stem}: profile={profile.name} "
                  f"jobs={jobs}, saved under {out_dir}]\n")
    return EXIT_PARTIAL if failed_cells else EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="PredTOP reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="list platforms, benchmarks, profiles")

    p = sub.add_parser("profile", help="simulate one stage measurement")
    _add_model_args(p)
    p.add_argument("--mesh", type=int, default=2, choices=sorted(MESH_CONFIGS))
    p.add_argument("--dp", type=int, default=2)
    p.add_argument("--mp", type=int, default=1)
    p.add_argument("--unit-start", type=int, default=0)
    p.add_argument("--unit-end", type=int, default=1)
    p.add_argument("--microbatch", type=int, default=0)

    p = sub.add_parser("predict", help="train a predictor, predict all stages")
    _add_model_args(p)
    p.add_argument("--mesh", type=int, default=2, choices=sorted(MESH_CONFIGS))
    p.add_argument("--dp", type=int, default=2)
    p.add_argument("--mp", type=int, default=1)
    p.add_argument("--predictor", default="dag_transformer",
                   choices=("dag_transformer", "gcn", "gat"))
    p.add_argument("--sample-fraction", type=float, default=0.6)
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--save", default="", help="save trained predictor (.npz)")
    p.add_argument("--checkpoint", default="",
                   help="persist training state here every epoch (.npz)")
    p.add_argument("--resume", action="store_true",
                   help="resume training from --checkpoint if present")

    p = sub.add_parser("search", help="plan-search use case (Fig 10)")
    _add_model_args(p)
    p.add_argument("--approach", default="all",
                   choices=("all", "full", "partial",
                            "predtop-dag_transformer", "predtop-gcn",
                            "predtop-gat"))
    p.add_argument("--microbatches", type=int, default=8)
    p.add_argument("--sample-fraction", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=40)
    p.add_argument("--json", action="store_true",
                   help="emit machine-readable results instead of plan text")
    p.add_argument("--trust", action="store_true",
                   help="enable the gray-box trust layer (ensemble "
                        "uncertainty, OOD + physical-bounds guards) even "
                        "without REPRO_TRUST=1")
    p.add_argument("--trust-budget", type=float, default=-1.0,
                   help="simulated profiling seconds the escalation policy "
                        "may spend re-profiling suspect predictions "
                        "(-1 = REPRO_TRUST_BUDGET / 0)")
    p.add_argument("--schedule", default="1f1b",
                   choices=schedule_names(),
                   help="pipeline schedule for the DP objective and plan "
                        "scoring (closed form + event simulation)")

    p = sub.add_parser("serve", help="resilient serving daemon (JSON lines "
                                     "over TCP)")
    _add_model_args(p)
    p.add_argument("--mesh", type=int, default=2, choices=sorted(MESH_CONFIGS))
    p.add_argument("--predictor", default="dag_transformer",
                   choices=("dag_transformer", "gcn", "gat"))
    p.add_argument("--checkpoint", action="append", default=[],
                   help="saved predictor (.npz) to serve; repeat for an "
                        "ensemble (default: fit at startup)")
    p.add_argument("--ensemble", type=int, default=1,
                   help="members to fit at startup when no --checkpoint")
    p.add_argument("--sample-fraction", type=float, default=0.5)
    p.add_argument("--epochs", type=int, default=8,
                   help="startup-fit epochs (ignored with --checkpoint)")
    p.add_argument("--schedule", default="1f1b", choices=schedule_names())
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7713,
                   help="listen port (0 = ephemeral)")
    p.add_argument("--workers", type=int, default=2,
                   help="executor threads for whatif/search")
    p.add_argument("--max-queue", type=int, default=32,
                   help="bounded executor queue (admission control)")
    p.add_argument("--deadline-ms", type=float, default=30_000.0,
                   help="default per-request deadline")
    p.add_argument("--reload-poll", type=float, default=0.0,
                   help="poll --checkpoint files every N seconds and "
                        "hot-reload in place (0 = off)")
    p.add_argument("--tenants", default="",
                   help="tenants.json with per-tenant budgets (rate, "
                        "burst, max_inflight, max_queued, weight, "
                        "op_costs); a \"default\" entry sets the class "
                        "unknown tenants fall into; default: unlimited")
    p.add_argument("--router", type=int, nargs="+", default=[],
                   metavar="PORT",
                   help="run a consistent-hash failover router over the "
                        "daemon replicas at these ports on --host instead "
                        "of a daemon (no model is loaded)")

    p = sub.add_parser(
        "bench", help="regenerate experiment grids via the fault-tolerant "
                      "engine")
    p.add_argument("target",
                   choices=("table5", "table6", "tables", "usecase",
                            "schedules", "serve", "report"),
                   help="which artifact to (re)compute (schedules: the "
                        "validated simulator-vs-closed-form grid -> "
                        "schedule_grid_<family>.csv; serve: the daemon "
                        "load test -> BENCH_serve.json; report: summarize "
                        "the run-manifest journal)")
    p.add_argument("--quick", action="store_true",
                   help="serve: reduced fleet; schedules: first family "
                        "only (CI smoke)")
    p.add_argument("--host", default="127.0.0.1",
                   help="serve target: daemon host (with --port)")
    p.add_argument("--port", type=int, default=0,
                   help="serve target: an already-running daemon to hit "
                        "(0 = boot one in-process)")
    p.add_argument("--clients", type=int, default=0,
                   help="serve target: synthetic client count "
                        "(0 = mode default)")
    p.add_argument("--requests", type=int, default=0,
                   help="serve target: requests per client "
                        "(0 = mode default)")
    p.add_argument("--replicas", type=int, default=0,
                   help="serve target: boot N replicas behind a router "
                        "and bench through it (0 = single daemon); a "
                        "replica_down fault rule arms the chaos "
                        "controller")
    p.add_argument("--no-noisy", action="store_true",
                   help="serve target: skip the noisy-neighbor isolation "
                        "scenario (runs by default for in-process single-"
                        "daemon benches)")
    p.add_argument("--family",
                   choices=("gpt", "moe", "bert", "vit", "both", "all"),
                   default="both",
                   help="benchmark families (both = gpt+moe, all adds "
                        "bert+vit)")
    p.add_argument("--schedule", default="all",
                   choices=("all",) + schedule_names(),
                   help="schedules target: which registered pipeline "
                        "schedule(s) to validate")
    p.add_argument("--jobs", type=int, default=0,
                   help="engine workers (0 = REPRO_JOBS / cpu count)")
    p.add_argument("--timeout", type=float, default=0.0,
                   help="per-cell wall-clock budget in seconds "
                        "(0 = REPRO_CELL_TIMEOUT / unlimited)")
    p.add_argument("--retries", type=int, default=-1,
                   help="retries per failed cell "
                        "(-1 = REPRO_CELL_RETRIES / 2)")
    p.add_argument("--profile", choices=("smoke", "fast", "paper"),
                   default="", help="experiment profile (default: "
                   "REPRO_PROFILE or fast)")
    p.add_argument("--output", default="",
                   help="results directory (default: <repo>/results)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return {"info": cmd_info, "profile": cmd_profile,
            "predict": cmd_predict, "search": cmd_search,
            "serve": cmd_serve, "bench": cmd_bench}[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
