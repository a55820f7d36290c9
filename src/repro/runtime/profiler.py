"""Stage profiling: the measurement machinery PredTOP learns to replace.

:func:`profile_stage` is the full pipeline Alpa runs per candidate stage:
trace the slice, expand to the training graph, run the intra-op optimizer
for the mesh/configuration, and execute (simulate) it.  The result is both
the ground-truth latency (the predictor's regression target) and the
*optimization cost* of having obtained it (compile + transfer + measured
trials), which Fig 10a accounts.

Results are memoized per (model, slice, microbatch, mesh, config) — the
reproduction's stand-in for Alpa's profiling database.  Below that, each
piece of structural work runs once per process: a slice is traced once
(the training graph expands the predictor's lowered forward), structural
twins share one intra-op solve (``parallel.plans``) and one noise-free
execution (``runtime.executions``), and each measurement applies its own
noise factor.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.mesh import DeviceMesh, logical_views
from ..ir.autodiff import build_training_graph
from ..ir.fusion import fuse_elementwise
from ..ir.graph import Graph
from ..ir.pruning import prune_graph
from ..ir.serialize import canonical_hash
from ..memo import MEMO_BOUND, Memo, gc_paused, tier
from ..models.model import Model
from ..parallel.plan_cache import cached_optimize_stage
from .executor import StageProfile, execute_plan, measured
from .opcost import graph_costs

#: noise-free executions of committed plans.  An execution reads the
#: training graph's structure, the plan (which ``parallel.plans`` keys the
#: same way) and the logical mesh, plus one input ``canonical_hash``
#: leaves out: each operator's forward flag, which comes from its label
EXECUTIONS = tier("runtime.executions",
                  "(canonical graph hash, logical mesh key, forward flags)")


@dataclass(frozen=True)
class ProfiledStage:
    """One profiled (stage, mesh, configuration) measurement."""

    stage_id: str
    layer_range: tuple[int, int]
    mesh_key: str
    dp: int
    mp: int
    #: the pruned forward DAG — what the predictor sees (§IV-B2/B4)
    graph: Graph
    #: ground-truth training latency for one microbatch, seconds
    latency: float
    profile: StageProfile
    #: simulated seconds it cost to obtain this measurement
    profiling_cost: float


#: knobs of the profiling-cost model (seconds); calibrated to Alpa-like
#: magnitudes: XLA compilation dominated by graph size, a fixed data
#: staging cost, and warmup + timed trials at the measured latency.
COMPILE_BASE = 2.0
COMPILE_PER_NODE = 0.004
TRANSFER_COST = 0.5
WARMUP_TRIALS = 2
TIMED_TRIALS = 5


def profiling_cost(n_nodes: int, latency: float) -> float:
    """Simulated seconds to compile + profile one stage once."""
    compile_t = COMPILE_BASE + COMPILE_PER_NODE * n_nodes
    runs = (WARMUP_TRIALS + TIMED_TRIALS) * latency
    return compile_t + TRANSFER_COST + runs


class StageProfiler:
    """Profiles model stages on logical meshes, with memoization.

    Every stage graph is pruned (§IV-B4) and fused; ``aggressive_fusion``
    also folds single-consumer reductions and data movement into the
    fused chains.  The traced, unpruned graph is ``Model.stage_graph``.
    """

    def __init__(self, model: Model, aggressive_fusion: bool = False) -> None:
        self.model = model
        self.aggressive_fusion = aggressive_fusion
        self._profiles = Memo("runtime.profiles",
                              "(start, end, microbatch, mesh, dp, mp)")
        #: traced-and-lowered graphs per ("pred"|"train", start, end, mb);
        #: tracing + pruning + fusion dominates repeat profiling of one
        #: slice across meshes, and downstream memos (the plan cache,
        #: the graph signatures) key on the graph object or its hash, so
        #: returning the same instance also keeps them warm.  Bounded: a
        #: daemon client picks ``microbatch``
        self.graphs = Memo("runtime.stage_graphs",
                           "(pred|train, start, end, microbatch)",
                           bound=MEMO_BOUND)

    # ------------------------------------------------------------ graph prep
    def predictor_graph(self, start: int, end: int,
                        microbatch: int | None = None) -> Graph:
        """The stage DAG the predictor consumes: forward, pruned, fused."""
        key = ("pred", start, end, microbatch)
        g = self.graphs.lookup(key)
        if g is None:
            with gc_paused():
                g = prune_graph(self.model.stage_graph(start, end, microbatch))
                g, _ = fuse_elementwise(g, self.aggressive_fusion)
            g = self.graphs.put(key, g)
        return g

    def training_graph(self, start: int, end: int,
                       microbatch: int | None = None) -> Graph:
        """The graph whose execution the profiler times (fwd+bwd+update):
        the predictor graph, expanded, so a slice is traced once."""
        key = ("train", start, end, microbatch)
        g = self.graphs.lookup(key)
        if g is None:
            with gc_paused():
                g = build_training_graph(
                    self.predictor_graph(start, end, microbatch),
                    loss_to_scalar=(end == len(self.model.layers)))
            g = self.graphs.put(key, g)
        return g

    # -------------------------------------------------------------- profiling
    def profile_stage(
        self,
        start: int,
        end: int,
        mesh: DeviceMesh,
        dp: int,
        mp: int,
        microbatch: int | None = None,
    ) -> ProfiledStage:
        """Measure one (stage slice, mesh, logical config)."""
        key = (start, end, microbatch, mesh.key(), dp, mp)
        hit = self._profiles.lookup(key)
        if hit is not None:
            return hit
        with gc_paused():
            logical = mesh.logical(dp, mp)
            tg = self.training_graph(start, end, microbatch)
            # structurally identical slices (e.g. interior layer ranges of
            # the same width) share one intra-op DP solve through the plan
            # cache, and one noise-free execution, each measurement keeping
            # its own noise.  The plan lookup goes first: it hashes ``tg``
            plan = cached_optimize_stage(tg, logical)
            clean = EXECUTIONS.get(
                (canonical_hash(tg), logical.key(),
                 graph_costs(tg).forward_key),
                lambda: execute_plan(plan, noise=False))
            prof = measured(clean, tg, logical)
            result = ProfiledStage(
                stage_id=f"{self.model.name}[{start}:{end}]",
                layer_range=(start, end),
                mesh_key=mesh.key(),
                dp=dp,
                mp=mp,
                graph=self.predictor_graph(start, end, microbatch),
                latency=prof.latency,
                profile=prof,
                profiling_cost=profiling_cost(len(tg), prof.latency),
            )
        return self._profiles.put(key, result)

    def prime(self, profiled: ProfiledStage,
              microbatch: int | None = None) -> None:
        """Insert an externally obtained measurement into the memo.

        The parallel engine profiles stages in worker processes; priming
        the parent's cache with the returned results keeps later serial
        lookups (plan scoring, ground-truth comparisons) free.
        """
        self._profiles.put((*profiled.layer_range, microbatch,
                            profiled.mesh_key, profiled.dp, profiled.mp),
                           profiled)

    def best_profile(self, start: int, end: int, mesh: DeviceMesh,
                     microbatch: int | None = None) -> ProfiledStage:
        """The stage profiled at its best logical view of ``mesh`` (what
        Alpa's intra-op compiler would emit, §III); the first view with
        a strictly lower latency wins."""
        best: ProfiledStage | None = None
        for lv in logical_views(mesh):
            p = self.profile_stage(start, end, mesh, lv.dp, lv.mp, microbatch)
            if best is None or p.latency < best.latency:
                best = p
        assert best is not None
        return best
