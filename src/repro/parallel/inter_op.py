"""Inter-operator parallelization: Alpa's stage-slicing dynamic program.

Given per-(slice, submesh) optimal stage latencies — obtained either by
profiling or by PredTOP prediction — choose contiguous unit slices and
submesh assignments minimizing the pipeline latency, by default Eqn 4

``T = Σ t_i + (B-1) · max_j t_j``

over all partitions whose submeshes exactly cover the cluster.  Following
Alpa (OSDI'22 §5.2), the max term is handled by iterating over candidate
``t_max`` values (the distinct stage latencies): for each bound, a DP
minimizes ``Σ t_i`` subject to every stage's latency ≤ ``t_max``; the best
objective over all bounds is optimal.

Other schedules plug in through their
:class:`~repro.runtime.schedules.ScheduleSpec`: the DP minimizes the
schedule's ``dp_objective(sum_t, max_t, B)`` (1F1B's is Eqn 4).  Any
function nondecreasing in both arguments keeps the t_max-iteration
scheme exact, because for a fixed bound the DP still minimizes ``Σ t_i``
and the per-bound optimum is ``dp_objective(min Σ t, t_max, B)``.

``StageLatencySource`` abstracts where latencies come from, so exhaustive
profiling, partial profiling, and PredTOP variants all reuse this DP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

from ..cluster.mesh import DeviceMesh
from ..models.clustering import Clustering
from .plans import ParallelPlan, StageAssignment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.schedules import ScheduleSpec

INFEASIBLE = float("inf")


class StageLatencySource(Protocol):
    """Optimal intra-stage latency of unit slice [i, j) on a submesh."""

    def latency(self, unit_start: int, unit_end: int,
                submesh_index: int) -> float: ...


@dataclass
class LatencyTable(StageLatencySource):
    """Dense table implementation backed by a dict."""

    values: dict[tuple[int, int, int], float] = field(default_factory=dict)

    def set(self, i: int, j: int, m: int, value: float) -> None:
        self.values[(i, j, m)] = value

    def latency(self, unit_start: int, unit_end: int,
                submesh_index: int) -> float:
        return self.values.get((unit_start, unit_end, submesh_index),
                               INFEASIBLE)

    def all_latencies(self) -> list[float]:
        return [v for v in self.values.values() if v < INFEASIBLE]


def slice_stages(
    clustering: Clustering,
    submeshes: Sequence[DeviceMesh],
    source: StageLatencySource,
    n_microbatches: int,
    total_devices: int | None = None,
    max_stages: int | None = None,
    schedule: "ScheduleSpec | None" = None,
) -> ParallelPlan:
    """Run the Alpa inter-op DP; returns the best pipeline plan.

    Args:
        clustering: the model's layer units (stage boundaries).
        submeshes: candidate submeshes (sorted arbitrarily; indexed by
            position when querying ``source``).
        source: per-(slice, submesh) optimal stage latency.
        n_microbatches: ``B`` in the pipeline closed form.
        total_devices: devices that must be exactly covered (default: the
            largest submesh's device count).
        max_stages: optional cap on pipeline depth.
        schedule: pipeline schedule whose ``dp_objective`` the DP
            minimizes (``None`` = 1F1B, Eqn 4).

    Returns:
        The minimizing :class:`ParallelPlan`; its ``iteration_latency`` is
        ``inf`` when no feasible cover exists.
    """
    U = clustering.n_units
    D = total_devices or max(m.num_devices for m in submeshes)

    if schedule is None:
        from ..runtime.schedules import get_schedule

        schedule = get_schedule("1f1b")

    # distinct candidate t_max values, ascending
    candidates = sorted({
        source.latency(i, j, mi)
        for i in range(U) for j in range(i + 1, U + 1)
        for mi in range(len(submeshes))
        if source.latency(i, j, mi) < INFEASIBLE})
    if not candidates:
        return ParallelPlan([], INFEASIBLE, n_microbatches)

    best_plan: ParallelPlan | None = None
    best_total = INFEASIBLE
    for t_max in candidates:
        # candidates ascend: once the t_max-only term alone (the
        # objective at sum_t = 0; dp_objective is nondecreasing) reaches
        # the incumbent, no later bound can win
        if (best_plan is not None and schedule.dp_objective(
                0.0, t_max, n_microbatches) >= best_total):
            break
        total, stages = _dp_min_sum(clustering, submeshes, source, D,
                                    t_max, max_stages)
        if total >= INFEASIBLE:
            continue
        pipeline = schedule.dp_objective(total, t_max, n_microbatches)
        if pipeline < best_total:
            best_total = pipeline
            best_plan = ParallelPlan(stages, pipeline, n_microbatches)
    return best_plan or ParallelPlan([], INFEASIBLE, n_microbatches)


def _dp_min_sum(
    clustering: Clustering,
    submeshes: Sequence[DeviceMesh],
    source: StageLatencySource,
    total_devices: int,
    t_max: float,
    max_stages: int | None,
) -> tuple[float, list[StageAssignment]]:
    """min Σ t_i covering all units with exactly ``total_devices`` devices,
    every stage latency ≤ t_max."""
    U = clustering.n_units
    sizes = [m.num_devices for m in submeshes]
    S_CAP = max_stages or U

    # F[u][d] = (cost, backpointer): first u units placed using d devices
    F: list[dict[int, tuple[float, tuple | None]]] = [
        {0: (0.0, None)} if u == 0 else {} for u in range(U + 1)]
    for u in range(U):
        for d, (cost, _) in list(F[u].items()):
            if cost >= INFEASIBLE:
                continue
            for j in range(u + 1, U + 1):
                for mi, nd in enumerate(sizes):
                    nd_total = d + nd
                    if nd_total > total_devices:
                        continue
                    t = source.latency(u, j, mi)
                    if t > t_max or t >= INFEASIBLE:
                        continue
                    new_cost = cost + t
                    cur = F[j].get(nd_total)
                    if cur is None or new_cost < cur[0]:
                        F[j][nd_total] = (new_cost, (u, d, mi, t))

    final = F[U].get(total_devices)
    if final is None:
        return INFEASIBLE, []
    # backtrack
    stages: list[StageAssignment] = []
    u, d = U, total_devices
    while u > 0:
        cost, bp = F[u][d]
        if bp is None:
            break
        pu, pd, mi, t = bp
        stages.append(StageAssignment(
            unit_range=(pu, u),
            layer_range=clustering.slice_range(pu, u),
            submesh_index=mi,
            submesh=submeshes[mi],
            latency=t,
        ))
        u, d = pu, pd
    stages.reverse()
    if max_stages is not None and len(stages) > max_stages:
        return INFEASIBLE, []
    return final[0], stages
