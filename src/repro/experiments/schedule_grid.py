"""Per-(family, schedule) pipeline-latency cells, simulator-vs-closed-form.

Each cell profiles the benchmark's per-unit stage latencies on a single
GPU (platform 2, mesh 1, ``dp=mp=1`` — the Table-III baseline
configuration), then evaluates one registered pipeline schedule on that
stage vector: the closed-form latency, the event-driven simulation, and
the schedule's lower bound.  ``ScheduleSpec.validate`` runs inside every
cell, so a grid that completes *is* the validation contract — any
simulator/closed-form disagreement fails the cell and surfaces through
the fault-tolerant engine's failure accounting.

Cells fan out through :func:`supervised_map` like the Table V/VI grids
(crash/hang/exception supervision, run-manifest journaling), which also
puts the new model families (BERT, ViT) on the chaos-grid CI path.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

from ..cluster.platforms import get_platform
from ..runtime.schedules import get_schedule, schedule_names
from .cache import global_cache
from .corpus import benchmark_setup
from .engine import CellFailure, supervised_map, worker_count
from .manifest import append_event
from .profiles import ExperimentProfile

#: the runtime configuration every cell profiles stages on
_PLATFORM, _MESH, _DP, _MP = "platform2", 1, 1, 1


@dataclass(frozen=True)
class ScheduleCell:
    """One validated (family, schedule) pipeline-latency evaluation."""

    family: str
    schedule: str
    n_stages: int
    n_microbatches: int
    stage_times: tuple[float, ...]
    closed_form: float
    simulated: float
    lower_bound: float
    #: events emitted by the simulation (n_stages x B x phases-per-pass)
    n_events: int


@dataclass
class ScheduleGridReport:
    """Outcome of one schedule-grid run."""

    cells: dict[tuple[str, str], ScheduleCell]
    failures: list[CellFailure]
    n_cells: int
    attempts: int
    wall_seconds: float
    mode: str

    @property
    def completed(self) -> int:
        return self.n_cells - len(self.failures)


def stage_time_vector(family: str,
                      profile: ExperimentProfile) -> tuple[float, ...]:
    """Per-unit stage latencies of one benchmark on the baseline config."""
    setup = benchmark_setup(family, profile)
    mesh = get_platform(_PLATFORM).mesh(_MESH)
    times = []
    for u in range(setup.clustering.n_units):
        s, e = setup.clustering.slice_range(u, u + 1)
        times.append(setup.profiler.profile_stage(s, e, mesh, _DP,
                                                  _MP).latency)
    return tuple(times)


def run_schedule_cell(family: str, schedule: str,
                      profile: ExperimentProfile) -> ScheduleCell:
    """Profile one family's stages and validate one schedule on them."""
    spec = get_schedule(schedule)
    times = stage_time_vector(family, profile)
    B = profile.n_microbatches
    # asserts simulated == closed form and simulated >= lower bound
    spec.validate(list(times), B)
    sim = spec.simulate(list(times), B)
    return ScheduleCell(
        family=family,
        schedule=spec.name,
        n_stages=len(times),
        n_microbatches=B,
        stage_times=times,
        closed_form=spec.closed_form(list(times), B),
        simulated=sim.makespan,
        lower_bound=spec.lower_bound(list(times), B),
        n_events=len(sim.events),
    )


def run_schedule_grid(
    families: Sequence[str],
    profile: ExperimentProfile,
    schedules: Sequence[str] | None = None,
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> ScheduleGridReport:
    """Run every (family, schedule) cell through the supervised engine."""
    schedules = tuple(schedules) if schedules else schedule_names()
    cells = [(family, schedule)
             for family in families for schedule in schedules]
    labels = [f"schedules/{family}/{schedule}"
              for (family, schedule) in cells]
    jobs = worker_count(jobs)
    cache = global_cache()
    if cache.root is not None:
        cache.reap_stale()
    run_id = f"schedules-{profile.name}-{os.getpid()}"
    append_event(cache.root, "grid_start", run=run_id, cells=len(cells),
                 jobs=jobs)
    if jobs > 1:
        # profile each family's stage vector once in the parent so forked
        # workers inherit the profiler memo copy-on-write
        for family in dict.fromkeys(family for (family, _) in cells):
            stage_time_vector(family, profile)
    start = time.perf_counter()
    outcome = supervised_map(
        lambda cell: run_schedule_cell(cell[0], cell[1], profile),
        cells, jobs, timeout=timeout, retries=retries, labels=labels,
        manifest_root=cache.root, run_id=run_id)
    out = {(c.family, c.schedule): c
           for c in outcome.results if c is not None}
    report = ScheduleGridReport(out, outcome.failures, len(cells),
                                outcome.attempts,
                                time.perf_counter() - start, outcome.mode)
    append_event(cache.root, "grid_done", run=run_id,
                 completed=report.completed, failed=len(report.failures),
                 attempts=report.attempts, mode=report.mode,
                 wall_seconds=round(report.wall_seconds, 3))
    return report
