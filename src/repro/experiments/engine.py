"""Fault-tolerant parallel experiment engine.

The Table V/VI grids — (scenario × fraction × predictor) cells, each one
an independent numpy predictor-training run — dominate benchmark wall
time and are embarrassingly parallel, the same structure Alpa exploits
when it profiles stages across the device grid.  Alpa-style measurement
campaigns also *fail* routinely (OOM kills, hangs, infeasible configs),
so the engine is built to absorb cell failures rather than die on them.
This module provides:

* :func:`n_jobs` — the worker count, from ``REPRO_JOBS`` (default
  ``os.cpu_count()``); ``REPRO_JOBS=1`` preserves the serial path
  exactly;
* :func:`parallel_map` — ordered map over the persistent fork-based
  worker pool (:mod:`~repro.experiments.pool`), degrading to the plain
  serial loop (with a warning) when the pool cannot be created;
* :func:`supervised_map` — the fault-tolerant map over the same pool:
  per-cell timeouts (``REPRO_CELL_TIMEOUT``), bounded retries
  (``REPRO_CELL_RETRIES``) with exponential backoff from
  :data:`RETRY_BACKOFF`, dead-worker detection with respawn and
  resubmission, and partial-failure accounting — the map returns
  completed results plus structured :class:`CellFailure` records instead
  of raising;
* :func:`run_grid` / :func:`run_grid_report` — the Table V/VI cell grid
  through the supervisor, journaled to the run manifest
  (``.repro_cache/manifest.jsonl``), on workers forked after the parent
  profiled the grid's stage corpora.

Determinism: every cell derives its seed from the experiment profile
alone (never from worker identity, completion order, or — critically —
the *attempt number*), so a cell that crashed, hung, or errored and was
retried produces bit-identical results to a clean first-try run, and a
faulted parallel run is bit-identical to a fault-free serial one.
Workers share results through the sharded on-disk cache
(:mod:`repro.experiments.cache`), which tolerates concurrent writers,
checksums its shards, and quarantines corruption.

Nested parallelism is suppressed: inside an engine worker
:func:`worker_count` is 1 whatever ``jobs`` a caller asks for, so
``parallel_map``, ``supervised_map`` and an ensemble fit run in-process
there and a parallel grid never forks a second tier of pools (a
daemonic worker may not have children).  Deterministic chaos testing
hooks into the worker bootstrap and the serial loop via
:mod:`repro.faults` (``REPRO_FAULTS``).
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence, TypeVar

from .. import faults
from ..env import env_setting
from . import pool as pool_mod
from .manifest import append_event
from .profiles import ExperimentProfile
from .scenarios import Scenario, scenario_grid

T = TypeVar("T")
R = TypeVar("R")

#: set in pool workers so nested calls degrade to the serial path
_IN_WORKER = False

#: consecutive process-spawn failures before the supervisor declares the
#: pool unhealthy and degrades to the serial path
_MAX_SPAWN_FAILURES = 3

#: base retry delay in seconds; attempt ``k`` waits ``backoff * 2**(k-1)``
RETRY_BACKOFF = 0.05


def n_jobs(default: int | None = None) -> int:
    """Worker count from ``REPRO_JOBS`` (default ``os.cpu_count()``)."""
    if _IN_WORKER:
        return 1
    jobs = env_setting("REPRO_JOBS", None, int)
    if jobs is not None:
        return max(1, jobs)
    if default is not None:
        return max(1, default)
    return os.cpu_count() or 1


def worker_count(jobs: int | None) -> int:
    """Workers a map may use: ``jobs`` (None = :func:`n_jobs`), but 1
    inside a pool worker whatever the caller asked for."""
    if _IN_WORKER:
        return 1
    return n_jobs() if jobs is None else max(1, jobs)


def cell_timeout() -> float:
    """Per-cell wall-clock budget from ``REPRO_CELL_TIMEOUT`` (seconds;
    0 = unlimited, the default)."""
    return max(0.0, env_setting("REPRO_CELL_TIMEOUT", 0.0))


def cell_retries() -> int:
    """Retries per failed cell from ``REPRO_CELL_RETRIES`` (default 2)."""
    return max(0, int(env_setting("REPRO_CELL_RETRIES", 2)))


def parallel_map(
    fn: Callable[[T], R],
    items: Iterable[T],
    jobs: int | None = None,
) -> list[R]:
    """``[fn(x) for x in items]`` over a process pool, order preserved.

    Serial (and pool-free) when :func:`worker_count` resolves to 1 (as
    it always does inside a pool worker), when there are fewer than two
    items, or when the platform cannot fork; if creating the pool itself
    fails (fd exhaustion, fork limits), the map degrades to the serial
    loop with a warning instead of raising.  Items and results cross the
    process boundary by pickling; ``fn`` itself does not — it is
    inherited through the fork — so closures over live objects
    (profilers, searchers) are fine.

    The map runs over the :mod:`~repro.experiments.pool` persistent
    workers, which survive across calls while ``fn`` and the ``REPRO_*``
    environment stay the same; a different ``fn`` restarts the pool, so
    only repeated maps over one stable callable skip the fork.  Results
    are bit-identical to the serial loop.
    """
    items = list(items)
    jobs = min(worker_count(jobs), len(items))
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    try:
        workers = pool_mod.get_pool(fn, jobs)
    except ValueError:  # pragma: no cover - non-POSIX, no fork context
        return [fn(x) for x in items]
    except (OSError, AttributeError) as exc:
        warnings.warn(f"process pool unavailable ({exc}); "
                      f"running {len(items)} items serially", stacklevel=2)
        return [fn(x) for x in items]
    return pool_mod.map_ordered(workers, items, jobs)


# --------------------------------------------------------- fault supervision
@dataclass(frozen=True)
class CellFailure:
    """One item that exhausted its retries (or one failed attempt)."""

    index: int
    label: str
    attempts: int
    #: ``crash`` (worker died), ``timeout`` (killed past deadline), or
    #: ``exception`` (the cell raised)
    failure_class: str
    detail: str


@dataclass
class MapOutcome:
    """What :func:`supervised_map` observed: results + failure accounting."""

    #: in submission order; ``None`` where the item exhausted retries
    results: list[Any]
    failures: list[CellFailure] = field(default_factory=list)
    attempts: int = 0
    #: ``parallel``, ``serial``, or ``degraded`` (parallel → serial mid-run)
    mode: str = "parallel"


def _serial_supervised(
    fn: Callable[[T], Any],
    items: list[T],
    outcome: MapOutcome,
    todo: list[int],
    retries: int,
    backoff: float,
    labels: Sequence[str],
    manifest_root,
    run_id: str,
) -> MapOutcome:
    """The in-process fallback: same retry/accounting contract, no forks.

    Timeouts are unenforceable without a subprocess to kill, so a
    ``cell_hang`` fault here simply sleeps its ``secs`` — keep them
    short in serial chaos runs.
    """
    for index in todo:
        for attempt in range(retries + 1):
            outcome.attempts += 1
            append_event(manifest_root, "cell_attempt", run=run_id,
                         index=index, label=labels[index], attempt=attempt,
                         mode="serial")
            try:
                faults.fire("worker_crash", index, attempt)
                faults.fire("cell_hang", index, attempt)
                outcome.results[index] = fn(items[index])
            except Exception as exc:  # noqa: BLE001 - absorbed per contract
                detail = f"{type(exc).__name__}: {exc}"
                if attempt < retries:
                    append_event(manifest_root, "cell_retry", run=run_id,
                                 index=index, label=labels[index],
                                 attempt=attempt, detail=detail)
                    time.sleep(backoff * (2 ** attempt))
                    continue
                outcome.failures.append(CellFailure(
                    index, labels[index], attempt + 1, "exception", detail))
                append_event(manifest_root, "cell_failed", run=run_id,
                             index=index, label=labels[index],
                             attempts=attempt + 1, **{"class": "exception"},
                             detail=detail)
            else:
                append_event(manifest_root, "cell_done", run=run_id,
                             index=index, label=labels[index],
                             attempt=attempt)
            break
    return outcome


def supervised_map(
    fn: Callable[[T], Any],
    items: Iterable[T],
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
    backoff: float | None = None,
    labels: Sequence[str] | None = None,
    manifest_root=None,
    run_id: str = "",
) -> MapOutcome:
    """Ordered map with supervision: crashes, hangs, and exceptions in
    ``fn`` cost retries, not the run.

    Attempts lease workers of the :mod:`~repro.experiments.pool`
    persistent pool (``fn`` crosses by fork inheritance, items and
    results by pickling).  A worker that dies (``crash``) or exceeds
    ``timeout`` seconds (``timeout``; killed) is replaced, and the
    attempt — like one that raised (``exception``) — is resubmitted up
    to ``retries`` times with exponential backoff; fault sites fire
    inside the worker per (index, attempt), as in the serial loop.  An
    item that exhausts its retries yields ``None`` in ``results`` plus a
    :class:`CellFailure`, and every attempt is journaled to the manifest
    under ``manifest_root``.  If workers cannot be (re)spawned the
    supervisor declares the pool unhealthy and finishes the remaining
    items serially (``mode="degraded"``).
    """
    items = list(items)
    n = len(items)
    jobs = min(worker_count(jobs), max(1, n))
    timeout = cell_timeout() if timeout is None else max(0.0, timeout)
    retries = cell_retries() if retries is None else max(0, retries)
    backoff = RETRY_BACKOFF if backoff is None else max(0.0, backoff)
    labels = list(labels) if labels is not None else [f"item{i}" for i in range(n)]
    outcome = MapOutcome(results=[None] * n)
    if jobs <= 1 or n < 2:
        outcome.mode = "serial"
        return _serial_supervised(fn, items, outcome, list(range(n)),
                                  retries, backoff, labels, manifest_root,
                                  run_id)

    def _unhealthy(exc) -> None:
        warnings.warn(f"worker pool unhealthy ({exc}); degrading to "
                      f"the serial path for the remaining cells",
                      stacklevel=3)

    try:
        workers = pool_mod.get_pool(fn, jobs)
    except ValueError:  # pragma: no cover - non-POSIX, no fork context
        outcome.mode = "serial"
        return _serial_supervised(fn, items, outcome, list(range(n)),
                                  retries, backoff, labels, manifest_root,
                                  run_id)
    except (OSError, AttributeError) as exc:
        _unhealthy(exc)
        outcome.mode = "degraded"
        return _serial_supervised(fn, items, outcome, list(range(n)),
                                  retries, backoff, labels, manifest_root,
                                  run_id)

    pending: list[tuple[int, int]] = [(i, 0) for i in range(n)]
    eligible_at: dict[int, float] = {}
    #: task id -> (index, attempt, deadline, worker)
    inflight: dict[int, tuple[int, int, float, Any]] = {}
    spawn_failures = 0
    degraded = False

    def _finish_attempt(index: int, attempt: int, failure_class: str,
                        detail: str) -> None:
        if attempt < retries:
            eligible_at[index] = time.monotonic() + backoff * (2 ** attempt)
            pending.append((index, attempt + 1))
            append_event(manifest_root, "cell_retry", run=run_id,
                         index=index, label=labels[index], attempt=attempt,
                         **{"class": failure_class}, detail=detail)
        else:
            outcome.failures.append(CellFailure(
                index, labels[index], attempt + 1, failure_class, detail))
            append_event(manifest_root, "cell_failed", run=run_id,
                         index=index, label=labels[index],
                         attempts=attempt + 1, **{"class": failure_class},
                         detail=detail)

    def _heal() -> None:
        """Bring the pool back to strength, tracking consecutive spawn
        failures; past the limit the run degrades to serial."""
        nonlocal spawn_failures, degraded
        try:
            workers.ensure_size()
        except OSError as exc:
            spawn_failures += 1
            if spawn_failures >= _MAX_SPAWN_FAILURES:
                _unhealthy(exc)
                degraded = True
            else:
                time.sleep(0.05 * spawn_failures)
        else:
            spawn_failures = 0

    try:
        while pending or inflight:
            now = time.monotonic()
            launchable = [pa for pa in pending
                          if eligible_at.get(pa[0], 0.0) <= now]
            for index, attempt in launchable:
                if len(inflight) >= jobs or degraded:
                    break
                worker = workers.idle_worker()
                if worker is None:
                    _heal()
                    worker = workers.idle_worker()
                    if worker is None:
                        break
                try:
                    tid = workers.submit(worker, index, attempt,
                                         items[index], fire_faults=True)
                except BrokenPipeError:
                    _heal()
                    continue
                pending.remove((index, attempt))
                outcome.attempts += 1
                append_event(manifest_root, "cell_attempt", run=run_id,
                             index=index, label=labels[index],
                             attempt=attempt, worker=worker.proc.pid)
                deadline = now + timeout if timeout > 0 else float("inf")
                inflight[tid] = (index, attempt, deadline, worker)
            if degraded:
                break
            if not inflight:
                if not pending:
                    break
                # every pending attempt is in its backoff window
                next_at = min(eligible_at.get(i, 0.0) for i, _ in pending)
                time.sleep(max(0.0, min(next_at - time.monotonic(), 0.5)))
                continue

            # wait for results, worker deaths (pipe EOF), or a deadline
            next_deadline = min(d for _, _, d, _ in inflight.values())
            wait_for = min(max(0.0, next_deadline - time.monotonic()), 0.5)
            for ev in workers.wait(wait_for):
                if ev.kind == "crash":
                    _heal()
                    lease = (inflight.pop(ev.task_id, None)
                             if ev.task_id is not None else None)
                    if lease is not None:
                        index, attempt, _, _ = lease
                        _finish_attempt(index, attempt, "crash",
                                        f"worker died with exit code "
                                        f"{ev.exitcode}")
                    continue
                lease = inflight.pop(ev.task_id, None)
                if lease is None:  # pragma: no cover - stale result
                    continue
                index, attempt, _, _ = lease
                if ev.status == "ok":
                    outcome.results[index] = ev.payload
                    append_event(manifest_root, "cell_done", run=run_id,
                                 index=index, label=labels[index],
                                 attempt=attempt)
                else:
                    payload = ev.payload
                    detail = (f"{type(payload).__name__}: {payload}"
                              if isinstance(payload, BaseException)
                              else str(payload))
                    _finish_attempt(index, attempt, "exception", detail)
            # enforce deadlines on whatever is still leased
            now = time.monotonic()
            for tid, (index, attempt, deadline,
                      worker) in list(inflight.items()):
                if deadline <= now:
                    del inflight[tid]
                    workers.kill(worker)
                    _heal()
                    _finish_attempt(
                        index, attempt, "timeout",
                        f"cell exceeded {timeout:.1f}s; worker killed")
    except BaseException:  # pragma: no cover - abnormal exit
        workers.abandon_inflight()
        raise

    if degraded:
        outcome.mode = "degraded"
        todo = sorted({index for index, _ in pending}
                      | {lease[0] for lease in inflight.values()})
        workers.abandon_inflight()
        return _serial_supervised(fn, items, outcome, todo, retries,
                                  backoff, labels, manifest_root, run_id)
    return outcome


# --------------------------------------------------------------- grid engine
def grid_cells(
    platform_name: str,
    kinds: Sequence[str],
    fractions: Sequence[float],
) -> list[tuple[Scenario, float, str]]:
    """The (scenario, fraction, kind) cell list in canonical table order."""
    return [(scenario, float(fraction), kind)
            for scenario in scenario_grid(platform_name)
            for fraction in fractions
            for kind in kinds]


def _run_one_cell(task: tuple) -> tuple:
    """Pool worker: one grid cell → its scalar results (picklable)."""
    from .tables import run_cell

    family, scenario, fraction, kind, profile = task
    cell = run_cell(family, scenario, fraction, kind, profile)
    return (cell.scenario_key, cell.fraction, cell.kind, cell.mre,
            cell.epochs_run, cell.train_seconds, cell.diverged,
            cell.retrained)


@dataclass
class GridRunReport:
    """Completed cells plus the structured failure report of one grid run."""

    results: dict[tuple[str, float, str], float]
    failures: list[CellFailure]
    cells: int
    attempts: int
    wall_seconds: float
    mode: str
    #: cells whose first fit diverged and were retrained with a fresh seed
    retrained: int = 0
    #: cells still diverged after the retraining pass
    diverged: int = 0

    @property
    def completed(self) -> int:
        return self.cells - len(self.failures)


def run_grid_report(
    platform_name: str,
    family: str,
    profile: ExperimentProfile,
    kinds: Sequence[str],
    fractions: Sequence[float],
    jobs: int | None = None,
    timeout: float | None = None,
    retries: int | None = None,
) -> GridRunReport:
    """One full Table V/VI half under supervision.

    Never raises on cell failures: completed cells land in ``results``
    (``{(scenario, fraction, kind): MRE%}``), cells that exhausted their
    retries are listed in ``failures``, and every attempt is journaled
    to the cache root's ``manifest.jsonl``.
    """
    import numpy as np

    from .cache import global_cache

    cells = grid_cells(platform_name, kinds, fractions)
    tasks = [(family, scenario, fraction, kind, profile)
             for (scenario, fraction, kind) in cells]
    labels = [f"{platform_name}/{family}/{scenario.key}/f{fraction:.2f}/{kind}"
              for (scenario, fraction, kind) in cells]
    jobs = worker_count(jobs)
    cache = global_cache()
    if cache.root is not None:
        cache.reap_stale()
    run_id = f"{platform_name}-{family}-{profile.name}-{os.getpid()}"
    append_event(cache.root, "grid_start", run=run_id, cells=len(cells),
                 jobs=jobs)
    if jobs > 1:
        # profile the stage corpora once in the parent (cheap relative to
        # training), then fork fresh workers that inherit them
        # copy-on-write: an earlier grid's would re-profile them
        from .corpus import stage_corpus

        for scenario in {scenario for (scenario, _, _) in cells}:
            stage_corpus(family, scenario, profile)
        pool_mod.shutdown()
    start = time.perf_counter()
    outcome = supervised_map(_run_one_cell, tasks, jobs, timeout=timeout,
                             retries=retries, labels=labels,
                             manifest_root=cache.root, run_id=run_id)
    out: dict[tuple[str, float, str], float] = {}
    n_retrained = n_diverged = 0
    for row in outcome.results:
        if row is None:
            continue
        (scenario_key, fraction, kind, mre, _epochs, _secs,
         diverged, retrained) = row
        n_retrained += bool(retrained)
        n_diverged += bool(diverged)
        if not np.isnan(mre):
            out[(scenario_key, fraction, kind)] = mre
    report = GridRunReport(out, outcome.failures, len(cells),
                           outcome.attempts,
                           time.perf_counter() - start, outcome.mode,
                           retrained=n_retrained, diverged=n_diverged)
    append_event(cache.root, "grid_done", run=run_id,
                 completed=report.completed, failed=len(report.failures),
                 attempts=report.attempts, mode=report.mode,
                 retrained=report.retrained, diverged=report.diverged,
                 wall_seconds=round(report.wall_seconds, 3))
    return report


def run_grid(
    platform_name: str,
    family: str,
    profile: ExperimentProfile,
    kinds: Sequence[str],
    fractions: Sequence[float],
    jobs: int | None = None,
) -> dict[tuple[str, float, str], float]:
    """One full Table V/VI half: ``{(scenario, fraction, kind): MRE%}``.

    Back-compat wrapper over :func:`run_grid_report`: with ``jobs == 1``
    the cells run in-process exactly as the legacy serial loop did; with
    more workers they fan out under the supervisor and land in the
    shared sharded cache, so a subsequent serial pass (or figure
    aggregation) sees the identical numbers.  Cells that exhausted their
    retries are reported with a warning and omitted from the dict.
    """
    report = run_grid_report(platform_name, family, profile, kinds,
                             fractions, jobs)
    if report.failures:
        warnings.warn(
            f"{len(report.failures)}/{report.cells} grid cells failed after "
            f"retries: "
            + ", ".join(f.label for f in report.failures[:5])
            + ("…" if len(report.failures) > 5 else ""),
            stacklevel=2)
    return report.results
