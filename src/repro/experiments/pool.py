"""Long-lived fork-based worker pool (the engine's only parallel backend).

Every parallel ``parallel_map`` and ``supervised_map`` call runs on one
pool of workers kept alive across calls while its callable stays the
same, so such calls pay no fork and teardown, and whatever a worker
warmed up (plan caches, encoded graphs, profiled corpora) is reused:

* workers inherit the mapped callable and every live cache **once**,
  copy-on-write at fork time;
* tasks and results cross as pickled messages over per-worker duplex
  pipes;
* a worker that dies is detected by pipe-EOF, reported to the caller,
  and replaced — the pool heals instead of wedging (chaos-tested with
  ``worker_crash`` faults firing inside pool workers);
* the pool is transparently **restarted** whenever reuse would be
  incorrect: a different mapped callable (fork inheritance pins the
  callable at spawn time), a larger worker count, any ``REPRO_*``
  environment change (fault plans, cache roots, feature gates are read
  by workers), or a replaced multiprocessing context (tests inject
  broken ones).  Repeated maps over one hoisted callable — a daemon's
  searches within one model generation — keep their workers; a grid
  run calls :func:`shutdown` once its corpora are profiled in the
  parent, so its workers fork with them.  Sweeps over different
  callables do not: one ``search_predtop`` maps a per-searcher
  profiling callable, then a per-search fit closure, then (when two or
  more of its plan's stages are unprofiled) the profiling callable
  again to score the plan, and each of those sweeps forks the pool
  afresh.

Results never depend on worker identity or reuse: a parallel map is
bit-identical to the serial loop.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable

from .. import faults

#: the mapped callable, inherited by workers through the fork
_POOL_FN: Callable[[Any], Any] | None = None


@dataclass
class PoolStats:
    """Process-wide persistent-pool counters (benchmarks and tests)."""

    pools_started: int = 0
    workers_spawned: int = 0
    workers_respawned: int = 0
    tasks: int = 0

    def reset(self) -> None:
        self.pools_started = 0
        self.workers_spawned = 0
        self.workers_respawned = 0
        self.tasks = 0


_STATS = PoolStats()


def pool_stats() -> PoolStats:
    return _STATS


# --------------------------------------------------------------- the pool
def _pool_worker(conn) -> None:
    """Worker loop: serve tasks until told to stop (or killed).

    The callable arrives by fork inheritance (:data:`_POOL_FN`).  Fault
    sites fire per (index, attempt), as in the serial loop, so chaos
    plans reproduce identically; ``worker_crash`` kills this process
    outright and the parent's EOF detection takes over.  Task exceptions
    are reported and the worker lives on.
    """
    from . import engine

    engine._IN_WORKER = True
    faults.mark_worker()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            os._exit(0)
        if msg[0] == "stop":
            conn.close()
            os._exit(0)
        _, task_id, index, attempt, item, fire_faults = msg
        try:
            if fire_faults:
                faults.fire("worker_crash", index, attempt)
                faults.fire("cell_hang", index, attempt)
            assert _POOL_FN is not None
            conn.send((task_id, "ok", _POOL_FN(item)))
        except BaseException as exc:  # noqa: BLE001 - report, keep serving
            try:
                conn.send((task_id, "err", exc))
            except Exception:
                try:
                    conn.send((task_id, "err", f"{type(exc).__name__}: {exc}"))
                except Exception:
                    os._exit(1)


class _Worker:
    __slots__ = ("proc", "conn", "task_id")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.task_id: int | None = None  # None = idle


@dataclass(frozen=True)
class PoolEvent:
    """One observation from :meth:`PersistentPool.wait`."""

    kind: str  # "result" | "crash"
    task_id: int | None
    status: str = ""  # "ok" | "err" (kind == "result")
    payload: Any = None
    exitcode: int | None = None


def _repro_env() -> tuple:
    """The worker-visible environment slice; any change forces a restart
    (workers read ``REPRO_*`` — fault plans, cache roots, gates — from
    the environment they inherited at fork)."""
    return tuple(sorted((k, v) for k, v in os.environ.items()
                        if k.startswith("REPRO_")))


class PersistentPool:
    """A fixed-size set of long-lived fork workers with crash healing."""

    def __init__(self, ctx, fn: Callable, size: int) -> None:
        self.ctx = ctx
        self.fn = fn
        self.size = size
        self.env = _repro_env()
        self.workers: list[_Worker] = []
        self._next_task = 0
        global _POOL_FN
        _POOL_FN = fn  # stays set for the pool's lifetime: respawns re-fork
        try:
            for _ in range(size):
                self._spawn()
        except BaseException:
            self.shutdown()
            raise
        _STATS.pools_started += 1

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self) -> _Worker:
        parent_conn, child_conn = self.ctx.Pipe()
        proc = self.ctx.Process(target=_pool_worker, args=(child_conn,),
                                daemon=True)
        proc.start()
        child_conn.close()
        w = _Worker(proc, parent_conn)
        self.workers.append(w)
        _STATS.workers_spawned += 1
        return w

    def ensure_size(self) -> None:
        """Respawn workers until the pool is back at full strength."""
        while len(self.workers) < self.size:
            self._spawn()
            _STATS.workers_respawned += 1

    def _remove(self, worker: _Worker, terminate: bool) -> int | None:
        if worker in self.workers:
            self.workers.remove(worker)
        if terminate and worker.proc.is_alive():
            worker.proc.terminate()
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass
        worker.proc.join(timeout=5.0)
        if worker.proc.is_alive():  # pragma: no cover - stuck in kernel
            worker.proc.kill()
            worker.proc.join()
        return worker.proc.exitcode

    def kill(self, worker: _Worker) -> None:
        """Forcibly reclaim a worker (deadline enforcement)."""
        self._remove(worker, terminate=True)

    def abandon_inflight(self) -> None:
        """Kill busy workers (their results are unwanted) and heal.

        Called when a map raises mid-run: letting old tasks finish would
        leave stale results in the pipes for the next call."""
        for w in [w for w in self.workers if w.task_id is not None]:
            self._remove(w, terminate=True)
        try:
            self.ensure_size()
        except OSError:  # pragma: no cover - next get_pool restarts
            pass

    def shutdown(self) -> None:
        for w in list(self.workers):
            if w.task_id is None and w.proc.is_alive():
                try:
                    w.conn.send(("stop",))
                except OSError:
                    pass
                self._remove(w, terminate=False)
            else:
                self._remove(w, terminate=True)

    def alive(self) -> bool:
        return bool(self.workers) and all(w.proc.is_alive()
                                          for w in self.workers)

    # -- work --------------------------------------------------------------
    def idle_worker(self) -> _Worker | None:
        for w in self.workers:
            if w.task_id is None:
                return w
        return None

    def submit(self, worker: _Worker, index: int, attempt: int, item: Any,
               fire_faults: bool) -> int:
        task_id = self._next_task
        self._next_task += 1
        try:
            worker.conn.send(("task", task_id, index, attempt, item,
                              fire_faults))
        except (OSError, ValueError):
            # died between idle check and send: reclaim, let caller retry
            self._remove(worker, terminate=True)
            raise BrokenPipeError(f"pool worker {worker.proc.pid} is gone")
        worker.task_id = task_id
        _STATS.tasks += 1
        return task_id

    def wait(self, timeout: float) -> list[PoolEvent]:
        """Collect results and worker deaths, ``timeout`` seconds max.

        Watches every worker pipe (an idle worker only ever becomes
        readable at EOF, i.e. death).  Dead workers are removed — the
        caller decides when to :meth:`ensure_size` so it can account
        spawn failures."""
        conns = {w.conn: w for w in self.workers}
        events: list[PoolEvent] = []
        if not conns:
            time.sleep(min(timeout, 0.05))
            return events
        for conn in _conn_wait(list(conns), timeout=timeout):
            w = conns[conn]
            try:
                task_id, status, payload = conn.recv()
            except (EOFError, OSError):
                exitcode = self._remove(w, terminate=False)
                events.append(PoolEvent("crash", w.task_id,
                                        exitcode=exitcode))
                continue
            w.task_id = None
            events.append(PoolEvent("result", task_id, status, payload))
        return events


_POOL: PersistentPool | None = None


def shutdown() -> None:
    """Stop the process-wide pool; the next map forks fresh workers."""
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


#: the name perfbench's serving workload calls
_shutdown_global = shutdown

atexit.register(shutdown)


def get_pool(fn: Callable, jobs: int) -> PersistentPool:
    """The process-wide pool, restarted only when reuse would be wrong.

    Raises whatever the multiprocessing context raises when workers
    cannot be spawned (the engine degrades to its serial paths)."""
    global _POOL
    ctx = multiprocessing.get_context("fork")
    if _POOL is not None and (
            _POOL.fn is not fn or _POOL.size < jobs
            or _POOL.ctx is not ctx or _POOL.env != _repro_env()
            or not _POOL.alive()):
        _POOL.shutdown()
        _POOL = None
    if _POOL is None:
        _POOL = PersistentPool(ctx, fn, jobs)
    return _POOL


def map_ordered(pool: PersistentPool, items: list, jobs: int) -> list:
    """Ordered map over the pool; raises on task errors/worker deaths.

    At most ``jobs`` tasks in flight (the pool may be wider, kept warm
    for a larger caller).  A task exception re-raises in the parent; a
    worker death raises ``RuntimeError`` — callers wanting retry
    semantics use ``supervised_map``."""
    n = len(items)
    results: list[Any] = [None] * n
    next_item = 0
    done = 0
    inflight: dict[int, int] = {}  # task_id -> item index
    try:
        while done < n:
            while next_item < n and len(inflight) < jobs:
                w = pool.idle_worker()
                if w is None:
                    break
                try:
                    tid = pool.submit(w, next_item, 0, items[next_item],
                                      fire_faults=False)
                except BrokenPipeError:
                    pool.ensure_size()
                    continue
                inflight[tid] = next_item
                next_item += 1
            for ev in pool.wait(0.5):
                if ev.kind == "crash":
                    pool.ensure_size()
                    if ev.task_id is None:
                        continue  # died idle: healed, no task lost
                    idx = inflight.get(ev.task_id, -1)
                    raise RuntimeError(
                        f"pool worker died with exit code {ev.exitcode} "
                        f"while running item {idx}")
                idx = inflight.pop(ev.task_id)
                if ev.status == "ok":
                    results[idx] = ev.payload
                    done += 1
                else:
                    exc = ev.payload
                    if isinstance(exc, BaseException):
                        raise exc
                    raise RuntimeError(str(exc))
    except BaseException:
        pool.abandon_inflight()
        raise
    return results
