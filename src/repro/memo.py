"""One memo primitive for every in-process cache tier.

PredTOP's search and serving paths avoid redoing work on structurally
repeated stages: intra-op DP solves keyed on a graph's canonical hash,
CFP-style signature collapse, per-mesh cost tables, graph encodings, the
profiler's lowered graphs, the daemon's search answers.  Each of those
tiers is a :class:`Memo`:

* ``get(key, compute)`` is a thread-safe get-or-compute.  The compute
  runs *outside* the lock (it is the expensive, deterministic part), so
  threads racing on one cold key may each compute, and the first insert
  wins: every caller gets the one published value.
* hits, misses and evictions are counted; :attr:`Memo.stats` snapshots
  them.
* an optional LRU ``bound`` is fixed where the memo is built.  Only the
  tiers a client can grow are bounded (:data:`MEMO_BOUND`).

Every memo's lock is built by :func:`fork_safe_lock`, the one rule for
locks a forked pool worker can take.  Beside it sits :func:`gc_paused`,
the cyclic-collector pause that the profiler's memo misses run under,
with the same care for forked workers.

Memos built with :func:`tier` are module-level and registered:
:func:`clear_all` empties them and resets their counters (tests and
benchmarks), and :func:`snapshot` reports them (``health``, ``repro
info``).  Per-instance memos (a profiler's graphs, a daemon's search
answers) are plain ``Memo(...)`` objects and stay out of the registry,
so it never keeps their owner alive.

Rules the tiers built on this rely on:

* **Hot lookups read ``entries`` directly.**  ``op_time_cached``,
  ``ReshardCache.time``/``column``/``matrix``, ``spec_id`` and the
  per-node collapse-vector and signature-table reads run hundreds of
  thousands of times per search, so they are one ``dict.get`` on an
  unbounded memo's ``entries``, with no lock and no counter (the collapse
  reads add their hit/miss totals once per solve through :meth:`record`).
  Only unbounded memos may be used this way; a bounded memo's order is
  its LRU state and is touched only under the lock.
* **Interns are cleared with their dependents or not at all.**  The
  signature intern (``ir.signatures``) hands out integer ids that the
  graph-signature memo, the per-mesh signature tables and the collapse
  vectors store, so only :func:`clear_all` clears it, in the same call
  as every memo holding its ids.  The sharding-spec intern
  (``parallel.specs``) is ``pinned``: its ids and canonical instances
  live for the whole process, and :func:`clear_all` leaves it alone.
"""

from __future__ import annotations

import gc
import os
import threading
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, TypeVar

V = TypeVar("V")

#: the one LRU bound of the tiers a client can grow (the encoding memo
#: and each profiler's graph memo): above every working set the repo's
#: own searches, benchmarks and grids reach, so none of them evicts
MEMO_BOUND = 4096

_MISSING = object()

#: every lock built by :func:`fork_safe_lock`, for the fork hook below
_FORK_SAFE: "weakref.WeakSet" = weakref.WeakSet()


def fork_safe_lock(factory: Callable[[], V] = threading.Lock) -> V:
    """A new ``factory()`` lock that a forked child gets back released.

    The persistent pool forks its workers lazily, from a process that
    may already run threads (the daemon forks on its first search and
    on every respawn).  A lock that another thread held at fork time
    would stay held in the child forever, by a thread that does not
    exist there.  So every lock a pool child can take is built here, and
    the at-fork hook re-initialises each one in the child, as CPython
    does for its own locks (``threading``, ``logging``).  Those locks:

    * each :class:`Memo`'s lock (a worker reads and fills the tiers);
    * ``PredictorRuntime.model_lock`` (a daemon search candidate
      predicts through the ensemble in a worker);
    * ``sharding._INTERN_LOCK`` (a worker interns sharding specs);
    * the lock of :func:`gc_paused` (a worker profiles stages).

    The breaker, tenancy, server and router locks stay plain, parent-only
    locks: they guard admission, queues, connections, counters and
    replica state, which only the parent's request and connection
    threads touch.  A pool child runs mapped cells, never requests.
    """
    lock = factory()
    _FORK_SAFE.add(lock)
    return lock


def _reinit_locks_after_fork() -> None:
    for lock in list(_FORK_SAFE):
        lock._at_fork_reinit()


os.register_at_fork(after_in_child=_reinit_locks_after_fork)


#: live :func:`gc_paused` blocks per thread id, and the collector state
#: the outermost one found
_GC_LOCK = fork_safe_lock()
_GC_DEPTH: dict[int, int] = {}
_GC_WAS_ENABLED = True


@contextmanager
def gc_paused():
    """Run the block with Python's cyclic collector disabled.

    Stage profiling (graph builds, plan solves, executions) allocates
    hundreds of thousands of objects and frees them all by refcount:
    it makes no cyclic garbage.  Collector passes triggered by those
    allocations find nothing, yet each older-generation pass walks every
    memo tier.  So the profiler's miss paths run paused, and code on
    them must stay cycle-free (``tests/test_cycle_free.py``).  Never
    pause around model training: the seed autograd path builds cyclic
    tapes.

    Reentrant and thread-safe: the collector is process-wide, so the
    first block to enter (in any thread) records ``gc.isenabled()`` and
    disables it, and the last to leave restores what it recorded; a
    caller that disabled the collector itself keeps it disabled.
    Thresholds are left alone.
    """
    global _GC_WAS_ENABLED
    me = threading.get_ident()
    with _GC_LOCK:
        if not _GC_DEPTH:
            _GC_WAS_ENABLED = gc.isenabled()
            gc.disable()
        _GC_DEPTH[me] = _GC_DEPTH.get(me, 0) + 1
    try:
        yield
    finally:
        with _GC_LOCK:
            if _GC_DEPTH[me] == 1:
                del _GC_DEPTH[me]
            else:
                _GC_DEPTH[me] -= 1
            if not _GC_DEPTH and _GC_WAS_ENABLED:
                gc.enable()


def gc_pause_depth() -> int:
    """Live :func:`gc_paused` blocks, over all threads."""
    with _GC_LOCK:
        return sum(_GC_DEPTH.values())


def gc_snapshot() -> dict:
    """The collector's own counters, as ``health`` reports them: per
    generation its ``collections``, ``collected`` and ``uncollectable``
    totals, the allocation ``count`` towards each generation's next
    pass, and the live pause depth.  Reading them costs nothing: no
    callbacks are installed."""
    return {"generations": gc.get_stats(), "count": list(gc.get_count()),
            "paused": gc_pause_depth()}


def _gc_pauses_after_fork() -> None:
    # only the forking thread lives on in the child: keep its blocks, so
    # the collector comes back when they exit, and drop the others', so
    # a worker forked while another thread profiles does not run with
    # the collector off for good
    if not _GC_DEPTH:
        return
    me = threading.get_ident()
    mine = _GC_DEPTH.get(me)
    _GC_DEPTH.clear()
    if mine:
        _GC_DEPTH[me] = mine
    elif _GC_WAS_ENABLED:
        gc.enable()


os.register_at_fork(after_in_child=_gc_pauses_after_fork)


@dataclass(frozen=True)
class MemoStats:
    """Counters of one memo at one instant."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Memo:
    """Thread-safe get-or-compute memo with counters and an optional
    LRU bound (see the module docstring for the rules hot callers and
    interns follow)."""

    def __init__(self, name: str, key: str, bound: int | None = None, *,
                 weak: bool = False) -> None:
        if bound is not None and (bound < 1 or weak):
            raise ValueError("bound must be >= 1 on a strong-keyed memo")
        self.name = name
        #: what the memo is keyed on, for ``repro info`` and the docs
        self.key = key
        self.bound = bound
        self.pinned = False
        #: the storage; weak keys drop an entry with its key object
        self.entries: dict = (weakref.WeakKeyDictionary() if weak
                              else OrderedDict() if bound else {})
        self.hits = self.misses = self.evictions = 0
        self._lock = fork_safe_lock()

    def lookup(self, key, default=None):
        """The cached value for ``key`` (counted), else ``default``."""
        with self._lock:
            value = self.entries.get(key, _MISSING)
            if value is _MISSING:
                self.misses += 1
                return default
            self.hits += 1
            if self.bound is not None:
                self.entries.move_to_end(key)
            return value

    def put(self, key, value: V) -> V:
        """Publish ``value`` unless ``key`` already has one; returns the
        published value (the first insert wins)."""
        with self._lock:
            value = self.entries.setdefault(key, value)
            if self.bound is not None:
                while len(self.entries) > self.bound:
                    self.entries.popitem(last=False)
                    self.evictions += 1
            return value

    def get(self, key, compute: Callable[[], V]) -> V:
        """The value for ``key``, computing and publishing it on a miss."""
        value = self.lookup(key, _MISSING)
        if value is _MISSING:
            value = self.put(key, compute())
        return value

    def record(self, hits: int = 0, misses: int = 0) -> None:
        """Add counts of lookups made directly on :attr:`entries`."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def clear(self) -> None:
        """Drop every entry (in place) and reset the counters."""
        with self._lock:
            self.entries.clear()
            self.hits = self.misses = self.evictions = 0

    @property
    def stats(self) -> MemoStats:
        with self._lock:
            return MemoStats(self.hits, self.misses, self.evictions)

    def describe(self) -> dict:
        """Key, bound, size and counters, as ``health`` reports them."""
        with self._lock:
            return {"key": self.key, "bound": self.bound,
                    "pinned": self.pinned, "entries": len(self.entries),
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}

    def __len__(self) -> int:
        return len(self.entries)


_TIERS: list[Memo] = []


def tier(name: str, key: str, bound: int | None = None, *,
         weak: bool = False, pinned: bool = False) -> Memo:
    """A module-level memo, registered for :func:`clear_all` and
    :func:`snapshot`; a ``pinned`` one is never cleared."""
    memo = Memo(name, key, bound, weak=weak)
    memo.pinned = pinned
    _TIERS.append(memo)
    return memo


def clear_all() -> None:
    """Empty every registered, unpinned memo and reset its counters."""
    for memo in _TIERS:
        if not memo.pinned:
            memo.clear()


def snapshot() -> dict[str, dict]:
    """:meth:`Memo.describe` of every registered memo, by name."""
    return {memo.name: memo.describe() for memo in _TIERS}
