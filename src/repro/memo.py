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

import os
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, TypeVar

V = TypeVar("V")

#: the one LRU bound of the tiers a client can grow (the encoding memo
#: and each profiler's graph memo): above every working set the repo's
#: own searches, benchmarks and grids reach, so none of them evicts
MEMO_BOUND = 4096

_MISSING = object()


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
        self._lock = threading.Lock()
        _LIVE.add(self)

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
#: every memo, for the fork hook below
_LIVE: "weakref.WeakSet[Memo]" = weakref.WeakSet()


def _fresh_locks_after_fork() -> None:
    # the daemon forks search workers from threads: a lock another thread
    # held at fork time would never be released in the child
    for memo in list(_LIVE):
        memo._lock = threading.Lock()


os.register_at_fork(after_in_child=_fresh_locks_after_fork)


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
