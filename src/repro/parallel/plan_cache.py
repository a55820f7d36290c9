"""Memoization tier for the intra-op optimizer.

The Table V/VI grids profile hundreds of (stage slice, mesh) pairs, and
many of those slices are *structurally identical*: a GPT slice covering
layers [2, 5) produces the same training DAG — same ops, topology,
shapes, dtypes, and operator params — as the slice covering [3, 6), only
with different node labels.  ``optimize_stage``'s dynamic program depends
solely on that structure plus the logical mesh, so its result can be
shared across all such twins (the CFP observation: memoize structurally
identical parallelism subproblems).

The cache key is ``(canonical graph hash, logical-mesh key)``; the mesh
key encodes device counts, the GPU model, and the link classes each axis
strides, i.e. every input the strategy/cost models read.  Cached entries
hold the committed assignments and the DP estimate; on a hit they are
rebound to the caller's graph object, so downstream consumers (the
executor, whose measurement noise is keyed on the *name* of the graph)
see exactly the plan the DP would have produced for that graph.

A miss runs :func:`~.intra_op.optimize_stage`; tests pin it against the
pure-Python oracle :func:`~.intra_op.optimize_stage_reference`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..cluster.mesh import LogicalMesh
from ..ir.graph import Graph
from ..ir.serialize import canonical_hash
from .intra_op import IntraOpPlan, NodeAssignment, optimize_stage


@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class PlanCache:
    """In-process memo of intra-op DP results keyed by graph structure.

    Thread-safe: the serving daemon profiles and solves from multiple
    threads.  The DP solve itself runs outside the lock (it is the
    expensive part and deterministic per key), so racing threads on one
    cold key each solve and the first insert wins — identical results
    either way.
    """

    _entries: dict[tuple[str, str], tuple[list[NodeAssignment], float]] = \
        field(default_factory=dict)
    stats: PlanCacheStats = field(default_factory=PlanCacheStats)
    _lock: threading.RLock = field(default_factory=threading.RLock,
                                   repr=False)

    def optimize(self, graph: Graph, mesh: LogicalMesh) -> IntraOpPlan:
        key = (canonical_hash(graph), mesh.key())
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self.stats.hits += 1
                assignments, estimated = hit
                return IntraOpPlan(graph, mesh, list(assignments), estimated)
            self.stats.misses += 1
        plan = optimize_stage(graph, mesh)
        with self._lock:
            self._entries.setdefault(
                key, (list(plan.assignments), plan.estimated_time))
        return plan

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = PlanCacheStats()


_GLOBAL: PlanCache | None = None


def global_plan_cache() -> PlanCache:
    global _GLOBAL
    if _GLOBAL is None:
        _GLOBAL = PlanCache()
    return _GLOBAL


def cached_optimize_stage(graph: Graph, mesh: LogicalMesh) -> IntraOpPlan:
    """`optimize_stage` through the global plan cache."""
    return global_plan_cache().optimize(graph, mesh)
