"""Memoization tier for the intra-op optimizer.

The Table V/VI grids profile hundreds of (stage slice, mesh) pairs, and
many of those slices are *structurally identical*: a GPT slice covering
layers [2, 5) produces the same training DAG — same ops, topology,
shapes, dtypes, and operator params — as the slice covering [3, 6), only
with different node labels.  ``optimize_stage``'s dynamic program depends
solely on that structure plus the logical mesh, so its result can be
shared across all such twins (the CFP observation: memoize structurally
identical parallelism subproblems).

The memo key is ``(canonical graph hash, logical-mesh key)``; the mesh
key encodes device counts, the GPU model, and the link classes each axis
strides, i.e. every input the strategy/cost models read.  Entries hold
the committed assignments and the DP estimate, rebound to the caller's
graph object on every lookup, so downstream consumers (the executor,
whose measurement noise is keyed on the *name* of the graph) see exactly
the plan the DP would have produced for that graph.

A miss runs :func:`~.intra_op.optimize_stage`; tests pin it against the
pure-Python oracle :func:`~.intra_op.optimize_stage_reference`.
"""

from __future__ import annotations

from ..cluster.mesh import LogicalMesh
from ..ir.graph import Graph
from ..ir.serialize import canonical_hash
from ..memo import Memo, tier
from .intra_op import IntraOpPlan, optimize_stage

PLANS = tier("parallel.plans", "(canonical graph hash, logical mesh key)")


def global_plan_cache() -> Memo:
    return PLANS


def _solve(graph: Graph, mesh: LogicalMesh) -> tuple:
    plan = optimize_stage(graph, mesh)
    return tuple(plan.assignments), plan.estimated_time


def cached_optimize_stage(graph: Graph, mesh: LogicalMesh,
                          memo: Memo | None = None) -> IntraOpPlan:
    """`optimize_stage` through ``memo`` (the global plan memo by
    default)."""
    memo = PLANS if memo is None else memo
    assignments, estimated = memo.get((canonical_hash(graph), mesh.key()),
                                      lambda: _solve(graph, mesh))
    return IntraOpPlan(graph, mesh, list(assignments), estimated)
