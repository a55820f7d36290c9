"""Parallelization substrate: sharding, intra-op and inter-op optimization."""

from .inter_op import LatencyTable, StageLatencySource, slice_stages
from .intra_op import (IntraOpPlan, NodeAssignment, optimize_stage,
                       optimize_stage_reference)
from .plan_cache import cached_optimize_stage, global_plan_cache
from .plans import ParallelPlan, StageAssignment
from .resharding import ReshardCache, reshard_cache, reshard_time
from .sharding import (REPLICATED, ShardingSpec, candidate_specs, intern_spec,
                       iter_axes, spec_by_id, spec_id)
from .handlers import (NodeHandler, ShardingStrategy, describe_handlers,
                       handler_for, iter_handlers, register_handler)
from .strategies import Strategy, legacy_node_strategies, node_strategies

__all__ = [
    "ShardingSpec", "REPLICATED", "candidate_specs", "iter_axes",
    "intern_spec", "spec_id", "spec_by_id",
    "reshard_time", "ReshardCache", "reshard_cache",
    "Strategy", "ShardingStrategy", "node_strategies",
    "legacy_node_strategies",
    "NodeHandler", "register_handler", "handler_for", "iter_handlers",
    "describe_handlers",
    "IntraOpPlan", "NodeAssignment", "optimize_stage",
    "optimize_stage_reference",
    "cached_optimize_stage", "global_plan_cache",
    "LatencyTable", "StageLatencySource", "slice_stages",
    "ParallelPlan", "StageAssignment",
]
