"""Stage executor: authoritative simulated latency of an intra-op plan.

Executes the plan's nodes in topological order on a single device stream
(how XLA programs run per device), charging:

* per-node kernel time under the assigned work division;
* collectives emitted by strategies (row-parallel / gradient all-reduce);
* resharding collectives on edges whose endpoint shardings disagree
  (edges out of leaves are free — parameters are laid out at compile time).

The total is scaled by the deterministic measurement-noise factor keyed on
(stage, mesh) so repeated "profiling" of the same configuration returns
the same value, like a warmed-up median measurement would.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..cluster.mesh import LogicalMesh
from ..ir.graph import Graph
from ..parallel.intra_op import IntraOpPlan
from ..parallel.resharding import reshard_cache
from ..parallel.sharding import spec_id
from .noise import measurement_factor
from .opcost import graph_costs, op_time_cached


@dataclass(frozen=True)
class StageProfile:
    """One simulated stage measurement."""

    latency: float          # seconds, noise included
    compute_time: float     # kernel time (no collectives)
    comm_time: float        # strategy collectives
    reshard_time: float     # edge resharding collectives
    memory_bytes: float     # peak per-device memory estimate
    n_nodes: int

    @property
    def comm_fraction(self) -> float:
        total = self.compute_time + self.comm_time + self.reshard_time
        return (self.comm_time + self.reshard_time) / total if total else 0.0


#: bytes per trainable parameter element held on-device during training
#: (fp32 weight + gradient + two Adam moments)
TRAIN_STATE_BYTES_PER_PARAM = 16


def execute_plan(plan: IntraOpPlan, noise: bool = True) -> StageProfile:
    """Simulate one execution of ``plan`` and return its profile.

    Per-node kernel times and per-edge reshard costs are gathered through
    the memoized cost tables (``op_time_cached`` with the graph's
    :class:`~.opcost.GraphCosts`, the per-mesh
    :class:`~repro.parallel.resharding.ReshardCache`) and reduced with
    Python's left-to-right ``sum`` — the identical sequence of float adds
    as a running accumulator, so totals stay bit-identical to the original
    formulation (the golden ``results/fast`` artifacts pin them).
    """
    graph, mesh = plan.graph, plan.mesh
    gpu = mesh.gpu
    rcache = reshard_cache(mesh)
    costs = graph_costs(graph)
    assignments = plan.assignments
    compute_terms: list[float] = []
    comm_terms: list[float] = []
    reshard_terms: list[float] = []
    param_bytes = 0.0
    act_bytes = 0.0

    for node, ins, key, forward, edges in zip(
            graph.nodes, costs.in_specs, costs.cost_keys, costs.forward,
            costs.edges):
        strat = assignments[node.id].strategy
        if node.node_type == "operator":
            compute_terms.append(
                op_time_cached(node, ins, gpu, float(strat.factor), key))
            comm_terms.append(strat.comm_time)
            if forward:
                act_bytes += node.out.nbytes / max(1, strat.out.shard_factor(mesh))
        elif node.node_type == "literal" and node.params.get("trainable"):
            local = strat.out.local_bytes(node.out, mesh)
            param_bytes += local / node.out.dtype.itemsize * TRAIN_STATE_BYTES_PER_PARAM

        # edge resharding
        for slot, pid, nbytes in edges:
            if slot < len(strat.ins):
                src = assignments[pid].out_spec
                reshard_terms.append(
                    rcache.time(spec_id(src), spec_id(strat.ins[slot]), nbytes))

    compute = sum(compute_terms, 0.0)
    comm = sum(comm_terms, 0.0)
    reshard = sum(reshard_terms, 0.0)
    # activations for the backward pass are the dominant transient; keep a
    # conservative half of the forward outputs as live working set
    memory = param_bytes + 0.5 * act_bytes
    profile = StageProfile(
        latency=compute + comm + reshard,
        compute_time=compute,
        comm_time=comm,
        reshard_time=reshard,
        memory_bytes=memory,
        n_nodes=len(graph),
    )
    return measured(profile, graph, mesh) if noise else profile


def measured(profile: StageProfile, graph: Graph,
             mesh: LogicalMesh) -> StageProfile:
    """``profile`` as profiling ``graph`` on ``mesh`` reads it: its latency
    scaled by the measurement-noise factor of that (graph name, mesh)."""
    return replace(profile, latency=profile.latency
                   * measurement_factor(graph.name, mesh.key()))
