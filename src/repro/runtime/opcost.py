"""Per-operator device-time model (roofline with GPU-specific effects).

For one operator executing on one GPU, the kernel time is

``t = launch_overhead + max(t_compute, t_memory)``

* ``t_compute = flops / (peak_flops · efficiency)`` — efficiency for
  contractions models tile quantization and occupancy
  (:meth:`repro.cluster.gpu.GPUSpec.matmul_efficiency`); other categories
  run at a fixed fraction of peak;
* ``t_memory = bytes / achieved_bandwidth`` — streaming kernels rarely
  reach peak DRAM bandwidth at small sizes
  (:meth:`~repro.cluster.gpu.GPUSpec.elementwise_bandwidth`).

This is the "profiler" the reproduction substitutes for real hardware: it
is deterministic, shape-sensitive, and nonlinear in ways a latency
predictor must actually learn (launch-bound small ops, bandwidth-bound
elementwise ops, efficiency cliffs on skinny GEMMs).
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from ..cluster.gpu import GPUSpec
from ..ir.graph import Graph, Node, TensorSpec
from ..ir.ops import node_bytes, node_flops, op_def
from ..memo import tier

#: Fraction of peak FLOP/s reached by non-GEMM categories (compute side).
_CATEGORY_EFFICIENCY = {
    "elementwise": 0.50,
    "reduction": 0.40,
    "data_movement": 1.0,  # no flops anyway
    "gather_scatter": 0.25,
    "contraction": 1.0,  # replaced by matmul_efficiency
}


def _gemm_dims(node: Node, ins: Sequence[TensorSpec]) -> tuple[int, int, int]:
    """(m, n, k) of a dot_general, folding batch dims into m."""
    k = int(node.params.get("contract", 1))
    n = node.out.shape[-1] if node.out.shape else 1
    m = max(1, node.out.size // max(1, n))
    return m, n, k


def op_time(
    node: Node,
    input_specs: Sequence[TensorSpec],
    gpu: GPUSpec,
    shard_factor: float = 1.0,
) -> float:
    """Seconds to execute ``node`` on ``gpu``.

    ``shard_factor`` divides the work (flops *and* bytes) when the operator
    is partitioned over that many devices; the per-kernel overheads are
    *not* divided — exactly why over-sharding small ops stops paying off.
    """
    if node.node_type != "operator":
        return 0.0
    if shard_factor < 1.0:
        raise ValueError(f"shard_factor must be >= 1, got {shard_factor}")
    flops = node_flops(node, input_specs) / shard_factor
    nbytes = node_bytes(node, input_specs) / shard_factor

    category = op_def(node.op).category
    if node.op == "dot_general":
        m, n, k = _gemm_dims(node, input_specs)
        # shard the dominant output dim for the efficiency estimate
        m_eff = max(1, int(m / shard_factor))
        eff = gpu.matmul_efficiency(m_eff, n, k)
    else:
        eff = _CATEGORY_EFFICIENCY[category]

    t_compute = flops / (gpu.peak_flops * eff) if flops else 0.0
    t_memory = nbytes / gpu.elementwise_bandwidth(nbytes) if nbytes else 0.0
    return gpu.launch_overhead + max(t_compute, t_memory)


# ------------------------------------------------------------- memoization

def _freeze(value):
    """Hashable view of an operator-params value (defensive on containers)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, set):
        return frozenset(_freeze(v) for v in value)
    return value


def node_cost_key(node: Node, input_specs: Sequence[TensorSpec]) -> tuple:
    """Structural key covering every input :func:`op_time` reads.

    Two nodes with the same op, output/input shapes+dtypes, and operator
    params cost the same on a given GPU at a given shard factor — node ids
    and labels are irrelevant, so structurally identical nodes across
    stage slices (and across grid cells) share one cached kernel time.
    """
    return (node.op, node.out.shape, node.out.dtype.name,
            tuple((s.shape, s.dtype.name) for s in input_specs),
            _freeze(node.params))


_OP_TIMES = tier("runtime.op_times",
                 "(node cost key, GPU, shard factor)").entries


def op_time_cached(
    node: Node,
    input_specs: Sequence[TensorSpec],
    gpu: GPUSpec,
    shard_factor: float = 1.0,
    key: tuple | None = None,
) -> float:
    """:func:`op_time` memoized by ``(structural key, gpu, factor)``.

    Callers that evaluate many shard factors for one node should compute
    :func:`node_cost_key` once and pass it as ``key``.
    """
    if node.node_type != "operator":
        return 0.0
    if key is None:
        key = node_cost_key(node, input_specs)
    ck = (key, gpu, shard_factor)
    t = _OP_TIMES.get(ck)
    if t is None:
        t = op_time(node, input_specs, gpu, shard_factor)
        _OP_TIMES[ck] = t
    return t


class GraphCosts:
    """The per-node inputs of the cost models that depend on one graph
    alone, built once per graph object and read by every intra-op solve
    and every execution of it, on any mesh.

    * ``forward`` — per node, True for an operator of the forward pass,
      which the executor reads off labels; ``forward_key`` packs the
      flags as bytes for memo keys, because ``canonical_hash`` leaves
      labels out;
    * ``in_specs`` — each node's input tensor specs;
    * ``cost_keys`` — :func:`node_cost_key` of each operator, ``None``
      for the other nodes;
    * ``edges`` — each node's ``(slot, producer id, producer bytes)``
      over producers that are not leaves: edges out of stage inputs and
      parameters never reshard;
    * ``n_consumers`` — each node's consumer count, one per input slot
      that reads it (``len(graph.consumers(nid))``).

    The last four are built on first use: a graph whose plan and
    execution are both memo hits needs only ``forward_key``.
    """

    def __init__(self, graph: Graph) -> None:
        #: a snapshot: graphs are append-only, and a longer graph gets a
        #: new table (:func:`graph_costs`)
        self.nodes = tuple(graph.nodes)
        # the training graph labels its backward, loss and update
        # equations ``grad*``, ``loss`` and ``adam*`` (``ir.autodiff``)
        self.forward = tuple(
            n.node_type == "operator"
            and not (n.name.startswith(("grad", "adam")) or n.name == "loss")
            for n in self.nodes)
        self.forward_key = bytes(self.forward)

    @cached_property
    def in_specs(self) -> tuple[tuple[TensorSpec, ...], ...]:
        nodes = self.nodes
        return tuple(tuple(nodes[i].out for i in n.inputs) for n in nodes)

    @cached_property
    def cost_keys(self) -> tuple[tuple | None, ...]:
        return tuple(node_cost_key(n, ins) if n.node_type == "operator"
                     else None for n, ins in zip(self.nodes, self.in_specs))

    @cached_property
    def edges(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        nodes = self.nodes
        return tuple(
            tuple((slot, pid, nodes[pid].out.nbytes)
                  for slot, pid in enumerate(n.inputs)
                  if nodes[pid].node_type not in ("input", "literal"))
            for n in nodes)

    @cached_property
    def n_consumers(self) -> tuple[int, ...]:
        counts = [0] * len(self.nodes)
        for n in self.nodes:
            for pid in n.inputs:
                counts[pid] += 1
        return tuple(counts)


_GRAPH_COSTS = tier("runtime.graph_costs", "graph object (weak)",
                    weak=True).entries


def graph_costs(graph: Graph) -> GraphCosts:
    """The :class:`GraphCosts` of ``graph`` (memoized on the object)."""
    costs = _GRAPH_COSTS.get(graph)
    if costs is None or len(costs.nodes) != len(graph):
        costs = GraphCosts(graph)
        _GRAPH_COSTS[graph] = costs
    return costs


def graph_flops(graph) -> float:
    """Total FLOPs of a graph executed unsharded (diagnostics)."""
    total = 0.0
    for node in graph.nodes:
        ins = [graph.nodes[i].out for i in node.inputs]
        total += node_flops(node, ins)
    return total


def graph_bytes(graph) -> float:
    """Total memory traffic of a graph executed unsharded (diagnostics)."""
    total = 0.0
    for node in graph.nodes:
        ins = [graph.nodes[i].out for i in node.inputs]
        total += node_bytes(node, ins)
    return total
