"""Intra-operator parallelization optimizer (the Alpa intra-op pass).

Given a stage's *training* graph and a logical mesh, assign every node an
SPMD strategy minimizing estimated execution time: per-node kernel time
under work division, collectives emitted by the strategies themselves
(e.g. Megatron row-parallel all-reduces, data-parallel gradient
all-reduces appearing as contraction-split backward matmuls), and
resharding on edges whose endpoint shardings disagree.

The optimizer is a two-pass dynamic program over the topological order:

1. **forward sweep** — for every node and strategy, the cheapest way to
   obtain each required input sharding, amortizing producer cost over its
   consumer count (Alpa solves the exact problem as an ILP; the
   amortization is the standard relaxation and is exact on chains);
2. **reverse resolution** — each node commits to one sharding minimizing
   its own table cost plus actual resharding to its already-committed
   consumers, yielding a consistent assignment the executor can cost
   exactly.

Edges out of leaf nodes (stage inputs, parameters) never pay resharding:
parameters are laid out at compile time and stage inputs arrive through
the pipeline already in the sharding the first consumer wants.

Two implementations coexist:

* :func:`optimize_stage` — the one the program runs.  Shardings are
  interned integer ids, kernel times come from the memoized
  ``op_time_cached``, reshard costs from per-mesh
  :class:`~.resharding.ReshardCache` tables, and both DP passes run as
  numpy min-plus algebra (``np.min(share * ptable[:, None] + R, axis=0)``
  forward, vectorized argmin in reverse).  Nodes are indexed by their
  context signature (``ir.structure``), and the forward vector of a
  signature already solved on a mesh is reused instead of recomputed —
  the CFP collapse of structurally identical subproblems, across twin
  branches of one graph and shared prefixes of different graphs.
* :func:`optimize_stage_reference` — the original pure-Python dict-scan
  formulation, kept as the differential-testing oracle.  The vectorized
  path must produce **bit-identical** committed shardings, table costs,
  and DP estimates (every float op is replayed in the same order; min and
  argmin are exact), which ``tests/test_intraop_vectorized.py`` and
  ``tests/test_dp_collapse.py`` enforce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.mesh import LogicalMesh
from ..ir.graph import Graph, TensorSpec
from ..ir.structure import context_signatures
from ..memo import MemoStats, tier
from ..runtime.opcost import graph_costs, op_time, op_time_cached
from .resharding import reshard_cache, reshard_time
from .sharding import (REPLICATED, ShardingSpec, candidate_specs, spec_by_id,
                       spec_id)
from .strategies import Strategy, node_strategies


@dataclass(frozen=True)
class NodeAssignment:
    """Committed strategy for one node."""

    strategy: Strategy

    @property
    def out_spec(self) -> ShardingSpec:
        return self.strategy.out

    @property
    def in_specs(self) -> tuple[ShardingSpec, ...]:
        return self.strategy.ins


@dataclass
class IntraOpPlan:
    """Result of intra-op optimization for (stage graph, logical mesh)."""

    graph: Graph
    mesh: LogicalMesh
    assignments: list[NodeAssignment]
    #: DP estimate of the stage execution time (the executor recomputes the
    #: authoritative value including cross-edge resharding)
    estimated_time: float

    def spec_of(self, nid: int) -> ShardingSpec:
        return self.assignments[nid].out_spec


class _NodeTable:
    """Pre-vectorized per-(node-structure, mesh) DP table.

    Everything the forward sweep needs that does not depend on the
    surrounding graph is computed once and shared by every structurally
    identical node on the same mesh: the strategy tuple, the base cost
    vector (kernel time under each strategy's work division plus its own
    collectives), per-slot required-spec column structure, and the
    grouping of strategies by output sharding.
    """

    __slots__ = ("strats", "assigns", "base", "slots", "out_ids", "out_col")

    def __init__(self, strats: tuple[Strategy, ...], base: np.ndarray) -> None:
        self.strats = strats
        self.assigns = tuple(NodeAssignment(s) for s in strats)
        self.base = base
        base.flags.writeable = False
        # per input slot: (distinct required spec ids, strategy -> column
        # map or None when every strategy requires the same single spec,
        # present mask or None when every strategy has the slot)
        slots = []
        max_arity = max((len(s.ins) for s in strats), default=0)
        for slot in range(max_arity):
            cols: list[int] = []
            col_index: dict[int, int] = {}
            req_of = np.empty(len(strats), dtype=np.intp)
            missing = False
            for i, s in enumerate(strats):
                if slot >= len(s.ins):
                    req_of[i] = -1
                    missing = True
                    continue
                rid = spec_id(s.ins[slot])
                j = col_index.get(rid)
                if j is None:
                    j = len(cols)
                    col_index[rid] = j
                    cols.append(rid)
                req_of[i] = j
            has = req_of >= 0 if missing else None
            if len(cols) == 1 and not missing:
                req_of = None  # scalar broadcast instead of a gather
            slots.append((tuple(cols), req_of, has))
        self.slots = tuple(slots)
        ids: list[int] = []
        gidx: dict[int, int] = {}
        colv = np.empty(len(strats), dtype=np.intp)
        for i, s in enumerate(strats):
            sid = spec_id(s.out)
            j = gidx.get(sid)
            if j is None:
                j = len(ids)
                gidx[sid] = j
                ids.append(sid)
            colv[i] = j
        self.out_ids = tuple(ids)
        # identity grouping (all outputs distinct) skips the scatter-min
        self.out_col = None if len(ids) == len(strats) else colv


_FALLBACK_NAME = "fallback[R]"


class _MeshTables:
    """One logical mesh's DP tables.

    * ``tables`` — node structure key -> :class:`_NodeTable`;
    * ``sig_tables`` — context signature -> :class:`_NodeTable`, the
      prepare pass's index.  A signature pins ``node_cost_key`` (see
      ``ir.structure``), so it determines the strategy table; indexing by
      signature lets a hit node skip the structure-key lookup and slot-op
      assembly entirely at prepare time, which is where the cold-solve
      time actually goes;
    * ``vectors`` — context signature -> (forward costs, grouped-by-out-
      spec costs), the CFP collapse memo.  A signature pins every input
      of a node's forward sweep (its strategy table, reshard matrices,
      amortization shares, and — inductively — its producers' vectors),
      so memo entries are bit-identical to a fresh computation on any
      graph.
    """

    __slots__ = ("tables", "sig_tables", "vectors")

    def __init__(self) -> None:
        self.tables: dict[tuple, _NodeTable] = {}
        self.sig_tables: dict[int, _NodeTable] = {}
        self.vectors: dict[int, tuple[np.ndarray, np.ndarray]] = {}


#: logical mesh -> its DP tables; hits/misses count collapse-vector reads
_DP_TABLES = tier("parallel.dp_tables",
               "logical mesh (node structure / context signature)")

#: graph -> (n, per-node context signatures); signatures are
#: mesh-independent, so one entry serves every logical view
_GRAPH_SIGS = tier("parallel.graph_signatures", "graph object (weak)",
                   weak=True).entries


def collapse_stats() -> MemoStats:
    """Hit/miss counters of the CFP collapse memo (process-wide)."""
    return _DP_TABLES.stats


def _mesh_tables(mesh: LogicalMesh) -> _MeshTables:
    tabs = _DP_TABLES.entries.get(mesh)
    if tabs is None:
        tabs = _DP_TABLES.entries.setdefault(mesh, _MeshTables())
    return tabs


def _graph_sigs(graph: Graph) -> list[int]:
    entry = _GRAPH_SIGS.get(graph)
    if entry is None or entry[0] != len(graph):  # graphs are append-only
        entry = (len(graph), context_signatures(graph))
        _GRAPH_SIGS[graph] = entry
    return entry[1]


def _build_table(node, in_specs: tuple[TensorSpec, ...], ckey: tuple | None,
                 mesh: LogicalMesh) -> _NodeTable:
    """Strategy table + base costs for an input/literal/operator node
    (``ckey``: the operator's ``node_cost_key``)."""
    if node.node_type in ("input", "literal"):
        strats = tuple(Strategy(f"leaf[{c}]", c, (), 1, 0.0)
                       for c in candidate_specs(node.out, mesh))
        return _NodeTable(strats, np.zeros(len(strats)))
    gpu = mesh.gpu
    strats = tuple(node_strategies(node, in_specs, mesh))
    if not strats:  # always possible: fully replicated execution, and —
        # matching the reference fallback — without input-edge charges
        strats = (Strategy(_FALLBACK_NAME, REPLICATED,
                           tuple(REPLICATED for _ in node.inputs), 1, 0.0),)
        base = np.array([op_time_cached(node, in_specs, gpu, 1.0, ckey)])
        table = _NodeTable(strats, base)
        table.slots = ()
        return table
    base = np.array([op_time_cached(node, in_specs, gpu, float(s.factor), ckey)
                     + s.comm_time for s in strats], dtype=np.float64)
    return _NodeTable(strats, base)


def _output_table(parent_out_ids: tuple[int, ...]) -> _NodeTable:
    """Output nodes adopt their operand's sharding at no cost: one
    strategy per distinct parent out-spec, in parent table order."""
    strats = []
    for sid in parent_out_ids:
        s = spec_by_id(sid)
        strats.append(Strategy(f"out[{s}]", s, (s,), 1, 0.0))
    return _NodeTable(tuple(strats), np.zeros(len(strats)))


class _SolvePlan:
    """Per-(graph, mesh) prepared DP: every lookup the sweep needs that
    depends only on the graph structure and the mesh — node tables, the
    reshard-cost matrix of each non-leaf edge, consumer shares, reverse
    edge lists — prebound so a solve is pure min-plus algebra.

    Leaf edges (stage inputs, parameters) are dropped at prepare time:
    leaf tables cost exactly 0.0 under every candidate sharding, so the
    reference's ``min(share * 0.0 + 0.0) = 0.0`` contribution is the
    float-addition identity here (no ``-0.0`` can arise from these sums).
    """

    __slots__ = ("tables", "fwd", "rev")

    def __init__(self, tables: list, fwd: list, rev: list) -> None:
        #: per node: its _NodeTable
        self.tables = tables
        #: per node: (table, ((pid, share, R, req_of, has), ...))
        self.fwd = fwd
        #: reversed order: (nid, table, nbytes, ((cid, slot), ...), is_sink)
        self.rev = rev


def _slot_ops_for(graph: Graph, edges: tuple, table: _NodeTable, node_tab,
                  rcache) -> tuple:
    """The per-edge forward contractions of one node: (producer id,
    amortization share, reshard matrix, required-spec mapping), over its
    non-leaf ``edges`` (``GraphCosts.edges``: leaf edges reshard for
    free, an exact 0.0 charge).  Shared by ``_prepare`` and the lazy
    completion in ``optimize_stage`` so the two produce identical
    tuples."""
    slot_ops = []
    slots = table.slots
    for slot, pid, nbytes in edges:
        if slot >= len(slots):
            continue
        cols, req_of, has = slots[slot]
        share = 1.0 / max(1, len(graph.consumers(pid)))
        R = rcache.matrix(node_tab[pid].out_ids, cols, nbytes)
        slot_ops.append((pid, share, R, req_of, has))
    return tuple(slot_ops)


def _prepare(graph: Graph, mesh: LogicalMesh) -> _SolvePlan:
    rcache = reshard_cache(mesh)
    node_tab: list[_NodeTable] = [None] * len(graph)  # type: ignore

    # Tables are indexed by context signature.  Equal signatures imply
    # equal ``node_cost_key`` (ir.structure), which determines the
    # strategy table — so a previously seen signature skips the table
    # lookup and construction AND the slot-op assembly; its forward
    # vector comes from the memo at solve time (``slot_ops is None``
    # marks that expectation, with a lazy rebuild in ``optimize_stage``
    # as the fallback).  Cost keys, input specs and non-leaf edges come
    # from the graph's GraphCosts, built once per graph for every mesh.
    fwd: list = []
    sigs = _graph_sigs(graph)
    costs = graph_costs(graph)
    mesh_tables = _mesh_tables(mesh)
    sig_tables, tables = mesh_tables.sig_tables, mesh_tables.tables
    for node in graph.nodes:
        nid = node.id
        table = sig_tables.get(sigs[nid])
        if table is not None:
            node_tab[nid] = table
            fwd.append((table, None))
            continue
        # sig miss: go through the coarser structure-keyed cache so tables
        # stay shared across contexts (a fresh context over a known
        # structure must not rebuild the strategy enumeration)
        if node.node_type == "output":
            key = ("out", node_tab[node.inputs[0]].out_ids)
        elif node.node_type == "operator":
            key = ("op", costs.cost_keys[nid])
        else:
            key = ("leaf", node.out.shape)
        table = tables.get(key)
        if table is None:
            table = (_output_table(key[1]) if node.node_type == "output"
                     else _build_table(node, costs.in_specs[nid],
                                       costs.cost_keys[nid], mesh))
            tables[key] = table
        sig_tables[sigs[nid]] = table
        node_tab[nid] = table
        fwd.append((table, _slot_ops_for(graph, costs.edges[nid], table,
                                         node_tab, rcache)))

    rev = []
    for node in reversed(graph.nodes):
        cons = graph.consumers(node.id)
        leaf = node.node_type in ("input", "literal")
        edges = () if leaf else tuple(
            (cid, graph.nodes[cid].inputs.index(node.id)) for cid in cons)
        rev.append((node.id, node_tab[node.id], node.out.nbytes, edges,
                    not cons))
    return _SolvePlan(node_tab, fwd, rev)


def optimize_stage(graph: Graph, mesh: LogicalMesh) -> IntraOpPlan:
    """Assign an SPMD strategy to every node of ``graph`` on ``mesh``.

    Vectorized formulation: per node, the forward table is a strategy-cost
    vector; per edge, the cheapest way to obtain each required input
    sharding is one min-plus contraction of the producer's per-spec cost
    vector against a memoized reshard-cost matrix
    (``(share * pcost[:, None] + R).min(axis=0)``).  All float operations
    replay :func:`optimize_stage_reference` in the same order, so results
    are bit-identical — ``tests/test_intraop_vectorized.py`` enforces it.

    Every parent table carries at least one entry (the enumeration ends in
    an explicit replicated fallback), so the reference implementation's
    per-strategy feasibility bookkeeping is vacuous and elided here.

    Through the CFP collapse memo, nodes whose context signature was
    already solved on this mesh — twin branches in this graph, or shared
    prefixes of previously solved graphs — reuse their forward vectors
    instead of recomputing them.  Lossless by construction: a signature
    pins the strategy table, reshard matrices, amortization shares and
    producer vectors, so the memoized arrays are the ones this sweep
    would produce bit-for-bit (``tests/test_dp_collapse.py`` enforces it
    differentially).
    """
    plan = _prepare(graph, mesh)
    rcache = reshard_cache(mesh)
    n = len(graph)
    cost_tab: list[np.ndarray] = [None] * n  # type: ignore  # (S,) fwd costs
    #: min forward cost per distinct out spec (the by-spec table)
    group_cost: list[np.ndarray] = [None] * n  # type: ignore

    memo = _mesh_tables(mesh).vectors
    sigs = _graph_sigs(graph)
    hits = 0

    for nid, (table, slot_ops) in enumerate(plan.fwd):
        hit = memo.get(sigs[nid])
        if hit is not None:
            cost_tab[nid], group_cost[nid] = hit
            hits += 1
            continue
        if slot_ops is None:
            # prepared as a collapse hit but the memo holds no vector for
            # it: another graph's prepare registered the signature and no
            # solve has filled it yet (concurrent solves can interleave
            # this way), so build the node's contractions here
            slot_ops = _slot_ops_for(graph, graph_costs(graph).edges[nid],
                                     table, plan.tables, rcache)
        costs = table.base
        for pid, share, R, req_of, has in slot_ops:
            best = (share * group_cost[pid][:, None] + R).min(axis=0)
            if req_of is None:  # single required spec across all strategies
                costs = costs + best[0]
            elif has is None:
                costs = costs + best[req_of]
            else:
                costs = costs.copy()
                costs[has] += best[req_of[has]]
        cost_tab[nid] = costs
        if table.out_col is None:
            group_cost[nid] = costs
        else:
            gc = np.full(len(table.out_ids), np.inf)
            np.minimum.at(gc, table.out_col, costs)
            group_cost[nid] = gc
        costs.flags.writeable = False
        group_cost[nid].flags.writeable = False
        memo[sigs[nid]] = (costs, group_cost[nid])
    _DP_TABLES.record(hits, n - hits)

    # ---- reverse resolution ------------------------------------------------
    assignments: list[NodeAssignment | None] = [None] * n
    estimated = 0.0
    column = rcache.column
    for nid, table, nb, edges, is_sink in plan.rev:
        totals = cost_tab[nid]
        ocol = table.out_col
        for cid, slot in edges:
            strat = assignments[cid].strategy
            if slot < len(strat.ins):
                rcol = column(table.out_ids, spec_id(strat.ins[slot]), nb)
                totals = totals + rcol if ocol is None else totals + rcol[ocol]
        best_idx = totals.argmin()
        assignments[nid] = table.assigns[best_idx]
        if is_sink:  # sink: accumulate DP estimate
            estimated += float(totals[best_idx])

    return IntraOpPlan(graph, mesh, list(assignments), estimated)  # type: ignore[arg-type]


def optimize_stage_reference(graph: Graph, mesh: LogicalMesh) -> IntraOpPlan:
    """The original pure-Python DP — the differential-testing oracle."""
    n = len(graph)
    gpu = mesh.gpu
    # per node: list[(Strategy, table_cost)]
    tables: list[list[tuple[Strategy, float]]] = [None] * n  # type: ignore
    # quick lookup: node -> {out_spec_assignments: best (cost, idx)}
    by_spec: list[dict[tuple, tuple[float, int]]] = [None] * n  # type: ignore

    def leaf_strategies(spec: TensorSpec) -> list[Strategy]:
        return [Strategy(f"leaf[{c}]", c, (), 1, 0.0)
                for c in candidate_specs(spec, mesh)]

    for node in graph.nodes:
        in_specs = [graph.nodes[i].out for i in node.inputs]
        if node.node_type in ("input", "literal"):
            strats = leaf_strategies(node.out)
        elif node.node_type == "output":
            # outputs adopt their operand's sharding at no cost
            seen: set[tuple] = set()
            strats = []
            for s, _ in tables[node.inputs[0]]:
                if s.out.assignments not in seen:
                    seen.add(s.out.assignments)
                    strats.append(Strategy(f"out[{s.out}]", s.out, (s.out,), 1, 0.0))
        else:
            strats = node_strategies(node, in_specs, mesh)

        entries: list[tuple[Strategy, float]] = []
        for strat in strats:
            if node.node_type == "operator":
                cost = op_time(node, in_specs, gpu, float(strat.factor))
                cost += strat.comm_time
            else:
                cost = 0.0
            feasible = True
            for slot, req in enumerate(strat.ins):
                pid = node.inputs[slot]
                ptable = by_spec[pid]
                pnode = graph.nodes[pid]
                leaf_edge = pnode.node_type in ("input", "literal")
                share = 1.0 / max(1, len(graph.consumers(pid)))
                best = None
                for passign, (pcost, _) in ptable.items():
                    rs = 0.0 if leaf_edge else reshard_time(
                        ShardingSpec(passign), req, pnode.out, mesh)
                    c = share * pcost + rs
                    if best is None or c < best:
                        best = c
                if best is None:
                    feasible = False
                    break
                cost += best
            if feasible:
                entries.append((strat, cost))
        if not entries:  # always possible: fully replicated execution
            rep = Strategy("fallback[R]", REPLICATED,
                           tuple(REPLICATED for _ in node.inputs), 1, 0.0)
            cost = (op_time(node, in_specs, gpu, 1.0)
                    if node.node_type == "operator" else 0.0)
            entries = [(rep, cost)]
        tables[node.id] = entries
        spec_map: dict[tuple, tuple[float, int]] = {}
        for idx, (strat, cost) in enumerate(entries):
            key = strat.out.assignments
            if key not in spec_map or cost < spec_map[key][0]:
                spec_map[key] = (cost, idx)
        by_spec[node.id] = spec_map

    # ---- reverse resolution ------------------------------------------------
    assignments: list[NodeAssignment | None] = [None] * n
    estimated = 0.0
    for node in reversed(graph.nodes):
        required: list[ShardingSpec] = []
        for cid in graph.consumers(node.id):
            cons = assignments[cid]
            slot = graph.nodes[cid].inputs.index(node.id)
            if slot < len(cons.in_specs):
                required.append(cons.in_specs[slot])
        best_idx, best_cost = 0, float("inf")
        leaf = node.node_type in ("input", "literal")
        for idx, (strat, cost) in enumerate(tables[node.id]):
            total = cost
            if not leaf:
                for req in required:
                    total += reshard_time(strat.out, req, node.out, mesh)
            if total < best_cost:
                best_cost, best_idx = total, idx
        assignments[node.id] = NodeAssignment(tables[node.id][best_idx][0])
        if not graph.consumers(node.id):  # sink: accumulate DP estimate
            estimated += best_cost

    return IntraOpPlan(graph, mesh, assignments, estimated)  # type: ignore[arg-type]
