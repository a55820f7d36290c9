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

* :func:`optimize_stage` — the one the program runs: one forward loop
  and one reverse loop over the nodes, on tuples of Python floats.
  Shardings are interned integer ids, kernel times come from the
  memoized ``op_time_cached``, reshard costs from per-mesh
  :class:`~.resharding.ReshardCache` columns.  The forward loop builds
  or looks up each node's table (by context signature, ``ir.structure``)
  and then either reuses the forward vector memoized for that signature
  on this mesh — the CFP collapse of structurally identical subproblems,
  across twin branches of one graph and shared prefixes of different
  graphs — or contracts the node's non-leaf edges on the spot.  The
  reverse loop is push-based: each committed node hands its required
  input spec ids to its producers, which add the matching reshard
  columns before committing.  Scalars beat numpy here because the
  tables are tiny — 1 to 8 strategies per node, most with 1 or 2, and
  most edge contractions 2x2 or 1x1 — so a numpy call's dispatch costs
  more than its arithmetic.
* :func:`optimize_stage_reference` — the original pure-Python dict-scan
  formulation, kept as the differential-testing oracle.  The fast path
  must produce **bit-identical** committed shardings, table costs, and
  DP estimates (every float op is replayed in the same order; min and
  argmin are exact), which ``tests/test_intraop_vectorized.py`` and
  ``tests/test_dp_collapse.py`` enforce.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add

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
    """Per-(node-structure, mesh) DP table, built once as tuples of Python
    floats and ints.

    Everything the two passes need that does not depend on the
    surrounding graph is shared by every structurally identical node on
    the same mesh: the committed assignments, the base costs (kernel time
    under each strategy's work division plus its own collectives), each
    strategy's input spec ids (what the reverse pass pushes to
    producers), per-slot required-column maps (what the forward pass
    contracts), and the grouping of strategies by output sharding.  A
    table holds 1 to 8 strategies, so plain tuples read faster than
    arrays: indexing and ``min`` over a handful of floats cost less than
    one numpy call's dispatch.
    """

    __slots__ = ("assigns", "base", "in_ids", "slots", "out_ids",
                 "strat_out_ids", "groups")

    def __init__(self, strats: tuple[Strategy, ...],
                 base: tuple[float, ...]) -> None:
        self.assigns = tuple(NodeAssignment(s) for s in strats)
        self.base = base
        self.in_ids = tuple(tuple(spec_id(x) for x in s.ins) for s in strats)
        # per input slot: (distinct required spec ids, per strategy the
        # column it reads or -1 when it lacks the slot; None when every
        # strategy requires the same single spec)
        slots = []
        for slot in range(max(map(len, self.in_ids), default=0)):
            cols: list[int] = []
            req_of = []
            for ids in self.in_ids:
                if slot >= len(ids):
                    req_of.append(-1)
                    continue
                if ids[slot] not in cols:
                    cols.append(ids[slot])
                req_of.append(cols.index(ids[slot]))
            slots.append((tuple(cols), None if len(cols) == 1
                          and -1 not in req_of else tuple(req_of)))
        self.slots = tuple(slots)
        self.strat_out_ids = tuple(spec_id(s.out) for s in strats)
        #: distinct out-spec ids in first-occurrence order
        self.out_ids = tuple(dict.fromkeys(self.strat_out_ids))
        # strategy indices per out spec; None when all outputs differ
        self.groups = None if len(self.out_ids) == len(strats) else tuple(
            tuple(i for i, sid in enumerate(self.strat_out_ids) if sid == g)
            for g in self.out_ids)


_FALLBACK_NAME = "fallback[R]"


class _MeshTables:
    """One logical mesh's DP tables.

    * ``tables`` — node structure key -> :class:`_NodeTable`;
    * ``sig_tables`` — context signature -> :class:`_NodeTable`.  A
      signature pins ``node_cost_key`` (see ``ir.structure``), so it
      determines the strategy table; indexing by signature lets a node
      skip the structure-key lookup, which is where a cold solve spends
      its table time;
    * ``vectors`` — context signature -> (forward costs, grouped-by-out-
      spec costs) tuples, the CFP collapse memo.  A signature pins every
      input of a node's forward sweep (its strategy table, reshard
      columns, amortization shares, and — inductively — its producers'
      vectors), so memo entries are bit-identical to a fresh computation
      on any graph.
    """

    __slots__ = ("tables", "sig_tables", "vectors")

    def __init__(self) -> None:
        self.tables: dict[tuple, _NodeTable] = {}
        self.sig_tables: dict[int, _NodeTable] = {}
        self.vectors: dict[int, tuple[tuple[float, ...],
                                      tuple[float, ...]]] = {}


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
        return _NodeTable(strats, (0.0,) * len(strats))
    gpu = mesh.gpu
    strats = tuple(node_strategies(node, in_specs, mesh))
    if not strats:  # always possible: fully replicated execution, and —
        # matching the reference fallback — without input-edge charges
        strats = (Strategy(_FALLBACK_NAME, REPLICATED,
                           tuple(REPLICATED for _ in node.inputs), 1, 0.0),)
        table = _NodeTable(strats, (op_time_cached(node, in_specs, gpu, 1.0,
                                                   ckey),))
        table.slots = ()
        return table
    return _NodeTable(strats, tuple(
        op_time_cached(node, in_specs, gpu, float(s.factor), ckey)
        + s.comm_time for s in strats))


def _output_table(parent_out_ids: tuple[int, ...]) -> _NodeTable:
    """Output nodes adopt their operand's sharding at no cost: one
    strategy per distinct parent out-spec, in parent table order."""
    strats = []
    for sid in parent_out_ids:
        s = spec_by_id(sid)
        strats.append(Strategy(f"out[{s}]", s, (s,), 1, 0.0))
    return _NodeTable(tuple(strats), (0.0,) * len(strats))


def optimize_stage(graph: Graph, mesh: LogicalMesh) -> IntraOpPlan:
    """Assign an SPMD strategy to every node of ``graph`` on ``mesh``.

    One forward loop and one reverse loop over the nodes, on tuples of
    Python floats.  Forward, each node gets its table (by context
    signature, else by structure key, else built) and then its forward
    vector: from the collapse memo, or by contracting its non-leaf edges
    on the spot — per required input spec, ``min_p(share * g[p] +
    R[p][c])`` over the producer's by-spec costs ``g`` and a memoized
    reshard column.  Reverse, each committed node pushes its required
    input spec ids to its non-leaf producers, and a producer adds its
    consumers' reshard columns in ascending consumer order before taking
    the first minimum.  All float operations replay
    :func:`optimize_stage_reference` in the same order, so results are
    bit-identical — ``tests/test_intraop_vectorized.py`` enforces it.

    Edges out of leaves are skipped (``GraphCosts.edges``): leaf tables
    cost exactly 0.0 under every candidate sharding, so the reference's
    ``min(share * 0.0 + 0.0) = 0.0`` charge is the float-addition
    identity (every cost is >= 0, so no ``-0.0`` can arise).  Every
    parent table carries at least one entry (the enumeration ends in an
    explicit replicated fallback), so the reference's per-strategy
    feasibility bookkeeping is vacuous and elided here.

    Through the CFP collapse memo, nodes whose context signature was
    already solved on this mesh — twin branches in this graph, or shared
    prefixes of previously solved graphs — reuse their forward vectors
    instead of recomputing them.  Lossless by construction: a signature
    pins the strategy table, reshard columns, amortization shares and
    producer vectors, so the memoized tuples are the ones this sweep
    would produce bit-for-bit (``tests/test_dp_collapse.py`` enforces it
    differentially).  A vector is published only once complete, so
    concurrent solves can share the memo.
    """
    n = len(graph)
    nodes = graph.nodes
    sigs = _graph_sigs(graph)
    costs_of = graph_costs(graph)
    edges, n_consumers = costs_of.edges, costs_of.n_consumers
    mesh_tables = _mesh_tables(mesh)
    sig_tables, tables = mesh_tables.sig_tables, mesh_tables.tables
    memo = mesh_tables.vectors
    columns = reshard_cache(mesh).columns
    node_tab: list[_NodeTable] = [None] * n  # type: ignore
    cost_tab: list[tuple[float, ...]] = [None] * n  # type: ignore
    #: min forward cost per distinct out spec (the by-spec table)
    group_cost: list[tuple[float, ...]] = [None] * n  # type: ignore
    hits = 0

    # ---- forward sweep -----------------------------------------------------
    for nid, sig in enumerate(sigs):
        table = sig_tables.get(sig)
        if table is None:
            node = nodes[nid]
            # through the coarser structure-keyed cache, so tables stay
            # shared across contexts (a fresh context over a known
            # structure must not rebuild the strategy enumeration)
            if node.node_type == "output":
                key = ("out", node_tab[node.inputs[0]].out_ids)
            elif node.node_type == "operator":
                key = ("op", costs_of.cost_keys[nid])
            else:
                key = ("leaf", node.out.shape)
            table = tables.get(key)
            if table is None:
                table = (_output_table(key[1]) if node.node_type == "output"
                         else _build_table(node, costs_of.in_specs[nid],
                                           costs_of.cost_keys[nid], mesh))
                tables[key] = table
            sig_tables[sig] = table
        node_tab[nid] = table
        hit = memo.get(sig)
        if hit is not None:
            cost_tab[nid], group_cost[nid] = hit
            hits += 1
            continue
        costs = table.base
        slots = table.slots
        for slot, pid, nbytes in edges[nid]:
            if slot >= len(slots):
                continue
            cols, req_of = slots[slot]
            share = 1.0 / n_consumers[pid]  # >= 1: this node reads it
            src = node_tab[pid].out_ids
            scaled = [share * g for g in group_cost[pid]]
            best = [min(map(add, scaled, col))
                    for col in columns(src, cols, nbytes)]
            if req_of is None:  # one required spec across all strategies
                b = best[0]
                costs = [c + b for c in costs]
            else:
                costs = [c if j < 0 else c + best[j]
                         for c, j in zip(costs, req_of)]
        costs = tuple(costs)
        grouped = costs if table.groups is None else tuple(
            min(map(costs.__getitem__, g)) for g in table.groups)
        cost_tab[nid] = costs
        group_cost[nid] = grouped
        memo[sig] = (costs, grouped)
    _DP_TABLES.record(hits, n - hits)

    # ---- reverse resolution ------------------------------------------------
    assignments: list[NodeAssignment | None] = [None] * n
    estimated = 0.0
    #: per producer: (its bytes, the spec ids its committed consumers
    #: require in descending consumer order, the order they commit in)
    required: list[tuple[float, list[int]] | None] = [None] * n
    for nid in range(n - 1, -1, -1):
        table = node_tab[nid]
        totals = cost_tab[nid]
        pushed = required[nid]
        if pushed is not None:
            nbytes, reqs = pushed
            for col in reversed(columns(table.strat_out_ids, tuple(reqs),
                                        nbytes)):
                totals = list(map(add, totals, col))
        k = totals.index(min(totals))  # the first minimum, as argmin
        assignments[nid] = table.assigns[k]
        if not n_consumers[nid]:  # sink: accumulate DP estimate
            estimated += totals[k]
        node_edges = edges[nid]
        if node_edges:
            ins = table.in_ids[k]
            inputs = nodes[nid].inputs
            for _, pid, nbytes in node_edges:
                # a producer feeding two slots is charged the first
                # slot's requirement twice, as ``inputs.index`` does in
                # the reference
                slot = inputs.index(pid)
                if slot < len(ins):
                    if required[pid] is None:
                        required[pid] = (nbytes, [ins[slot]])
                    else:
                        required[pid][1].append(ins[slot])

    return IntraOpPlan(graph, mesh, assignments, estimated)  # type: ignore[arg-type]


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
