"""Communication-free structure detection over the operator IR.

CFP's observation (PAPERS.md): operator-parallel plan spaces collapse
dramatically when communication-free structures are preserved and solved
once.  Two nodes whose *entire producer context* is structurally
identical — same op/shape/dtype/params, and, recursively, producers with
identical context and identical consumer fan-out — pose *exactly* the
same intra-op subproblem: the DP's forward cost vector over their
strategy tables is bit-for-bit equal, so it only needs to be computed
once per equivalence class and per mesh.

The equivalence classes are **context signatures**: interned integers
assigned bottom-up over the topological order,

    sig(n) = intern( local_key(n),
                     ((sig(p), fanout(p)) for p in n.inputs) )

where ``local_key`` is the same structural key the intra-op DP uses to
share strategy tables (``("op", node_cost_key)`` for operators, the
tensor shape for leaves) and ``fanout(p)`` is the producer's consumer
count (the DP amortizes producer cost as ``cost / fanout``, so fan-out
is part of the subproblem).  Equal signatures therefore imply equal
strategy tables, equal reshard-cost columns, equal amortization shares
and equal producer cost vectors — by induction, equal forward DP
vectors.  ``parallel.intra_op`` keys its collapse memo on these ids;
``tests/test_dp_collapse.py`` differential-tests the claim bitwise.

Structures this provably collapses on the existing families:

* **parallel twin branches** — Q/K/V projections off one shared
  hidden state, gate/up MLP halves, MoE expert stacks: identical
  subgraphs hanging off the same producer;
* **repeated identical layers across stage slices** — GPT layers
  [0, 3) solved for one pipeline slice share every signature with the
  prefix of the [0, 5) slice solved later (same mesh), so only the
  suffix pays DP work;
* **elementwise/residual chains** — bias+GeLU+dropout tails repeated
  per twin branch.
"""

from __future__ import annotations

from ..memo import fork_safe_lock, tier
from .graph import Graph

#: process-wide signature intern: structural key -> stable small int.
#: Signatures are mesh-independent (node_cost_key reads no mesh state), so
#: one table serves every mesh; per-mesh memos key off these ids, so only
#: ``repro.memo.clear_all`` clears it, together with them.
_SIG_IDS = tier("ir.signatures",
                "(local structure, producer signatures and fan-outs)").entries
#: serializes new ids: two threads interning different keys must not
#: both read the same ``len`` (they would share one id, and one collapse
#: memo entry)
_SIG_LOCK = fork_safe_lock()


_OUT_KEY = ("out",)


def context_signatures(graph: Graph) -> list[int]:
    """Interned context-signature id per node, in node-id order.

    Nodes with equal ids are interchangeable intra-op DP subproblems on
    any mesh (see module docstring for the induction).

    The per-node local key deliberately omits input specs (unlike
    ``node_cost_key``): producer signatures already pin every input's
    shape and dtype — operator producers through their own keys, leaves
    through the ``(shape, dtype)`` leaf key — so equal signatures still
    imply equal ``node_cost_key``s, at a fraction of the tuple-building
    cost (this function runs once per graph on the DP solve path).
    """
    from ..runtime.opcost import _freeze  # deferred: runtime imports ir

    sigs: list[int] = [0] * len(graph)
    consumers = graph.consumers
    intern = _SIG_IDS
    for node in graph.nodes:  # topological order by construction
        nt = node.node_type
        out = node.out
        if nt == "operator":
            local = ("op", node.op, out.shape, out.dtype.name,
                     _freeze(node.params))
        elif nt == "output":
            local = _OUT_KEY
        else:
            local = ("leaf", out.shape, out.dtype.name)
        key = (local,
               tuple((sigs[p], len(consumers(p))) for p in node.inputs))
        sid = intern.get(key)
        if sid is None:
            with _SIG_LOCK:
                sid = intern.setdefault(key, len(intern))
        sigs[node.id] = sid
    return sigs
