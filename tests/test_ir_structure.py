"""Unit tests for the communication-free structure detector.

Hand-built graphs with known structure: an elementwise chain, a Q/K/V
diamond (parallel twin branches off one producer), and a repeated-block
stack.  The detector must find exactly the structures we drew — the
collapse memo's correctness is differential-tested separately in
``test_dp_collapse.py``; here we pin the *semantics* of the signatures.
"""

from __future__ import annotations

from repro.ir import GraphBuilder, context_signatures


def chain_graph():
    """x -> relu -> exp -> tanh -> out: a sequential chain."""
    b = GraphBuilder("chain")
    x = b.input("x", (8, 16))
    b.output(b.tanh(b.exp(b.relu(x))), "out")
    return b.build()


def diamond_graph():
    """Q/K/V twins: three identical matmul branches off one producer."""
    b = GraphBuilder("diamond")
    x = b.input("x", (4, 8))
    heads = [b.matmul(x, b.param(f"w{i}", (8, 8))) for i in range(3)]
    acc = heads[0]
    for h in heads[1:]:
        acc = b.add(acc, h)
    b.output(acc, "out")
    return b.build()


def repeated_graph(reps: int = 4):
    """``reps`` identical layer blocks stacked sequentially."""
    b = GraphBuilder("repeated")
    h = b.input("x", (4, 8))
    for i in range(reps):
        h = b.relu(b.matmul(h, b.param(f"w{i}", (8, 8))))
    b.output(h, "out")
    return b.build()


class TestContextSignatures:
    def test_signatures_cover_every_node(self):
        g = diamond_graph()
        sigs = context_signatures(g)
        assert len(sigs) == len(g)
        assert all(isinstance(s, int) for s in sigs)

    def test_interning_is_stable_across_calls(self):
        g = diamond_graph()
        assert context_signatures(g) == context_signatures(g)

    def test_structural_twins_share_across_graphs(self):
        """Two independently built copies of the same graph intern to the
        same signature sequence — the cross-graph sharing the collapse
        memo relies on."""
        assert context_signatures(diamond_graph()) == \
            context_signatures(diamond_graph())

    def test_different_shapes_split_signatures(self):
        b = GraphBuilder("mixed")
        x = b.input("x", (4, 8))
        a = b.matmul(x, b.param("wa", (8, 8)))
        c = b.matmul(x, b.param("wb", (8, 16)))  # different weight shape
        b.output(b.add(a, b.matmul(c, b.param("wc", (16, 8)))), "out")
        g = b.build()
        sigs = context_signatures(g)
        mm = [n.id for n in g.nodes
              if n.node_type == "operator" and n.op == "dot_general"]
        a_id, c_id = mm[0], mm[1]
        assert sigs[a_id] != sigs[c_id]

    def test_fanout_is_part_of_the_context(self):
        """Same local structure, different consumer count on the producer
        → different signature (the DP amortizes by fan-out)."""
        def build(extra_consumer: bool):
            b = GraphBuilder("fan")
            x = b.input("x", (4, 8))
            h = b.matmul(x, b.param("w", (8, 8)))
            r = b.relu(h)
            if extra_consumer:
                r = b.add(r, b.exp(h))  # h now feeds two consumers
            b.output(r, "out")
            return b.build()

        g1, g2 = build(False), build(True)
        s1, s2 = context_signatures(g1), context_signatures(g2)
        relu1 = next(n.id for n in g1.nodes
                     if n.node_type == "operator" and n.op == "max")
        relu2 = next(n.id for n in g2.nodes
                     if n.node_type == "operator" and n.op == "max")
        assert s1[relu1] != s2[relu2]


def sharing(sigs: list[int], nid: int) -> list[int]:
    """Every node whose context signature equals ``nid``'s."""
    return [i for i, s in enumerate(sigs) if s == sigs[nid]]


class TestCommunicationFreeGroups:
    """Nodes sharing a signature are the groups the collapse solves once."""

    def test_diamond_twins_grouped(self):
        g = diamond_graph()
        sigs = context_signatures(g)
        mm = [n.id for n in g.nodes
              if n.node_type == "operator" and n.op == "dot_general"]
        assert sharing(sigs, mm[0]) == mm  # the three Q/K/V matmuls
        ws = [n.id for n in g.nodes
              if n.node_type == "literal" and n.out.shape == (8, 8)]
        assert sharing(sigs, ws[0]) == ws  # and their weights

    def test_chain_has_no_groups(self):
        """A pure sequential chain has no structural twins."""
        sigs = context_signatures(chain_graph())
        assert len(set(sigs)) == len(sigs)

    def test_repeated_layers_do_not_alias(self):
        """Stacked layers are *not* twins within one graph — each layer's
        context includes everything below it (the memo shares them across
        slice graphs instead, via identical prefixes)."""
        g = repeated_graph(3)
        sigs = context_signatures(g)
        mm = [n.id for n in g.nodes
              if n.node_type == "operator" and n.op == "dot_general"]
        assert len({sigs[i] for i in mm}) == len(mm)
