#!/usr/bin/env python
"""Diff committed intra-op plans with topology-aware pricing off vs on.

Solves each benchmark family on the multi-node Table-II mesh (Platform 2,
mesh 3, logical 2x2) twice — ``REPRO_TOPO`` off and on — and writes a
JSON report of every node whose committed strategy changed, plus the
plan-level predicted times.  CI uploads the report as an artifact; the
script exits non-zero unless at least one family commits a different
plan under topology-aware pricing (the refactor's acceptance bar).

Usage: python scripts/topo_plan_diff.py [--output PATH] [--families gpt,moe,...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.cluster import PLATFORM2  # noqa: E402
from repro.memo import clear_all  # noqa: E402
from repro.models import benchmark_config, build_model  # noqa: E402
from repro.parallel import intra_op  # noqa: E402


def solve(graph, mesh, topo: bool):
    if topo:
        os.environ["REPRO_TOPO"] = "on"
    else:
        os.environ.pop("REPRO_TOPO", None)
    try:
        clear_all()
        return intra_op.optimize_stage(graph, mesh.logical(2, 2))
    finally:
        os.environ.pop("REPRO_TOPO", None)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--output", default="topo_plan_diff.json")
    ap.add_argument("--families", default="gpt,moe,bert,vit")
    args = ap.parse_args()

    mesh = PLATFORM2.mesh(3)
    report = {"mesh": mesh.key(), "logical": "dp2mp2", "families": {}}
    any_diff = False
    for fam in args.families.split(","):
        graph = build_model(benchmark_config(fam, n_layers=2)).full_graph()
        off = solve(graph, mesh, topo=False)
        on = solve(graph, mesh, topo=True)
        changed = []
        for node, a, b in zip(graph.nodes, off.assignments, on.assignments):
            if a.strategy.name != b.strategy.name:
                changed.append({"node": node.name, "op": node.op,
                                "flat": a.strategy.name,
                                "topo": b.strategy.name})
        report["families"][fam] = {
            "nodes": len(graph.nodes),
            "changed": len(changed),
            "time_flat_s": off.estimated_time,
            "time_topo_s": on.estimated_time,
            "diff": changed,
        }
        any_diff |= bool(changed)
        print(f"{fam}: {len(changed)}/{len(graph.nodes)} node strategies "
              f"changed, predicted {off.estimated_time * 1e3:.2f} -> "
              f"{on.estimated_time * 1e3:.2f} ms")

    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=2))
    print(f"wrote {out}")
    if not any_diff:
        print("ERROR: topology-aware pricing changed no committed plan",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
