"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload profile-sweep --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload with timing shims around the
program's layer entry points and prints the per-layer metrics instead.
Scratch files live under ``.perfbench/`` in the checkout; the traced
runs leave their spans there (``spans-<workload>-seed<n>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import common

# before anything loads numpy: the traced serve-mixed run hosts the
# program in this process
os.environ.update(common.SINGLE_THREAD_ENV)

WORKLOADS = ("profile-sweep", "predtop-search", "serve-mixed")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()  # the checkout being measured
    common.require_program(root)
    if args.workload == "serve-mixed":
        import serve

        result = serve.run(root, args.seed, args.seconds, bool(args.trace))
    else:
        import offline

        result = offline.run(root, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    units = common.LAYER_UNITS if args.trace else common.E2E_UNITS
    result["metrics"] = {name: {"value": result["metrics"][name],
                                "unit": unit}
                         for name, unit in units.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
