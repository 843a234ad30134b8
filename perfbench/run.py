#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, end-to-end or traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload daris-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics (see ``perfbench/README.md``).  The metric names, units and
workloads are declared in ``BENCHMARK.json``.  Earlier stdout lines carry a
``report`` object (host, seeds, output digest, simulated figures and
failures) and, when traced, the span table; the last line is the result::

    {"correct": true, "attempted": 36, "failed": 0, "metrics": {...}}

Exit status 0 means the run completed (check ``correct``); anything else
means it could not run, for instance outside a source checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import env


def main(argv: Sequence[str]) -> int:
    with open(env.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declaration = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in declaration["workloads"]]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env.require_source()
    except env.MissingSource as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import measure

    return measure.main(args, declaration)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
