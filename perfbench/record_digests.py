#!/usr/bin/env python3
"""Record the output digests the benchmark checks at each default seed.

    python3 perfbench/record_digests.py

Runs the set-up and one pass of every workload at its default seed, checks
the feature tables against the oracles, and writes ``digests.json``.  Run it
only on a commit whose outputs are meant to be the reference.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads


def main() -> int:
    digests = {}
    for name, seed in sorted(workloads.DEFAULT_SEEDS.items()):
        bench = run.Bench(workloads.build(name, seed), run.ROOT, expected={})
        try:
            bench.run(seconds=0)
        finally:
            bench.clean()
        if bench.failed or not bench.passes:
            print(f"{name}: not recorded: {bench.problems}", file=sys.stderr)
            return 1
        digests[name] = dict(sorted(bench.reference.items()))
    with open(checks.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
