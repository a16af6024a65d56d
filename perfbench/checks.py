"""Output checks.

At a workload's default seed every output must match the sha256 recorded
from the seed commit in ``digests.json``.  At any other seed each
feature-table row must match the straight-line oracles of ``tests/oracles.py``
(imported from the checkout, not copied).  At every seed an output must be
byte-identical to the same output of the run's first pass.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import sys
from collections import Counter

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

INT_COLUMNS = ("num_nodes", "num_edges", "num_components", "lifetime", "amount")
REAL_COLUMNS = ("density", "avg_comp_size", "transfer_std_dev")
# the table prints reals at 10 significant digits
REAL_TOLERANCE = 1e-9


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def recorded_digests(workload: str) -> dict[str, str]:
    """Output path -> sha256 recorded at the workload's default seed."""
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def load_oracles(root: str):
    path = os.path.join(root, "tests", "oracles.py")
    spec = importlib.util.spec_from_file_location("oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count_lines(path: str) -> int:
    with open(path, "rb") as handle:
        return sum(block.count(b"\n") for block in iter(lambda: handle.read(1 << 20), b""))


def _towards_hubs(edges: list[tuple[int, int, int, int]]) -> list[tuple[int, int, int, int]]:
    """The same edges, each pointing at its endpoint of higher degree.

    No feature depends on edge direction, but the oracle's union-find has no
    path compression: on a star whose hub is the sender its chains grow with
    every edge, which makes a 900-node star quadratic.
    """
    degree = Counter()
    for src, dst, _value, _block in edges:
        degree[src] += 1
        degree[dst] += 1
    return [edge if degree[edge[1]] >= degree[edge[0]] else (edge[1], edge[0], *edge[2:])
            for edge in edges]


def table_problems(table: str, fixture: str, width: int, oracles) -> list[str]:
    """Disagreements between a feature table and the oracles on its fixture."""
    groups: dict[tuple[str, int], list[tuple[int, int, int, int]]] = {}
    node_ids: dict[str, int] = {}
    intern = node_ids.setdefault
    with open(fixture, "r", encoding="utf-8") as handle:
        for line in handle:
            token, src, dst, value, block, _index, _tx = line.rstrip("\n").split("\t")
            block_no = int(block)
            key = (token, block_no - block_no % width)
            edges = groups.get(key)
            if edges is None:
                edges = groups[key] = []
            edges.append((intern(src, len(node_ids)), intern(dst, len(node_ids)),
                          int(value), block_no))

    problems = []
    with open(table, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        for line in handle:
            row = dict(zip(header, line.rstrip("\n").split(",")))
            key = (row["token"], int(row["window_start"]))
            edges = groups.pop(key, None)
            if edges is None:
                problems.append(f"{key}: row without transfers in the fixture")
                continue
            want = oracles.straight_line_features(_towards_hubs(edges))
            if int(row["window_end"]) != key[1] + width:
                problems.append(f"{key}: window_end {row['window_end']}")
            for column in INT_COLUMNS:
                if int(row[column]) != want[column]:
                    problems.append(f"{key}: {column} {row[column]} != {want[column]}")
            for column in REAL_COLUMNS:
                if not math.isclose(float(row[column]), want[column],
                                    rel_tol=REAL_TOLERANCE, abs_tol=1e-12):
                    problems.append(f"{key}: {column} {row[column]} != {want[column]}")
    problems.extend(f"{key}: no row in the table" for key in groups)
    return problems


def main(argv: list[str]) -> int:
    """``checks.py ROOT TABLE FIXTURE WIDTH``: print the disagreements as JSON."""
    root, table, fixture, width = argv
    print(json.dumps(table_problems(table, fixture, int(width), load_oracles(root))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
