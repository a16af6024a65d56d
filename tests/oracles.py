"""Independent straight-line reference implementations used to check the
package's optimized paths.  Nothing here imports the code under test except
plain data containers."""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def bfs_components(n_nodes: int, edges: list[tuple[int, int]]) -> tuple[int, list[int]]:
    """Weak components by breadth-first search over undirected shadows.

    Returns (count, sorted component sizes).
    """
    sizes = bfs_component_sizes(n_nodes, edges)
    return len(sizes), sorted(sizes)


def bfs_component_sizes(n_nodes: int, edges: list[tuple[int, int]]) -> list[int]:
    """Weak component sizes by breadth-first search, ordered by each
    component's smallest node id."""
    neighbors: list[list[int]] = [[] for _ in range(n_nodes)]
    for src, dst in edges:
        neighbors[src].append(dst)
        neighbors[dst].append(src)
    seen = [False] * n_nodes
    sizes: list[int] = []
    for start in range(n_nodes):
        if seen[start]:
            continue
        size = 0
        queue = deque([start])
        seen[start] = True
        while queue:
            node = queue.popleft()
            size += 1
            for other in neighbors[node]:
                if not seen[other]:
                    seen[other] = True
                    queue.append(other)
        sizes.append(size)
    return sizes


def straight_line_features(
    edges: list[tuple[str, str, int, int]],
) -> dict[str, float | int]:
    """Feature definitions transcribed directly: edges are (from, to, value, block)."""
    nodes = set()
    for src, dst, _value, _block in edges:
        nodes.add(src)
        nodes.add(dst)
    n = len(nodes)
    e = len(edges)

    density = e / (n * (n - 1)) if n >= 2 else 0.0

    # components by label propagation over the undirected pairs
    labels = {node: node for node in nodes}

    def root(node: str) -> str:
        while labels[node] != node:
            node = labels[node]
        return node

    for src, dst, _value, _block in edges:
        ra, rb = root(src), root(dst)
        if ra != rb:
            labels[ra] = rb
    components = len({root(node) for node in nodes})

    blocks = [block for _s, _d, _v, block in edges]
    mean_block = sum(blocks) / e
    variance = sum((b - mean_block) ** 2 for b in blocks) / e  # population form
    return {
        "num_nodes": n,
        "num_edges": e,
        "density": density,
        "num_components": components,
        "avg_comp_size": n / components,
        "lifetime": max(blocks) - min(blocks),
        "transfer_std_dev": math.sqrt(variance),
        "amount": sum(v for _s, _d, v, _b in edges),
    }


def pairwise_auc(scores: list[float], truth: list[int]) -> float:
    """AUC as P(score+ > score-) + P(score+ = score-)/2 by full enumeration."""
    positives = [s for s, t in zip(scores, truth) if t == 1]
    negatives = [s for s, t in zip(scores, truth) if t == 0]
    wins = 0.0
    for pos in positives:
        for neg in negatives:
            if pos > neg:
                wins += 1.0
            elif pos == neg:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def finite_diff_gradient(func, params: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a vector."""
    grad = np.empty_like(params)
    for i in range(params.size):
        bumped_up = params.copy()
        bumped_up[i] += h
        bumped_down = params.copy()
        bumped_down[i] -= h
        grad[i] = (func(bumped_up) - func(bumped_down)) / (2.0 * h)
    return grad
