"""Per-token transfer multigraphs and their component/degree structure."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .ingest import EVENT_ORDER, BlockWindow, TransferEvent


@dataclass
class TokenGraph:
    """Directed multigraph of one token's transfers inside one block window.

    Nodes are lowercase hex addresses; ``nodes[i]`` is the address of node id
    ``i``.  Edges are stored as parallel arrays ordered by (block, logIndex)
    of the originating events, so parallel edges and self-loops occur as-is.
    Values stay exact python ints (uint256 sums overflow any fixed dtype).
    """

    token: str
    window: BlockWindow
    nodes: list[str]
    edge_from: np.ndarray  # int32 node ids
    edge_to: np.ndarray    # int32 node ids
    values: list[int]
    blocks: np.ndarray     # int64 block numbers, one per edge

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.values)


@dataclass
class ComponentSummary:
    count: int
    sizes: list[int]


@dataclass
class DegreeStats:
    """Multiplicity-counting degrees; a self-loop adds 1 to each side."""

    in_degree: dict[str, int]
    out_degree: dict[str, int]

    def degree(self, node: str) -> int:
        return self.in_degree.get(node, 0) + self.out_degree.get(node, 0)

    def nodes_with_degree_over(self, threshold: int) -> list[str]:
        return [n for n in self.in_degree
                if self.in_degree[n] + self.out_degree[n] > threshold]


def build_graphs(
    events: Sequence[TransferEvent], window: BlockWindow,
) -> dict[str, TokenGraph]:
    """Build one graph per token from one window's worth of events.

    Every event becomes exactly one edge of its token's graph; the node set
    is exactly the set of edge endpoints.
    """
    per_token: dict[str, list[TransferEvent]] = {}
    for event in events:
        per_token.setdefault(event.token, []).append(event)

    graphs: dict[str, TokenGraph] = {}
    for token, token_events in per_token.items():
        token_events.sort(key=EVENT_ORDER)
        index: dict[str, int] = {}
        nodes: list[str] = []
        n = len(token_events)
        edge_from = np.empty(n, dtype=np.int32)
        edge_to = np.empty(n, dtype=np.int32)
        blocks = np.empty(n, dtype=np.int64)
        values: list[int] = []
        for i, event in enumerate(token_events):
            src = index.get(event.from_addr)
            if src is None:
                src = index[event.from_addr] = len(nodes)
                nodes.append(event.from_addr)
            dst = index.get(event.to_addr)
            if dst is None:
                dst = index[event.to_addr] = len(nodes)
                nodes.append(event.to_addr)
            edge_from[i] = src
            edge_to[i] = dst
            blocks[i] = event.block
            values.append(event.value)
        graphs[token] = TokenGraph(token, window, nodes, edge_from, edge_to,
                                   values, blocks)
    return graphs


class _UnionFind:
    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def weak_components(graph: TokenGraph) -> ComponentSummary:
    """Weakly connected components via union-find over undirected shadows."""
    n = graph.num_nodes
    if n == 0:
        raise ValueError("components of an empty graph are undefined")
    uf = _UnionFind(n)
    for src, dst in zip(graph.edge_from.tolist(), graph.edge_to.tolist()):
        uf.union(src, dst)

    root_to_comp: dict[int, int] = {}
    sizes: list[int] = []
    for node_id in range(n):
        root = uf.find(node_id)
        comp = root_to_comp.get(root)
        if comp is None:
            comp = root_to_comp[root] = len(sizes)
            sizes.append(0)
        sizes[comp] += 1
    return ComponentSummary(count=len(sizes), sizes=sizes)


def degree_stats(graph: TokenGraph) -> DegreeStats:
    n = graph.num_nodes
    out_counts = np.bincount(graph.edge_from, minlength=n)
    in_counts = np.bincount(graph.edge_to, minlength=n)
    out_degree = {addr: int(out_counts[i]) for i, addr in enumerate(graph.nodes)}
    in_degree = {addr: int(in_counts[i]) for i, addr in enumerate(graph.nodes)}
    return DegreeStats(in_degree=in_degree, out_degree=out_degree)


def write_edge_list(graph: TokenGraph, out: TextIO) -> None:
    """Dump one graph in the plotting-friendly edge-list format."""
    out.write(f"# token={graph.token} window={graph.window}\n")
    nodes = graph.nodes
    for i in range(graph.num_edges):
        out.write(f"{nodes[graph.edge_from[i]]}\t{nodes[graph.edge_to[i]]}"
                  f"\t{graph.values[i]}\t{graph.blocks[i]}\n")


def export_graphs(graphs: Iterable[TokenGraph], directory: str | os.PathLike) -> int:
    os.makedirs(directory, exist_ok=True)
    count = 0
    for graph in graphs:
        name = f"{graph.token}_{graph.window.start}-{graph.window.end}.edges"
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            write_edge_list(graph, handle)
        count += 1
    return count
