"""Per-token transfer multigraphs and their component/degree structure."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .ingest import BlockWindow, WindowBatch


@dataclass
class TokenGraph:
    """Directed multigraph of one token's transfers inside one block window.

    Nodes are lowercase hex addresses; ``nodes[i]`` is the address of node id
    ``i``.  Edges are stored as parallel arrays ordered by (block, logIndex)
    of the originating transfers, so parallel edges and self-loops occur
    as-is.  Values stay exact python ints (uint256 sums overflow any fixed
    dtype); ``amount`` is their sum.
    """

    token: str
    window: BlockWindow
    nodes: list[str]
    edge_from: np.ndarray  # int32 node ids
    edge_to: np.ndarray    # int32 node ids
    values: np.ndarray     # object array of exact python ints, one per edge
    blocks: np.ndarray     # int64 block numbers, one per edge
    amount: int

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


def build_graphs(batch: WindowBatch, window: BlockWindow) -> dict[str, TokenGraph]:
    """Build one graph per token from one window's batch.

    Every transfer becomes exactly one edge of its token's graph; the node set
    is exactly the set of edge endpoints.  Transfers may come in any order:
    this is the one place that puts edges in (block, logIndex) order.  The
    graphs' arrays are slices of one (token, block, logIndex)-sorted copy of
    the batch.
    """
    order = np.lexsort((batch.log_index, batch.block, batch.token))
    edge_start = np.searchsorted(batch.token[order],
                                 np.arange(len(batch.tokens) + 1)).tolist()
    src, dst = batch.src[order], batch.dst[order]
    values, blocks = batch.values[order], batch.block[order]
    amounts = np.add.reduceat(values, edge_start[:-1]).tolist()

    graphs: dict[str, TokenGraph] = {}
    for t, name in enumerate(batch.tokens):
        lo, hi = edge_start[t], edge_start[t + 1]
        graphs[name] = TokenGraph(name, window, batch.nodes[t], src[lo:hi], dst[lo:hi],
                                  values[lo:hi], blocks[lo:hi], amounts[t])
    return graphs


def weak_components(graph: TokenGraph) -> ComponentSummary:
    """Weak components by min-label hooking and pointer jumping (Shiloach-Vishkin).

    Each pass hooks both endpoint roots of every edge onto the smaller one and
    jumps pointers to a fixed point, until every edge's ends share a root.
    Pointers only decrease, so ``sizes`` come ordered by smallest node id.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("components of an empty graph are undefined")
    src, dst = graph.edge_from, graph.edge_to
    parent = np.arange(n)
    root_src, root_dst = parent[src], parent[dst]
    while not np.array_equal(root_src, root_dst):
        low = np.minimum(root_src, root_dst)
        np.minimum.at(parent, root_src, low)
        np.minimum.at(parent, root_dst, low)
        jumped = parent[parent]
        while not np.array_equal(jumped, parent):
            parent, jumped = jumped, jumped[jumped]
        root_src, root_dst = parent[src], parent[dst]
    sizes = np.bincount(np.unique(parent, return_inverse=True)[1])
    return ComponentSummary(count=len(sizes), sizes=sizes.tolist())


def degree_stats(graph: TokenGraph) -> tuple[np.ndarray, np.ndarray]:
    """(in, out) degree of each node id, counting multiplicity; a self-loop
    adds 1 to each side."""
    n = graph.num_nodes
    return (np.bincount(graph.edge_to, minlength=n),
            np.bincount(graph.edge_from, minlength=n))


def write_edge_list(graph: TokenGraph, out: TextIO) -> None:
    """Dump one graph in the plotting-friendly edge-list format."""
    out.write(f"# token={graph.token} window={graph.window}\n")
    nodes = graph.nodes
    for src, dst, value, block in zip(graph.edge_from.tolist(), graph.edge_to.tolist(),
                                      graph.values.tolist(), graph.blocks.tolist()):
        out.write(f"{nodes[src]}\t{nodes[dst]}\t{value}\t{block}\n")


def export_graphs(graphs: Iterable[TokenGraph], directory: str | os.PathLike) -> int:
    os.makedirs(directory, exist_ok=True)
    count = 0
    for graph in graphs:
        name = f"{graph.token}_{graph.window.start}-{graph.window.end}.edges"
        with open(os.path.join(directory, name), "w", encoding="utf-8") as handle:
            write_edge_list(graph, handle)
        count += 1
    return count
