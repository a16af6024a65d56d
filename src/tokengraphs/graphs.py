"""Per-token transfer multigraphs and their weak components."""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .ingest import BlockWindow, LimbValues, WindowBatch


@dataclass
class TokenGraph(LimbValues):
    """Directed multigraph of one token's transfers inside one block window.

    Nodes are lowercase hex addresses in ASCII bytes, decoded only for export;
    ``nodes[i]`` is the address of node id ``i``.  Edges are stored as
    parallel arrays ordered by (block, logIndex) of the originating
    transfers, so parallel edges and self-loops occur as-is.  Edge values are
    uint64 limbs plus a side dict keyed by edge (see ``LimbValues``;
    ``values`` makes exact ints on demand), and ``amount`` is their exact sum.
    """

    token: str
    window: BlockWindow
    nodes: list[bytes]
    edge_from: np.ndarray  # int32 node ids
    edge_to: np.ndarray    # int32 node ids
    blocks: np.ndarray     # int64 block numbers, one per edge
    value_lo: np.ndarray
    value_hi: np.ndarray
    wide: dict[int, int]
    amount: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.blocks)


@dataclass
class ComponentSummary:
    count: int
    sizes: list[int]


# below 2**32 transfers a window, each 32-bit limb of their values sums exactly in uint64
MAX_WINDOW_TRANSFERS = (1 << 32) - 1


def _limb_sums(lo: np.ndarray, hi: np.ndarray, starts: list[int]) -> list[int]:
    """Exact sums of ``lo + (hi << 64)`` over the runs that begin at ``starts``,
    from each 32-bit limb summed in uint64."""
    sums, limb = [0] * len(starts), np.empty_like(lo)
    for shift, column in ((0, lo), (32, lo), (64, hi), (96, hi)):
        np.right_shift(column, np.uint64(shift % 64), out=limb)
        np.bitwise_and(limb, np.uint64(0xFFFFFFFF), out=limb)
        parts = np.add.reduceat(limb, starts).tolist()
        sums = [total + (part << shift) for total, part in zip(sums, parts)]
    return sums


def build_graphs(batch: WindowBatch, window: BlockWindow) -> dict[str, TokenGraph]:
    """Build one graph per token from one window's batch.

    Every transfer becomes exactly one edge of its token's graph; the node set
    is exactly the set of edge endpoints.  Transfers may come in any order:
    this is the one place that puts edges in (block, logIndex) order.  It
    takes the batch over: its columns are put in (token, block, logIndex)
    order one at a time, each sorted copy replacing (and freeing) its input,
    and the graphs' arrays are slices of them.
    """
    if len(batch) > MAX_WINDOW_TRANSFERS:
        raise ValueError(f"window {window} holds {len(batch)} transfers; values are "
                         f"summed exactly for at most {MAX_WINDOW_TRANSFERS}")
    order = np.lexsort((batch.log_index, batch.block, batch.token))
    for name in ("token", "src", "dst", "block", "log_index", "value_lo", "value_hi"):
        setattr(batch, name, getattr(batch, name)[order])
    rows = np.flatnonzero(np.isin(order, list(batch.wide))).tolist() if batch.wide else []
    batch.wide = dict(zip(rows, map(batch.wide.get, order[rows].tolist())))
    del order
    edge_start = np.searchsorted(batch.token, np.arange(len(batch.tokens) + 1)).tolist()
    amounts = _limb_sums(batch.value_lo, batch.value_hi, edge_start[:-1])

    graphs: dict[str, TokenGraph] = {}
    for t, name in enumerate(batch.tokens):
        lo, hi = edge_start[t], edge_start[t + 1]
        wide = {row - lo: batch.wide[row]
                for row in rows[bisect_left(rows, lo):bisect_left(rows, hi)]}
        graphs[name] = TokenGraph(name, window, batch.nodes[t], batch.src[lo:hi],
                                  batch.dst[lo:hi], batch.block[lo:hi], batch.value_lo[lo:hi],
                                  batch.value_hi[lo:hi], wide, amounts[t] + sum(wide.values()))
    return graphs


def weak_components(graph: TokenGraph) -> ComponentSummary:
    """Weak components by min-label hooking and pointer jumping (Shiloach-Vishkin).

    Each pass hooks both endpoint roots of every edge onto the smaller one and
    jumps pointers to a fixed point, until every edge's ends share a root.
    Pointers only decrease, so each root is its component's smallest node id,
    and ``bincount`` of the roots, zeros dropped, gives ``sizes`` in that order.
    """
    n = graph.num_nodes
    if n == 0:
        raise ValueError("components of an empty graph are undefined")
    src, dst = graph.edge_from, graph.edge_to
    parent = np.arange(n)
    root_src, root_dst = parent[src], parent[dst]
    while (root_src != root_dst).any():
        low = np.minimum(root_src, root_dst)
        np.minimum.at(parent, root_src, low)
        np.minimum.at(parent, root_dst, low)
        jumped = parent[parent]
        while (jumped != parent).any():
            parent, jumped = jumped, jumped[jumped]
        root_src, root_dst = parent[src], parent[dst]
    sizes = np.bincount(parent)
    sizes = sizes[sizes > 0]
    return ComponentSummary(count=len(sizes), sizes=sizes.tolist())


def write_edge_list(graph: TokenGraph, out: TextIO) -> None:
    """Dump one graph in the plotting-friendly edge-list format."""
    out.write(f"# token={graph.token} window={graph.window}\n")
    nodes = list(map(bytes.decode, graph.nodes))
    for src, dst, value, block in zip(graph.edge_from.tolist(), graph.edge_to.tolist(),
                                      graph.values, graph.blocks.tolist()):
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
