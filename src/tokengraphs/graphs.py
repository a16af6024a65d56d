"""Per-token transfer multigraphs and their weak components."""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, TextIO

import numpy as np

from .ingest import ADDRESS_DTYPE, BlockWindow, LimbValues, WindowBatch


@dataclass
class TokenGraph(LimbValues):
    """Directed multigraph of one token's transfers inside one block window.

    Nodes are lowercase hex addresses in ASCII bytes, decoded only for export:
    ``nodes`` is an ``S42`` array over the batch's address blob, and
    ``nodes[i]`` is the address of node id ``i``.  Edges are stored as
    parallel arrays ordered by (block, logIndex) of the originating
    transfers, so parallel edges and self-loops occur as-is.  Edge values are
    uint64 limbs plus a side dict keyed by edge (see ``LimbValues``;
    ``values`` makes exact ints on demand), and ``amount`` is their exact sum.
    A graph with no wide value shares one read-only empty ``wide``.
    """

    token: str
    window: BlockWindow
    nodes: np.ndarray      # S42 addresses
    edge_from: np.ndarray  # int32 node ids
    edge_to: np.ndarray    # int32 node ids
    blocks: np.ndarray     # int64 block numbers, one per edge
    value_lo: np.ndarray
    value_hi: np.ndarray
    wide: Mapping[int, int]
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
_NO_WIDE: Mapping[int, int] = MappingProxyType({})
_CHECK_ROWS = 65_536  # rows per step of the order check


def _limb_sums(lo: np.ndarray, hi: np.ndarray, starts: list[int]) -> list[int]:
    """Exact sums of ``lo + (hi << 64)`` over the runs that begin at ``starts``,
    from each 32-bit half of each limb, read through a strided view of the
    limb and summed in uint64, in either byte order."""
    sums = [0] * len(starts)
    for shift, column in ((0, lo), (64, hi)):
        byteorder = column.dtype.str[0]  # "<" or ">", a native column's too
        halves = column.view(byteorder + "u4")
        low = int(byteorder == ">")
        for half, offset in ((halves[low::2], 0), (halves[1 - low::2], 32)):
            parts = np.add.reduceat(half, starts, dtype=np.uint64).tolist()
            sums = [total + (part << (shift + offset)) for total, part in zip(sums, parts)]
    return sums


def _in_order(token: np.ndarray, block: np.ndarray, log_index: np.ndarray) -> bool:
    """Whether the rows are already in (token, block, logIndex) order, checked
    ``_CHECK_ROWS`` rows at a time, so no temporary is as long as the window."""
    for start in range(0, len(token) - 1, _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS + 1)
        t, b, i = token[rows], block[rows], log_index[rows]
        same_token = t[1:] == t[:-1]
        same_block = same_token & (b[1:] == b[:-1])
        if ((t[1:] < t[:-1]).any() or (same_token & (b[1:] < b[:-1])).any()
                or (same_block & (i[1:] < i[:-1])).any()):
            return False
    return True


def build_graphs(batch: WindowBatch, window: BlockWindow) -> dict[str, TokenGraph]:
    """Build one graph per token from one window's batch.

    Every transfer becomes exactly one edge of its token's graph; the node set
    is exactly the set of edge endpoints.  Transfers may come in any order:
    this is the one place that puts edges in (block, logIndex) order.  A
    batch already in (token, block, logIndex) order, as a fixture written
    token by token gives, is used as it is.  Any other batch is taken over:
    its columns are put in that order one at a time, each sorted copy
    replacing (and freeing) its input.  The graphs' arrays are slices of the
    columns.
    """
    if len(batch) > MAX_WINDOW_TRANSFERS:
        raise ValueError(f"window {window} holds {len(batch)} transfers; values are "
                         f"summed exactly for at most {MAX_WINDOW_TRANSFERS}")
    if _in_order(batch.token, batch.block, batch.log_index):
        rows = sorted(batch.wide)
    else:
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
                for row in rows[bisect_left(rows, lo):bisect_left(rows, hi)]} or _NO_WIDE
        graphs[name] = TokenGraph(name, window, np.frombuffer(batch.nodes[t], ADDRESS_DTYPE),
                                  batch.src[lo:hi], batch.dst[lo:hi], batch.block[lo:hi],
                                  batch.value_lo[lo:hi], batch.value_hi[lo:hi], wide,
                                  amounts[t] + sum(wide.values()))
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
    nodes = list(map(bytes.decode, graph.nodes.tolist()))
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
