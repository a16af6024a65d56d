"""Structural and temporal summary features of token transfer graphs."""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import TokenGraph, weak_components
from .ingest import BlockWindow

FULL_FEATURES = (
    "num_nodes", "num_edges", "density", "num_components",
    "avg_comp_size", "lifetime", "transfer_std_dev", "amount",
)
REDUCED_FEATURES = (
    "density", "avg_comp_size", "lifetime", "transfer_std_dev",
    "amount", "edges_per_component",
)
REDUCED_NO_LIFETIME_FEATURES = tuple(
    name for name in REDUCED_FEATURES if name != "lifetime"
)

VARIANTS = {
    "full": FULL_FEATURES,
    "reduced": REDUCED_FEATURES,
    "reduced-no-lifetime": REDUCED_NO_LIFETIME_FEATURES,
}

TABLE_HEADER = ("token,window_start,window_end,num_nodes,num_edges,density,"
                "num_components,avg_comp_size,lifetime,transfer_std_dev,amount")


@dataclass
class FeatureVector:
    """The eight per-graph features.

    ``amount`` is the exact big-integer sum of raw transfer values; it is
    projected to float64 only when a model matrix is assembled.  ``density``
    may exceed 1 because parallel edges are counted, and is defined as 0 for
    graphs with fewer than two nodes.
    """

    token: str
    window: BlockWindow
    num_nodes: int
    num_edges: int
    density: float
    num_components: int
    avg_comp_size: float
    lifetime: int
    transfer_std_dev: float
    amount: int

    def value(self, name: str) -> float:
        if name == "edges_per_component":
            return self.num_edges / self.num_components
        return float(getattr(self, name))


def extract_features(graph: TokenGraph) -> FeatureVector:
    """Compute the feature vector of one graph.

    Lifetime is the block span between the first and last transfer; the
    spread statistic is the population standard deviation of the edge block
    numbers.
    """
    components = weak_components(graph)
    n = graph.num_nodes
    e = graph.num_edges
    density = e / (n * (n - 1)) if n >= 2 else 0.0
    blocks = graph.blocks
    first = int(blocks.min())
    last = int(blocks.max())
    return FeatureVector(
        token=graph.token,
        window=graph.window,
        num_nodes=n,
        num_edges=e,
        density=density,
        num_components=components.count,
        avg_comp_size=n / components.count,
        lifetime=last - first,
        transfer_std_dev=float(np.std(blocks)),  # population form
        amount=graph.amount,
    )


def feature_matrix(
    vectors: Sequence[FeatureVector], names: tuple[str, ...],
    log_amount: bool = False,
) -> np.ndarray:
    """Assemble the float64 model matrix, one column per feature name.

    ``log_amount`` swaps the raw amount column for log10(1 + amount); raw
    values are the default.
    """
    matrix = np.empty((len(vectors), len(names)), dtype=np.float64)
    for i, fv in enumerate(vectors):
        for j, name in enumerate(names):
            matrix[i, j] = fv.value(name)
    if log_amount and "amount" in names:
        column = names.index("amount")
        matrix[:, column] = np.log10(1.0 + matrix[:, column])
    return matrix


def format_real(x: float) -> str:
    """A real number as the feature table and the report files write it."""
    return format(x, ".10g")


def write_feature_table(vectors: Iterable[FeatureVector], path: str | os.PathLike) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(TABLE_HEADER + "\n")
        for fv in vectors:
            handle.write(",".join((
                fv.token,
                str(fv.window.start), str(fv.window.end),
                str(fv.num_nodes), str(fv.num_edges),
                format_real(fv.density),
                str(fv.num_components),
                format_real(fv.avg_comp_size),
                str(fv.lifetime),
                format_real(fv.transfer_std_dev),
                str(fv.amount),
            )))
            handle.write("\n")
            count += 1
    return count


def read_feature_table(path: str | os.PathLike) -> list[FeatureVector]:
    vectors: list[FeatureVector] = []
    with open(path, "r", encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n")
        if header != TABLE_HEADER:
            raise ValueError(f"unrecognized feature table header: {header!r}")
        for line_no, line in enumerate(handle, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 11:
                raise ValueError(f"line {line_no}: expected 11 columns")
            try:
                fv = FeatureVector(
                    token=fields[0],
                    window=BlockWindow(int(fields[1]), int(fields[2])),
                    num_nodes=int(fields[3]),
                    num_edges=int(fields[4]),
                    density=float(fields[5]),
                    num_components=int(fields[6]),
                    avg_comp_size=float(fields[7]),
                    lifetime=int(fields[8]),
                    transfer_std_dev=float(fields[9]),
                    amount=int(fields[10]),
                )
            except ValueError as exc:
                raise ValueError(f"line {line_no}: {exc}") from None
            # a nan or inf would reach the model matrix and every score
            if not all(map(math.isfinite, (fv.density, fv.avg_comp_size,
                                           fv.transfer_std_dev))):
                raise ValueError(f"line {line_no}: density, avg_comp_size and "
                                 f"transfer_std_dev must be finite")
            if abs(fv.amount) > sys.float_info.max:  # the model matrix is float64
                raise ValueError(f"line {line_no}: amount beyond the float64 range")
            vectors.append(fv)
    return vectors


def histogram_bins(
    vectors: Sequence[FeatureVector], bins: int = 20,
) -> dict[str, list[tuple[float, float, int]]]:
    """Per-feature (bin_start, bin_end, count) triples for external plotting."""
    out: dict[str, list[tuple[float, float, int]]] = {}
    matrix = feature_matrix(vectors, FULL_FEATURES)
    for name, column in zip(FULL_FEATURES, matrix.T):
        if column.size == 0:
            out[name] = []
            continue
        lo, hi = float(column.min()), float(column.max())
        if math.isclose(lo, hi):
            out[name] = [(lo, hi, int(column.size))]
            continue
        counts, edges = np.histogram(column, bins=bins, range=(lo, hi))
        out[name] = [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                     for i in range(len(counts))]
    return out


def write_histograms(
    histograms: dict[str, list[tuple[float, float, int]]], path: str | os.PathLike,
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("feature,bin_start,bin_end,count\n")
        for name, rows in histograms.items():
            for lo, hi, count in rows:
                handle.write(f"{name},{format_real(lo)},{format_real(hi)},{count}\n")
