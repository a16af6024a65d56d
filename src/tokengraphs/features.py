"""Structural and temporal summary features of token transfer graphs."""

from __future__ import annotations

import math
import os
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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

# cell patterns: the token is a fixture address, integers are ASCII digits,
# reals are what ``format_real`` writes (nan and inf pass here and are refused
# as non-finite after parsing)
_CELL_PATTERNS = {
    "token": r"0x[0-9a-f]{40}",
    "int": r"[0-9]+",
    "real": r"-?[0-9]+(?:\.[0-9]+)?(?:e[-+][0-9]+)?|-?inf|nan",
}
_TABLE_KINDS = ("token", "int", "int", "int", "int", "real", "int", "real", "int",
                "real", "int")
_TABLE_ROW_RE = re.compile(
    ",".join(f"({_CELL_PATTERNS[kind]})" for kind in _TABLE_KINDS))


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
    """A real number as the feature table and the report files write it: 10
    significant digits, or the shortest round-trip form where those would
    round a finite value past the float64 maximum."""
    text = format(x, ".10g")
    if 1e308 < abs(x) < math.inf and math.isinf(float(text)):
        return repr(x)
    return text


def write_rows(path: str | os.PathLike, header: str, rows: Iterable[Iterable]) -> int:
    """The one CSV writer: the header line, then each row's cells joined by
    commas (reals already formatted by ``format_real``); returns the row count."""
    lines = [header, *(",".join(map(str, row)) for row in rows)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(lines) - 1


def read_rows(path: str | os.PathLike, header: str, kind: str,
              error: type[ValueError] = ValueError) -> Iterator[tuple[int, str]]:
    """The one CSV header loop: ``(line_no, line)`` for each non-blank line
    under a header equal to ``header``; any other header raises ``error``."""
    with open(path, "r", encoding="utf-8") as handle:
        first = handle.readline().rstrip("\n")
        if first != header:
            raise error(f"unrecognized {kind} header: {first!r}")
        for line_no, line in enumerate(handle, start=2):
            if line != "\n":
                yield line_no, line.rstrip("\n")


def write_feature_table(vectors: Iterable[FeatureVector], path: str | os.PathLike) -> int:
    return write_rows(path, TABLE_HEADER, (
        (fv.token, fv.window.start, fv.window.end, fv.num_nodes, fv.num_edges,
         format_real(fv.density), fv.num_components, format_real(fv.avg_comp_size),
         fv.lifetime, format_real(fv.transfer_std_dev), fv.amount) for fv in vectors))


def _diagnose_table_row(line_no: int, line: str) -> ValueError:
    """The first bad cell of a row the row pattern refused."""
    fields = line.split(",")
    if len(fields) != len(_TABLE_KINDS):
        return ValueError(f"line {line_no}: expected 11 columns")
    for name, kind, cell in zip(TABLE_HEADER.split(","), _TABLE_KINDS, fields):
        if re.fullmatch(_CELL_PATTERNS[kind], cell) is None:
            if kind == "token":
                return ValueError(f"line {line_no}: bad token address: {cell!r}")
            form = "ASCII digits 0-9" if kind == "int" else "a decimal or exponent"
            return ValueError(f"line {line_no}: invalid literal for {name} "
                              f"(expected {form}): {cell!r}")
    return ValueError(f"line {line_no}: malformed row")


def read_feature_table(path: str | os.PathLike) -> list[FeatureVector]:
    vectors: list[FeatureVector] = []
    match = _TABLE_ROW_RE.fullmatch
    for line_no, line in read_rows(path, TABLE_HEADER, "feature table"):
        m = match(line)
        if m is None:
            raise _diagnose_table_row(line_no, line)
        (token, start, end, num_nodes, num_edges, density, num_components,
         avg_comp_size, lifetime, std_dev, amount) = m.groups()
        try:
            fv = FeatureVector(token, BlockWindow(int(start), int(end)), int(num_nodes),
                               int(num_edges), float(density), int(num_components),
                               float(avg_comp_size), int(lifetime), float(std_dev),
                               int(amount))
        except ValueError as exc:  # an integer past Python's digit limit
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
    write_rows(path, "feature,bin_start,bin_end,count", (
        (name, format_real(lo), format_real(hi), count)
        for name, rows in histograms.items() for lo, hi, count in rows))
