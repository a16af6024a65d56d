"""Structural and temporal summary features of token transfer graphs.

A feature table is a numpy record array with one field per ``TABLE_HEADER``
column and one row per (token, window).  Reals are float64; every other cell
is the exact Python object, an address or an int of any size, so ``amount``
stays exact and no int64 range is forced on window bounds or counts.
"""

from __future__ import annotations

import math
import os
import re
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from .graphs import TokenGraph, weak_components

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
_COLUMNS = TABLE_HEADER.split(",")
_TABLE_DTYPE = np.dtype([(name, np.float64 if kind == "real" else object)
                         for name, kind in zip(_COLUMNS, _TABLE_KINDS)])
# the int cells a model matrix takes, in the order a row's range check reports them
_COUNTS = ("amount", "num_nodes", "num_edges", "num_components", "lifetime")

_HISTOGRAM_BINS = 20


def feature_table(rows: Sequence[tuple]) -> np.recarray:
    """The feature table of ``rows``, each a tuple of cells in header order."""
    return np.asarray(rows, dtype=_TABLE_DTYPE).view(np.recarray)


def extract_features(graph: TokenGraph) -> tuple:
    """The feature-table row of one graph, its cells in header order.

    ``amount`` is the exact big-integer sum of raw transfer values; it is
    projected to float64 only when a model matrix is assembled.  ``density``
    may exceed 1 because parallel edges are counted, and is defined as 0 for
    graphs with fewer than two nodes.  Lifetime is the block span between the
    first and last transfer; the spread statistic is the population standard
    deviation of the edge block numbers.
    """
    components = weak_components(graph)
    n = graph.num_nodes
    e = graph.num_edges
    density = e / (n * (n - 1)) if n >= 2 else 0.0
    blocks = graph.blocks  # in (block, logIndex) order
    return (graph.token, *graph.window, n, e, density, components.count,
            n / components.count, int(blocks[-1] - blocks[0]),
            float(np.std(blocks)),  # population form
            graph.amount)


def feature_matrix(
    table: np.recarray, names: tuple[str, ...], log_amount: bool = False,
) -> np.ndarray:
    """Assemble the float64 model matrix, one column per feature name.

    ``edges_per_component`` divides the exact ints of ``num_edges`` by those of
    ``num_components``.  ``log_amount`` swaps the raw amount column for
    log10(1 + amount); raw values are the default.
    """
    matrix = np.empty((len(table), len(names)), dtype=np.float64)
    for j, name in enumerate(names):
        matrix[:, j] = (table.num_edges / table.num_components
                        if name == "edges_per_component" else table[name])
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
    """The one header loop of CSV and model files: ``(line_no, line)`` for each
    non-blank line under a header equal to ``header``; any other header raises
    ``error``.  A byte that is not UTF-8 reads as a lone surrogate, which no
    row check passes."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        first = handle.readline().rstrip("\n")
        if first != header:
            raise error(f"unrecognized {kind} header: {first!r}")
        for line_no, line in enumerate(handle, start=2):
            if line != "\n":
                yield line_no, line.rstrip("\n")


def write_feature_table(table: np.recarray, path: str | os.PathLike) -> int:
    """Write a feature table, reals by ``format_real``; returns the row count."""
    columns = [map(format_real, table[name].tolist()) if kind == "real" else table[name]
               for name, kind in zip(_COLUMNS, _TABLE_KINDS)]
    return write_rows(path, TABLE_HEADER, zip(*columns))


def _diagnose_table_row(line_no: int, line: str) -> ValueError:
    """The first bad cell of a row the row pattern refused."""
    fields = line.split(",")
    if len(fields) != len(_TABLE_KINDS):
        return ValueError(f"line {line_no}: expected 11 columns")
    for name, kind, cell in zip(_COLUMNS, _TABLE_KINDS, fields):
        if re.fullmatch(_CELL_PATTERNS[kind], cell) is None:
            if kind == "token":
                return ValueError(f"line {line_no}: bad token address: {cell!r}")
            form = "ASCII digits 0-9" if kind == "int" else "a decimal or exponent"
            return ValueError(f"line {line_no}: invalid literal for {name} "
                              f"(expected {form}): {cell!r}")
    return ValueError(f"line {line_no}: malformed row")


def read_feature_table(path: str | os.PathLike) -> np.recarray:
    """The feature table a file holds; a row that cannot reach a model matrix
    raises a ``ValueError`` naming its line."""
    rows = []
    match = _TABLE_ROW_RE.fullmatch
    for line_no, line in read_rows(path, TABLE_HEADER, "feature table"):
        m = match(line)
        if m is None:
            raise _diagnose_table_row(line_no, line)
        (token, start, end, nodes, edges, density, components, avg_size, lifetime,
         std_dev, amount) = m.groups()
        try:
            row = (token, int(start), int(end), int(nodes), int(edges), float(density),
                   int(components), float(avg_size), int(lifetime), float(std_dev),
                   int(amount))
        except ValueError as exc:  # an integer past Python's digit limit
            raise ValueError(f"line {line_no}: {exc}") from None
        _, _, _, nodes, edges, density, components, avg_size, lifetime, std_dev, amount = row
        # a nan or inf would reach the model matrix and every score
        if not all(map(math.isfinite, (density, avg_size, std_dev))):
            raise ValueError(f"line {line_no}: density, avg_comp_size and "
                             f"transfer_std_dev must be finite")
        # the model matrix is float64, and edges_per_component divides by num_components
        counts = (amount, nodes, edges, components, lifetime)
        if max(counts) > sys.float_info.max:
            name = next(name for name, count in zip(_COUNTS, counts)
                        if count > sys.float_info.max)
            raise ValueError(f"line {line_no}: {name} beyond the float64 range")
        if components == 0:
            raise ValueError(f"line {line_no}: num_components must be at least 1")
        rows.append(row)
    return feature_table(rows)


def histogram_bins(table: np.recarray) -> dict[str, list[tuple[float, float, int]]]:
    """Per-feature (bin_start, bin_end, count) triples for external plotting."""
    out: dict[str, list[tuple[float, float, int]]] = {}
    matrix = feature_matrix(table, FULL_FEATURES)
    for name, column in zip(FULL_FEATURES, matrix.T):
        if column.size == 0:
            out[name] = []
            continue
        lo, hi = float(column.min()), float(column.max())
        if math.isclose(lo, hi):
            out[name] = [(lo, hi, int(column.size))]
            continue
        counts, edges = np.histogram(column, bins=_HISTOGRAM_BINS, range=(lo, hi))
        out[name] = [(float(edges[i]), float(edges[i + 1]), int(counts[i]))
                     for i in range(len(counts))]
    return out


def write_histograms(
    histograms: dict[str, list[tuple[float, float, int]]], path: str | os.PathLike,
) -> None:
    write_rows(path, "feature,bin_start,bin_end,count", (
        (name, format_real(lo), format_real(hi), count)
        for name, rows in histograms.items() for lo, hi, count in rows))
