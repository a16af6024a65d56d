"""Ground-truth label handling and the labeled training corpus."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

from .features import read_rows, write_rows

LABEL_HEADER = "token,suspicious"

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")

DEFAULT_MIN_NODES = 500


class LabelParseError(ValueError):
    pass


class LabelConflictError(ValueError):
    """Same token labeled both suspicious and clean."""


@dataclass
class LabeledDataset:
    """Feature-table rows joined with their 0/1 labels, one row per (token, window).

    ``unlabeled`` lists tokens that cleared the node threshold but have no
    ground-truth label; they are excluded from training rather than assumed
    legitimate.
    """

    table: np.recarray
    labels: np.ndarray
    unlabeled: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, keep) -> LabeledDataset:
        """The rows a mask or an index array selects, with their labels."""
        return LabeledDataset(self.table[keep], self.labels[keep])

    def row_ids(self) -> list[tuple[str, int, int]]:
        return list(zip(self.table.token, self.table.window_start, self.table.window_end))


def load_labels(path: str | os.PathLike) -> dict[str, int]:
    """Read a label file into {token: 0/1}; conflicting duplicates are an error."""
    labels: dict[str, int] = {}
    for line_no, line in read_rows(path, LABEL_HEADER, "label", LabelParseError):
        fields = line.split(",")
        if len(fields) != 2:
            raise LabelParseError(f"line {line_no}: expected 2 columns")
        token, flag = fields
        if not _ADDRESS_RE.match(token):
            raise LabelParseError(f"line {line_no}: bad token address {token!r}")
        if flag not in ("0", "1"):
            raise LabelParseError(f"line {line_no}: suspicious must be 0 or 1")
        token = token.lower()
        value = int(flag)
        if token in labels and labels[token] != value:
            raise LabelConflictError(f"line {line_no}: conflicting labels for {token}")
        labels[token] = value
    return labels


def write_labels(labels: dict[str, int], path: str | os.PathLike) -> None:
    write_rows(path, LABEL_HEADER, labels.items())


def join(
    table: np.recarray,
    labels: dict[str, int],
    min_nodes: int = DEFAULT_MIN_NODES,
) -> LabeledDataset:
    """Keep labeled rows with strictly more than ``min_nodes`` nodes.

    The threshold is strict: a 500-node graph is excluded at the default.
    Over-threshold tokens lacking a label are reported in ``unlabeled``.
    """
    kept: list[int] = []
    flags: list[int] = []
    unlabeled: list[str] = []
    seen_rows: set[tuple[str, int]] = set()
    for row, (token, start, nodes) in enumerate(zip(table.token, table.window_start,
                                                    table.num_nodes)):
        if nodes <= min_nodes:
            continue
        if (token, start) in seen_rows:
            raise ValueError(f"duplicate (token, window) row: {(token, start)}")
        seen_rows.add((token, start))
        label = labels.get(token)
        if label is None:
            unlabeled.append(token)
            continue
        kept.append(row)
        flags.append(label)
    return LabeledDataset(table[kept], np.array(flags, dtype=np.int64), unlabeled)
