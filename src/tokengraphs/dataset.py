"""Ground-truth label handling and the labeled training corpus."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Sequence

from .features import FeatureVector, read_rows, write_rows

LABEL_HEADER = "token,suspicious"

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")

DEFAULT_MIN_NODES = 500


class LabelParseError(ValueError):
    pass


class LabelConflictError(ValueError):
    """Same token labeled both suspicious and clean."""


@dataclass
class LabeledDataset:
    """Feature rows joined with labels, one row per (token, window).

    ``unlabeled`` lists tokens that cleared the node threshold but have no
    ground-truth label; they are excluded from training rather than assumed
    legitimate.
    """

    rows: list[tuple[FeatureVector, int]]
    unlabeled: list[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def vectors(self) -> list[FeatureVector]:
        return [fv for fv, _ in self.rows]

    @property
    def labels(self) -> list[int]:
        return [label for _, label in self.rows]

    def row_ids(self) -> list[tuple[str, int, int]]:
        return [(fv.token, fv.window.start, fv.window.end) for fv, _ in self.rows]


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
            raise LabelConflictError(f"conflicting labels for {token}")
        labels[token] = value
    return labels


def write_labels(labels: dict[str, int], path: str | os.PathLike) -> None:
    write_rows(path, LABEL_HEADER, labels.items())


def join(
    features: Sequence[FeatureVector],
    labels: dict[str, int],
    min_nodes: int = DEFAULT_MIN_NODES,
) -> LabeledDataset:
    """Keep labeled rows with strictly more than ``min_nodes`` nodes.

    The threshold is strict: a 500-node graph is excluded at the default.
    Over-threshold tokens lacking a label are reported in ``unlabeled``.
    """
    rows: list[tuple[FeatureVector, int]] = []
    unlabeled: list[str] = []
    seen_rows: set[tuple[str, int]] = set()
    for fv in features:
        if fv.num_nodes <= min_nodes:
            continue
        key = (fv.token, fv.window.start)
        if key in seen_rows:
            raise ValueError(f"duplicate (token, window) row: {key}")
        seen_rows.add(key)
        label = labels.get(fv.token)
        if label is None:
            unlabeled.append(fv.token)
            continue
        rows.append((fv, label))
    return LabeledDataset(rows=rows, unlabeled=unlabeled)
