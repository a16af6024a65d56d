from __future__ import annotations

import re
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokengraphs.dataset import (
    LabelConflictError,
    LabelParseError,
    LabeledDataset,
    join,
    load_labels,
    write_labels,
)
from tokengraphs.features import TABLE_HEADER, feature_table
from tokengraphs.ingest import BlockWindow

from oracles import loop_join, summarize

WINDOW = BlockWindow(18_000_000, 18_100_000)


def vector(token: str, nodes: int, window: BlockWindow = WINDOW) -> tuple:
    """A one-component feature-table row of ``nodes`` nodes."""
    return (token, *window, nodes, nodes, 0.001, 1, float(nodes), 100, 10.0, 1000)


def table(*rows: tuple):
    return feature_table(list(rows))


def addr(n: int) -> str:
    return "0x" + format(n, "040x")


# --- label file ---------------------------------------------------------------

def test_load_two_labels(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(f"token,suspicious\n{addr(1)},0\n{addr(2)},1\n")
    labels = load_labels(path)
    assert labels == {addr(1): 0, addr(2): 1}


def test_conflicting_labels_error(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(f"token,suspicious\n{addr(1)},0\n{addr(1)},1\n")
    with pytest.raises(LabelConflictError):
        load_labels(path)


def test_a_conflicting_label_names_its_line(tmp_path):
    path = tmp_path / "labels.csv"
    upper = "0x" + addr(0xAB)[2:].upper()  # the same token
    path.write_text(f"token,suspicious\n{addr(0xAB)},0\n{addr(2)},1\n{upper},1\n")
    with pytest.raises(LabelConflictError, match=f"^line 4: conflicting labels for {addr(0xAB)}$"):
        load_labels(path)


def test_duplicate_consistent_labels_are_fine(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text(f"token,suspicious\n{addr(1)},1\n{addr(1)},1\n")
    assert load_labels(path) == {addr(1): 1}


def test_uppercase_address_normalizes_and_joins(tmp_path):
    path = tmp_path / "labels.csv"
    mixed = "0x" + format(0xAB, "040x").upper()
    path.write_text(f"token,suspicious\n{mixed},1\n")
    labels = load_labels(path)
    dataset = join(table(vector(addr(0xAB), 600)), labels, 500)
    assert dataset.labels.tolist() == [1]


def test_malformed_label_lines(tmp_path):
    for body in ("nonsense,1", f"{addr(1)},2", f"{addr(1)}"):
        path = tmp_path / "labels.csv"
        path.write_text(f"token,suspicious\n{body}\n")
        with pytest.raises(LabelParseError):
            load_labels(path)


def test_a_byte_that_is_not_utf8_names_its_label_line(tmp_path):
    path = tmp_path / "labels.csv"
    good = f"token,suspicious\n{addr(1)},0\n{addr(2)},1\n{addr(3)},1\n".encode()
    path.write_bytes(good + addr(4).encode()[:-1] + b"\xff,1\n")
    with pytest.raises(LabelParseError, match=r"^line 5: bad token address '0x0*\\udcff'$"):
        load_labels(path)


def test_label_round_trip(tmp_path):
    path = tmp_path / "labels.csv"
    labels = {addr(5): 1, addr(6): 0}
    write_labels(labels, path)
    assert load_labels(path) == labels


# --- join ----------------------------------------------------------------------

def test_threshold_is_strict():
    labels = {addr(1): 1, addr(2): 0}
    dataset = join(table(vector(addr(1), 500), vector(addr(2), 501)), labels, 500)
    assert dataset.table.token.tolist() == [addr(2)]


def test_zero_threshold_keeps_all_labeled():
    labels = {addr(1): 1, addr(2): 0}
    dataset = join(table(vector(addr(1), 1), vector(addr(2), 3)), labels, 0)
    assert len(dataset) == 2


def test_unlabeled_over_threshold_reported_not_assumed():
    dataset = join(table(vector(addr(1), 900)), {}, 500)
    assert len(dataset) == 0
    assert dataset.unlabeled == [addr(1)]


def test_join_monotone_in_threshold():
    labels = {addr(n): n % 2 for n in range(1, 30)}
    features = table(*(vector(addr(n), 400 + 20 * n) for n in range(1, 30)))
    sizes = [len(join(features, labels, t)) for t in (0, 450, 600, 800, 10_000)]
    assert sizes == sorted(sizes, reverse=True)


def test_duplicate_token_window_rows_rejected():
    labels = {addr(1): 0}
    with pytest.raises(ValueError):
        join(table(vector(addr(1), 600), vector(addr(1), 700)), labels, 500)


# --- summaries -------------------------------------------------------------------

def _dataset(rows):
    return LabeledDataset(table(*(row for row, _ in rows)),
                          np.array([label for _, label in rows]))


def test_single_window_fraction():
    rows = [(vector(addr(n), 600), 1 if n < 327 else 0) for n in range(926)]
    summary = summarize([_dataset(rows)])
    assert summary.pooled_rows == 926
    assert summary.pooled_suspicious == 327
    assert summary.pooled_fraction == pytest.approx(0.353, abs=5e-4)


def test_any_window_rule_for_unique_tokens():
    w2 = BlockWindow(18_100_000, 18_200_000)
    rows1 = [(vector(addr(1), 600), 1), (vector(addr(2), 600), 0)]
    rows2 = [(vector(addr(1), 700, w2), 0), (vector(addr(2), 700, w2), 0)]
    summary = summarize([_dataset(rows1), _dataset(rows2)])
    assert summary.unique_tokens == 2
    assert summary.unique_suspicious == 1  # flagged once, suspicious forever


def test_recurring_legitimate_tokens_raise_unique_fraction():
    # scams appear once; the legitimate token recurs in all four windows
    datasets = []
    for i in range(4):
        w = BlockWindow(18_000_000 + i * 100_000, 18_100_000 + i * 100_000)
        rows = [(vector(addr(1), 600, w), 0), (vector(addr(100 + i), 600, w), 1)]
        datasets.append(_dataset(rows))
    summary = summarize(datasets)
    assert summary.pooled_fraction == pytest.approx(0.5)
    assert summary.unique_fraction == pytest.approx(4 / 5)
    assert summary.unique_fraction > summary.pooled_fraction


def test_pooled_fraction_over_twenty_window_fixture():
    # per-window (rows, suspicious) fixture mirroring a real twenty-window corpus
    table = [
        (926, 327), (804, 257), (775, 233), (756, 223), (910, 239),
        (911, 178), (988, 214), (984, 216), (935, 243), (895, 224),
        (884, 221), (828, 215), (955, 228), (1049, 218), (1251, 316),
        (1258, 295), (1217, 288), (980, 193), (882, 136), (917, 101),
    ]
    datasets = []
    token_counter = 0
    for i, (rows_count, bad_count) in enumerate(table):
        w = BlockWindow(18_000_000 + i * 100_000, 18_100_000 + i * 100_000)
        rows = []
        for j in range(rows_count):
            rows.append((vector(addr(token_counter), 600, w),
                         1 if j < bad_count else 0))
            token_counter += 1
        datasets.append(_dataset(rows))
    summary = summarize(datasets)
    assert summary.pooled_rows == 19_105
    assert summary.pooled_suspicious == 4_565
    assert summary.pooled_fraction == pytest.approx(0.239, abs=5e-4)


# --- join against the straight loop ------------------------------------------------

# a row as the straight loop reads it, independent of the table
Row = namedtuple("Row", TABLE_HEADER)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 8)),
                max_size=10),
       st.dictionaries(st.integers(0, 3), st.integers(0, 1)), st.integers(0, 8))
@example([], {}, 0)
def test_join_equals_the_straight_loop(cells, flags, min_nodes):
    """Rows draw their token, window and node count from small pools, so
    duplicates, unlabeled tokens and rows under the threshold all occur."""
    rows = [vector(addr(token), nodes, BlockWindow(start, start + 100))
            for token, start, nodes in cells]
    labels = {addr(token): flag for token, flag in flags.items()}
    try:
        kept, kept_labels, unlabeled = loop_join([Row(*row) for row in rows], labels, min_nodes)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            join(feature_table(rows), labels, min_nodes)
        return
    dataset = join(feature_table(rows), labels, min_nodes)
    assert [tuple(row) for row in dataset.table] == [tuple(row) for row in kept]
    assert dataset.labels.tolist() == kept_labels
    assert dataset.unlabeled == unlabeled
