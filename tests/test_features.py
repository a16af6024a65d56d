from __future__ import annotations

import re
from collections import defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tokengraphs.cli import main
from tokengraphs.features import (
    FULL_FEATURES,
    REDUCED_FEATURES,
    REDUCED_NO_LIFETIME_FEATURES,
    TABLE_HEADER,
    VARIANTS,
    feature_matrix,
    feature_table,
    format_real,
    histogram_bins,
    read_feature_table,
    write_feature_table,
)
from tokengraphs.graphs import build_graphs

from conftest import WINDOW, batch_of, feature_row, feature_rows, make_event, write_tiny_corpus
from oracles import bfs_components, straight_feature_matrix, straight_line_features


def features_of(tuples, window=WINDOW, token="0x01"):
    """tuples: (from-stub, to-stub, value, block)"""
    events = [make_event(s, d, value=v, block=b, log_index=i, token=token, tx=i + 1)
              for i, (s, d, v, b) in enumerate(tuples)]
    return feature_row(build_graphs(batch_of(events), window)[events[0].token])


# --- the worked three-edge example -------------------------------------------

def test_three_edge_example():
    fv = features_of([("0xa", "0xb", 10, 18_000_100),
                      ("0xb", "0xc", 5, 18_000_150),
                      ("0xa", "0xc", 7, 18_000_200)])
    assert fv.num_nodes == 3
    assert fv.num_edges == 3
    assert fv.density == pytest.approx(0.5, abs=1e-12)
    assert fv.num_components == 1
    assert fv.avg_comp_size == pytest.approx(3.0, abs=1e-12)
    assert fv.lifetime == 100
    assert fv.transfer_std_dev == pytest.approx(40.824829046386306, abs=1e-10)
    assert fv.amount == 22


def test_parallel_edges_push_density_over_one():
    fv = features_of([("0xa", "0xb", 1, 18_000_000 + i) for i in range(5)])
    assert fv.num_nodes == 2
    assert fv.density == pytest.approx(2.5)


def test_single_self_loop_degenerate_graph():
    fv = features_of([("0xa", "0xa", 0, 18_000_500)])
    assert fv.num_nodes == 1 and fv.num_edges == 1
    assert fv.density == 0.0
    assert fv.lifetime == 0
    assert fv.transfer_std_dev == 0.0
    assert fv.amount == 0


def test_matches_straight_line_oracle_on_seeded_random_graphs():
    rng = np.random.default_rng(99)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, 120))
        raw = [
            (f"0x{a:x}", f"0x{b:x}", int(v), 18_000_000 + int(blk))
            for a, b, v, blk in zip(
                rng.integers(0, n, size=m), rng.integers(0, n, size=m),
                rng.integers(0, 10 ** 12, size=m), rng.integers(0, 99_999, size=m))
        ]
        fv = features_of(raw)
        expected = straight_line_features([(s, d, v, b) for s, d, v, b in raw])
        assert fv.num_nodes == expected["num_nodes"]
        assert fv.num_edges == expected["num_edges"]
        assert fv.num_components == expected["num_components"]
        assert fv.amount == expected["amount"]  # exact big-int
        assert fv.lifetime == expected["lifetime"]
        assert fv.density == pytest.approx(expected["density"], abs=1e-10)
        assert fv.avg_comp_size == pytest.approx(expected["avg_comp_size"], abs=1e-10)
        assert fv.transfer_std_dev == pytest.approx(
            expected["transfer_std_dev"], abs=1e-10, rel=1e-10)


def test_many_small_tokens_in_one_window_match_the_oracles(tmp_path):
    fixture, out = tmp_path / "tiny.tsv", tmp_path / "features.csv"
    by_token = defaultdict(list)
    for event in write_tiny_corpus(fixture, 2_000, seed=16):
        by_token[event.token].append(event)
    assert main(["features", "--fixture", str(fixture), "--out", str(out)]) == 0
    rows = read_feature_table(out)
    assert [(fv.token, (fv.window_start, fv.window_end)) for fv in rows] == [
        (token, WINDOW) for token in sorted(by_token)]
    for fv in rows:
        events = by_token[fv.token]
        oracle = straight_line_features([(e.from_addr, e.to_addr, e.value, e.block)
                                         for e in events])
        for name in ("num_nodes", "num_edges", "num_components", "lifetime", "amount"):
            assert getattr(fv, name) == oracle[name]
        for name in ("density", "avg_comp_size", "transfer_std_dev"):  # 10 digits as written
            assert getattr(fv, name) == pytest.approx(oracle[name], rel=1e-9, abs=1e-9)
        ids = {address: i for i, address in enumerate(
            dict.fromkeys(a for e in events for a in (e.from_addr, e.to_addr)))}
        count, _sizes = bfs_components(len(ids), [(ids[e.from_addr], ids[e.to_addr])
                                                  for e in events])
        assert fv.num_components == count


def test_amount_is_exact_at_uint256_scale():
    huge = (1 << 255) + 3
    fv = features_of([("0xa", "0xb", huge, 18_000_000),
                      ("0xb", "0xc", huge, 18_000_001)])
    assert fv.amount == 2 * huge + 0  # no float rounding


# --- invariance properties ----------------------------------------------------

@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                          st.integers(0, 10 ** 9), st.integers(0, 99_999)),
                min_size=1, max_size=40),
       st.integers(1, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_scaling_values_scales_amount_only(raw, k):
    base = [(f"0x{a:x}", f"0x{b:x}", v, 18_000_000 + blk) for a, b, v, blk in raw]
    scaled = [(s, d, v * k, b) for s, d, v, b in base]
    fv1, fv2 = features_of(base), features_of(scaled)
    assert fv2.amount == k * fv1.amount
    assert (fv1.num_nodes, fv1.num_edges, fv1.density, fv1.num_components,
            fv1.avg_comp_size, fv1.lifetime, fv1.transfer_std_dev) == (
        fv2.num_nodes, fv2.num_edges, fv2.density, fv2.num_components,
        fv2.avg_comp_size, fv2.lifetime, fv2.transfer_std_dev)


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                          st.integers(0, 10 ** 9), st.integers(0, 49_999)),
                min_size=1, max_size=40),
       st.integers(0, 50_000))
@settings(max_examples=60, deadline=None)
def test_shifting_blocks_keeps_temporal_features(raw, shift):
    base = [(f"0x{a:x}", f"0x{b:x}", v, 18_000_000 + blk) for a, b, v, blk in raw]
    shifted = [(s, d, v, b + shift) for s, d, v, b in base]
    fv1, fv2 = features_of(base), features_of(shifted)
    assert fv1.lifetime == fv2.lifetime
    assert fv1.transfer_std_dev == pytest.approx(fv2.transfer_std_dev,
                                                 abs=1e-9, rel=1e-12)


@given(st.lists(st.tuples(st.integers(0, 10), st.integers(0, 10),
                          st.integers(0, 10 ** 9), st.integers(0, 99_999)),
                min_size=1, max_size=40),
       st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_relabeling_and_reordering_changes_nothing(raw, rand):
    base = [(f"0x{a:x}", f"0x{b:x}", v, 18_000_000 + blk) for a, b, v, blk in raw]
    mapping = {f"0x{i:x}": f"0x{i + 17:x}" for i in range(11)}
    relabeled = [(mapping[s], mapping[d], v, b) for s, d, v, b in base]
    rand.shuffle(relabeled)
    fv1, fv2 = features_of(base), features_of(relabeled)
    for name in FULL_FEATURES:
        assert getattr(fv1, name) == pytest.approx(getattr(fv2, name), rel=1e-12)


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12),
                          st.integers(0, 10 ** 9), st.integers(0, 99_999)),
                min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_component_consistency_and_sanity_bounds(raw):
    fv = features_of([(f"0x{a:x}", f"0x{b:x}", v, 18_000_000 + blk)
                      for a, b, v, blk in raw])
    assert fv.avg_comp_size * fv.num_components == pytest.approx(
        fv.num_nodes, abs=1e-12 * max(1, fv.num_nodes))
    assert 0 <= fv.lifetime < WINDOW.width
    assert fv.transfer_std_dev <= fv.lifetime / 2 + 1e-9


# --- reduced variants ---------------------------------------------------------

def test_reduced_vector_fields():
    fv = features_of([("0xa", "0xb", 1, 18_000_000 + i) for i in range(12)]
                     + [("0xc", "0xd", 1, 18_000_500)])
    row = dict(zip(REDUCED_FEATURES, feature_matrix(feature_table([fv]), REDUCED_FEATURES)[0]))
    assert row["edges_per_component"] == pytest.approx(fv.num_edges / fv.num_components)
    assert row["lifetime"] == fv.lifetime


def test_reduced_without_lifetime():
    fv = features_of([("0xa", "0xb", 1, 18_000_000), ("0xb", "0xc", 2, 18_000_900)])
    reduced = feature_matrix(feature_table([fv]), REDUCED_FEATURES)
    without = feature_matrix(feature_table([fv]), REDUCED_NO_LIFETIME_FEATURES)
    keep = [i for i, name in enumerate(REDUCED_FEATURES) if name != "lifetime"]
    assert np.array_equal(without, reduced[:, keep])


def test_single_component_edges_per_component_is_edge_count():
    fv = features_of([("0xa", "0xb", 1, 18_000_000), ("0xb", "0xa", 1, 18_000_001)])
    assert feature_matrix(feature_table([fv]), ("edges_per_component",))[0, 0] == fv.num_edges


def test_variant_matrices_have_expected_columns():
    fv = features_of([("0xa", "0xb", 3, 18_000_000)])
    for variant, names in (("full", FULL_FEATURES),
                           ("reduced", REDUCED_FEATURES),
                           ("reduced-no-lifetime", REDUCED_NO_LIFETIME_FEATURES)):
        assert VARIANTS[variant] == names
        assert feature_matrix(feature_table([fv]), names).shape == (1, len(names))


# --- table io -----------------------------------------------------------------

def test_feature_table_round_trip(tmp_path):
    vectors = feature_table([features_of([("0xa", "0xb", 10, 18_000_100),
                                          ("0xb", "0xc", 5, 18_000_150)]),
                             features_of([("0xa", "0xa", (1 << 200) + 7, 18_000_000)],
                                         token="0x02")])
    path = tmp_path / "features.csv"
    assert write_feature_table(vectors, path) == 2
    back = read_feature_table(path)
    assert len(back) == 2
    for original, loaded in zip(vectors, back):
        assert loaded.token == original.token
        assert (loaded.window_start, loaded.window_end) == WINDOW
        assert loaded.amount == original.amount  # decimal string keeps exactness
        assert loaded.num_nodes == original.num_nodes
        assert loaded.density == pytest.approx(original.density, rel=1e-9)


def test_feature_table_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError):
        read_feature_table(path)


@pytest.mark.parametrize("column, cell, message", [
    (5, "nan", "must be finite"), (7, "inf", "must be finite"),
    (9, "-inf", "must be finite"), (3, "12x", "invalid literal")])
def test_feature_table_rejects_a_bad_cell_naming_its_line(tmp_path, column, cell,
                                                          message):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table([features_of([("0xa", "0xb", 10, 18_000_100)])]), path)
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[column] = cell
    path.write_text(f"{header}\n{','.join(fields)}\n")
    with pytest.raises(ValueError, match=f"^line 2: .*{message}"):
        read_feature_table(path)


@pytest.mark.parametrize("width", [10, 12])
def test_feature_table_row_of_the_wrong_width_names_its_line(tmp_path, width):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table([features_of([("0xa", "0xb", 10, 18_000_100)])]), path)
    header, row = path.read_text().splitlines()
    cells = (row.split(",") + ["0"])[:width]
    path.write_text(f"{header}\n{','.join(cells)}\n")
    with pytest.raises(ValueError, match="^line 2: expected 11 columns$"):
        read_feature_table(path)


def test_a_byte_that_is_not_utf8_names_its_feature_table_line(tmp_path):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table([features_of([("0xa", "0xb", 10, 18_000_100)],
                                                   token=f"0x0{i}") for i in range(3)]), path)
    last = path.read_bytes().splitlines(keepends=True)[-1]
    with open(path, "ab") as handle:
        handle.write(last[:2] + b"\xff" + last[3:])
    with pytest.raises(ValueError, match=r"^line 5: bad token address: '0x\\udcff"):
        read_feature_table(path)


TOKEN = "0x" + "ab" * 20


@settings(max_examples=100, deadline=None)
@given(st.lists(feature_rows(), max_size=5))
def test_written_tables_read_back_identically(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("table") / "features.csv"
    vectors = feature_table(rows)
    write_feature_table(vectors, path)
    back = read_feature_table(path)
    again = path.with_name("again.csv")
    write_feature_table(back, again)
    assert again.read_bytes() == path.read_bytes()
    for original, loaded in zip(vectors, back, strict=True):
        assert loaded.token == original.token
        assert (loaded.window_start, loaded.window_end) == (original.window_start,
                                                            original.window_end)
        assert loaded.amount == original.amount
        assert loaded.num_nodes == original.num_nodes


@pytest.mark.parametrize("x", [1.7976931345e+308, -1.7976931345e+308,
                               1.7976931348623157e+308, -1.7976931348623157e+308])
def test_format_real_keeps_the_largest_finite_reals_finite(x):
    # .10g would round these up to 1.797693135e+308, which reads back as inf
    assert format(x, ".10g").lstrip("-") == "1.797693135e+308"
    assert float(format_real(x)) == x


@pytest.mark.parametrize("x", [0.0, -0.0, 1.5, 1e-300, 1.7976931344e+308,
                               -1.7976931344e+308, 5e-324])
def test_format_real_is_ten_significant_digits_below_the_float64_edge(x):
    assert format_real(x) == format(x, ".10g")


# ways to spoil a cell that bare int()/float() would still accept
_SPOILERS = (
    lambda cell: f" {cell}", lambda cell: f"{cell} ", lambda cell: f"+{cell}",
    lambda cell: cell[:1] + "_" + cell[1:] if len(cell) > 1 else cell + "_",
    lambda cell: cell.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda cell: cell.translate(str.maketrans("0123456789", "０１２３４５６７８９")),
    lambda cell: cell.upper(),
)


@settings(max_examples=150, deadline=None)
@given(feature_rows(), st.integers(1, 10), st.sampled_from(_SPOILERS))
def test_a_spoiled_number_cell_is_rejected_naming_its_line(tmp_path_factory, fv,
                                                           column, spoil):
    path = tmp_path_factory.mktemp("table") / "features.csv"
    write_feature_table(feature_table([fv, fv]), path)
    header, first, second = path.read_text().splitlines()
    fields = second.split(",")
    spoiled = spoil(fields[column])
    if spoiled == fields[column]:  # e.g. upper() of a plain integer
        return
    fields[column] = spoiled
    path.write_text(f"{header}\n{first}\n{','.join(fields)}\n")
    name = header.split(",")[column]
    with pytest.raises(ValueError, match=f"^line 3: invalid literal for {name} "):
        read_feature_table(path)


@pytest.mark.parametrize("column, cell", [
    (3, "٥٠٠"), (8, " 1_000 "), (8, "1_000"), (4, "7 "), (1, "+18000000"),
    (10, "-5"), (6, "１"), (5, "0.5 "), (7, "1_0.5"), (7, "١.٥"), (9, "NaN"),
    (9, "Infinity"), (5, "1E+05"), (5, ".5"), (5, "5."), (9, "1e5")])
def test_feature_table_rejects_a_number_format_real_never_writes(tmp_path, column,
                                                                 cell):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table([features_of([("0xa", "0xb", 10, 18_000_100)])]), path)
    header, row = path.read_text().splitlines()
    fields = row.split(",")
    fields[column] = cell
    path.write_text(f"{header}\n{','.join(fields)}\n")
    name = header.split(",")[column]
    with pytest.raises(ValueError, match=f"^line 2: invalid literal for {name} "
                                         f".*: {re.escape(repr(cell))}$"):
        read_feature_table(path)


@pytest.mark.parametrize("token", ["not-an-address", "0x" + "AB" * 20, "0x" + "ab" * 19,
                                   " " + TOKEN])
def test_feature_table_rejects_a_token_that_is_not_an_address(tmp_path, token):
    path = tmp_path / "features.csv"
    write_feature_table(feature_table([features_of([("0xa", "0xb", 10, 18_000_100)])]), path)
    header, row = path.read_text().splitlines()
    path.write_text(f"{header}\n{token},{row.split(',', 1)[1]}\n")
    with pytest.raises(ValueError,
                       match=f"^line 2: bad token address: {re.escape(repr(token))}$"):
        read_feature_table(path)


def test_histogram_bins_cover_all_rows():
    vectors = [features_of([("0xa", "0xb", v, 18_000_000 + v)])
               for v in range(1, 30)]
    bins = histogram_bins(feature_table(vectors))
    assert set(bins) == set(FULL_FEATURES)
    for rows in bins.values():
        assert sum(count for _lo, _hi, count in rows) == len(vectors)


def test_histogram_constant_column_is_single_bin():
    vectors = [features_of([("0xa", "0xb", 5, 18_000_000)]) for _ in range(3)]
    bins = histogram_bins(feature_table(vectors))
    assert bins["num_nodes"] == [(2.0, 2.0, 3)]


# a row as the straight builder reads it, independent of the table
Row = namedtuple("Row", TABLE_HEADER)


@settings(max_examples=150, deadline=None)
@given(st.lists(feature_rows(), max_size=6), st.sampled_from(sorted(VARIANTS)), st.booleans())
@example([], "reduced", True)
def test_the_matrix_equals_the_straight_builder_bit_for_bit(rows, variant, log_amount):
    names = VARIANTS[variant]
    matrix = feature_matrix(feature_table(rows), names, log_amount)
    straight = straight_feature_matrix([Row(*row) for row in rows], names, log_amount)
    assert matrix.shape == straight.shape == (len(rows), len(names))
    assert matrix.tobytes() == straight.tobytes()
